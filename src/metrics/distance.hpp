// Distance (hop-count) distribution d(x) — paper §2: the number of node
// pairs at distance x divided by n^2, self-pairs included.  Also supplies
// the scalar summaries d̄ (mean) and σd (standard deviation) used in
// Tables 3, 4, 6, 7, 8, computed over connected ordered pairs with x >= 1.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace orbis::metrics {

struct DistanceDistribution {
  /// counts[x] = number of ordered node pairs (self-pairs at x=0) at
  /// hop distance x; unreachable pairs are not counted.
  std::vector<std::uint64_t> counts;
  std::uint64_t num_nodes = 0;
  std::uint64_t unreachable_pairs = 0;

  /// d(x) = counts[x] / n^2 (the paper's normalization).
  std::vector<double> pdf() const;

  /// Mean hop distance over ordered pairs with x >= 1.
  double mean() const;

  /// Population standard deviation over ordered pairs with x >= 1.
  double stddev() const;

  std::size_t diameter() const {
    return counts.empty() ? 0 : counts.size() - 1;
  }
};

/// Exact distribution by a bit-parallel multi-source BFS: the sources run
/// in ceil(n/64) batches of 64, one bit per source in a word per node,
/// so a level reached by several sources at once is walked once.  Each
/// level pushes from its frontier nodes while their arcs number under a
/// quarter of n + 2m, and otherwise pulls into every node some source
/// has not reached.  A pull therefore costs at most 4x the push it
/// replaces, and a batch at most a constant times its 64 single-source
/// searches: O(n (n + m)) in all, as per source, while on small-world
/// graphs, where the searches share their levels, a batch costs about
/// one pass over the graph per level.  Bit-identical to one BFS per node.
DistanceDistribution distance_distribution(const Graph& g);

/// Estimated distribution via BFS from `num_sources` uniformly sampled
/// sources (ordered pairs source->target), batched as above; counts and
/// unreachable_pairs are both scaled by n / num_sources to the n^2
/// scale.  Exact when num_sources >= n.
DistanceDistribution sampled_distance_distribution(const Graph& g,
                                                   std::size_t num_sources,
                                                   util::Rng& rng);

/// Average distance d̄ (convenience wrapper).
double average_distance(const Graph& g);

}  // namespace orbis::metrics
