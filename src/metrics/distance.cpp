#include "metrics/distance.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <span>
#include <utility>

namespace orbis::metrics {

namespace {

constexpr std::size_t kBatch = 64;  // sources per batch: one bit each

// A pushed arc costs a random read-modify-write and a list append, a
// pulled arc one OR that may end the node's scan early; a level pulls
// once its frontier's arcs reach 1/kPushCost of a pull's reads.
constexpr std::uint64_t kPushCost = 4;

// Population count, cheap for the one-bit words of a sparse frontier (a
// portable build has no popcount instruction).
std::uint64_t bit_count(std::uint64_t bits) {
  if ((bits & (bits - 1)) == 0) return bits != 0;
  return static_cast<std::uint64_t>(std::popcount(bits));
}

// Multi-source BFS (Then et al., "The More the Merrier", VLDB 2015): bit
// b of a node's words stands for the batch's source b, so one pass over
// the adjacency advances up to 64 BFS trees at once.  The adjacency is
// flattened into one CSR per call.  Each level is direction-optimizing:
// it pushes from the list of frontier nodes while that frontier is
// sparse, and pulls into every unfinished node once it is dense, so a
// high-diameter graph never pays an O(n) scan per level.
class BatchBfs {
 public:
  explicit BatchBfs(const Graph& g)
      : n_(g.num_nodes()),
        offsets_(n_ + 1, 0),
        words_(n_),
        active_(n_),
        found_(n_) {
    for (NodeId v = 0; v < n_; ++v) {
      offsets_[v + 1] = offsets_[v] + g.degree(v);
      max_degree_ = std::max<std::uint64_t>(max_degree_, g.degree(v));
    }
    targets_.reserve(offsets_[n_]);
    for (NodeId v = 0; v < n_; ++v) {
      const auto row = g.neighbors(v);
      targets_.insert(targets_.end(), row.begin(), row.end());
    }
  }

  /// Every node's position in a BFS order: from node 0, then from each
  /// node no earlier search reached.  Sources at equal depth from a root
  /// reach the nodes beyond them at equal levels, so batching sources in
  /// this order lets their bits travel together (on a tree, most levels
  /// of a batch are shared).
  std::vector<std::size_t> bfs_rank() const {
    constexpr auto unranked = static_cast<std::size_t>(-1);
    std::vector<std::size_t> rank(n_, unranked);
    std::vector<NodeId> order;
    order.reserve(n_);
    for (NodeId root = 0; root < n_; ++root) {
      if (rank[root] != unranked) continue;
      rank[root] = order.size();
      order.push_back(root);
      for (std::size_t head = rank[root]; head < order.size(); ++head) {
        const NodeId v = order[head];
        for (std::size_t i = offsets_[v]; i < offsets_[v + 1]; ++i) {
          const NodeId w = targets_[i];
          if (rank[w] != unranked) continue;
          rank[w] = order.size();
          order.push_back(w);
        }
      }
    }
    return rank;
  }

  /// Adds the distances from `sources` (at most 64, distinct) to every
  /// node into dist.counts and dist.unreachable_pairs.
  void run(std::span<const NodeId> sources, DistanceDistribution& dist) {
    // Bits of absent sources start seen everywhere, so a node is done
    // for this batch exactly when its seen word is all ones.
    const std::uint64_t unused =
        sources.size() == kBatch ? 0 : ~0ULL << sources.size();
    for (auto& word : words_) word.seen = unused;
    num_found_ = 0;
    for (std::size_t b = 0; b < sources.size(); ++b) {
      const NodeId s = sources[b];
      found_[num_found_++] = s;
      words_[s].seen |= 1ULL << b;
      words_[s].frontier[side_ ^ 1] = 1ULL << b;
    }
    if (dist.counts.empty()) dist.counts.push_back(0);
    dist.counts[0] += sources.size();
    std::uint64_t reached = sources.size();

    const std::uint64_t pull_reads = n_ + targets_.size();
    for (std::size_t depth = 1; num_found_ != 0; ++depth) {
      active_.swap(found_);
      num_active_ = num_found_;
      num_found_ = 0;
      side_ ^= 1;
      const std::uint64_t pairs =
          frontier_arcs_at_least(pull_reads / kPushCost) ? pull() : push();
      if (pairs == 0) continue;
      if (depth >= dist.counts.size()) dist.counts.resize(depth + 1, 0);
      dist.counts[depth] += pairs;
      reached += pairs;
    }
    dist.unreachable_pairs += sources.size() * n_ - reached;
  }

 private:
  struct Words {
    std::uint64_t seen = 0;
    // Sources whose BFS reached the node at the current level, in
    // frontier[side_]; the next level collects into frontier[side_ ^ 1].
    std::uint64_t frontier[2] = {0, 0};
  };

  bool frontier_arcs_at_least(std::uint64_t bound) const {
    if (num_active_ * max_degree_ < bound) return false;
    std::uint64_t arcs = 0;
    for (std::size_t a = 0; a < num_active_; ++a) {
      const NodeId v = active_[a];
      arcs += offsets_[v + 1] - offsets_[v];
    }
    return arcs >= bound;
  }

  // Top-down: each active node offers its bits to its neighbors.  Marking
  // seen at once is safe: a bit offered twice in one level is one
  // distance.  Returns the (source, node) pairs reached.
  std::uint64_t push() {
    const unsigned now = side_;
    const unsigned next = side_ ^ 1;
    std::uint64_t pairs = 0;
    for (std::size_t a = 0; a < num_active_; ++a) {
      const NodeId v = active_[a];
      const std::uint64_t bits = words_[v].frontier[now];
      words_[v].frontier[now] = 0;
      for (std::size_t i = offsets_[v]; i < offsets_[v + 1]; ++i) {
        const NodeId w = targets_[i];
        Words& word = words_[w];
        const std::uint64_t fresh = bits & ~word.seen;
        if (fresh == 0) continue;
        if (word.frontier[next] == 0) found_[num_found_++] = w;
        word.frontier[next] |= fresh;
        word.seen |= fresh;
        pairs += bit_count(fresh);
      }
    }
    return pairs;
  }

  // Bottom-up: each unfinished node gathers its neighbors' frontier bits,
  // stopping once every source it misses has been found.
  std::uint64_t pull() {
    const unsigned now = side_;
    const unsigned next = side_ ^ 1;
    std::uint64_t pairs = 0;
    for (NodeId w = 0; w < n_; ++w) {
      Words& word = words_[w];
      const std::uint64_t missing = ~word.seen;
      if (missing == 0) continue;
      std::uint64_t bits = 0;
      for (std::size_t i = offsets_[w]; i < offsets_[w + 1]; ++i) {
        bits |= words_[targets_[i]].frontier[now];
        if ((bits & missing) == missing) break;
      }
      bits &= missing;
      if (bits == 0) continue;
      found_[num_found_++] = w;
      word.frontier[next] = bits;
      word.seen |= bits;
      pairs += bit_count(bits);
    }
    for (std::size_t a = 0; a < num_active_; ++a) {
      words_[active_[a]].frontier[now] = 0;
    }
    return pairs;
  }

  NodeId n_;
  std::uint64_t max_degree_ = 0;
  std::vector<std::size_t> offsets_;
  std::vector<NodeId> targets_;
  std::vector<Words> words_;
  // This level's frontier nodes and the next level's, as prefixes.
  std::vector<NodeId> active_, found_;
  std::size_t num_active_ = 0;
  std::size_t num_found_ = 0;
  unsigned side_ = 0;
};

// Runs `sources` through the kernel in batches of 64, in BFS order.
void accumulate(const Graph& g, std::vector<NodeId> sources,
                DistanceDistribution& dist) {
  BatchBfs bfs(g);
  const auto rank = bfs.bfs_rank();
  std::sort(sources.begin(), sources.end(),
            [&rank](NodeId a, NodeId b) { return rank[a] < rank[b]; });
  const std::span<const NodeId> all(sources);
  for (std::size_t i = 0; i < all.size(); i += kBatch) {
    bfs.run(all.subspan(i, std::min(kBatch, all.size() - i)), dist);
  }
}

}  // namespace

std::vector<double> DistanceDistribution::pdf() const {
  std::vector<double> result(counts.size(), 0.0);
  if (num_nodes == 0) return result;
  const double n2 =
      static_cast<double>(num_nodes) * static_cast<double>(num_nodes);
  for (std::size_t x = 0; x < counts.size(); ++x) {
    result[x] = static_cast<double>(counts[x]) / n2;
  }
  return result;
}

double DistanceDistribution::mean() const {
  std::uint64_t pairs = 0;
  double sum = 0.0;
  for (std::size_t x = 1; x < counts.size(); ++x) {
    pairs += counts[x];
    sum += static_cast<double>(x) * static_cast<double>(counts[x]);
  }
  return pairs > 0 ? sum / static_cast<double>(pairs) : 0.0;
}

double DistanceDistribution::stddev() const {
  std::uint64_t pairs = 0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t x = 1; x < counts.size(); ++x) {
    const auto c = static_cast<double>(counts[x]);
    pairs += counts[x];
    sum += static_cast<double>(x) * c;
    sum_sq += static_cast<double>(x) * static_cast<double>(x) * c;
  }
  if (pairs == 0) return 0.0;
  const double mean = sum / static_cast<double>(pairs);
  const double variance = sum_sq / static_cast<double>(pairs) - mean * mean;
  return variance > 0.0 ? std::sqrt(variance) : 0.0;
}

DistanceDistribution distance_distribution(const Graph& g) {
  DistanceDistribution dist;
  dist.num_nodes = g.num_nodes();
  std::vector<NodeId> sources(g.num_nodes());
  std::iota(sources.begin(), sources.end(), NodeId{0});
  accumulate(g, std::move(sources), dist);
  return dist;
}

DistanceDistribution sampled_distance_distribution(const Graph& g,
                                                   std::size_t num_sources,
                                                   util::Rng& rng) {
  if (num_sources >= g.num_nodes()) return distance_distribution(g);
  DistanceDistribution dist;
  dist.num_nodes = g.num_nodes();
  if (num_sources == 0) return dist;
  std::vector<NodeId> sources(g.num_nodes());
  std::iota(sources.begin(), sources.end(), NodeId{0});
  rng.shuffle(sources);
  sources.resize(num_sources);
  accumulate(g, std::move(sources), dist);
  // Rescale to the n^2 scale pdf() normalizes by: counts and unreachable
  // pairs alike, so together they still cover all n^2 ordered pairs.
  const double scale = static_cast<double>(g.num_nodes()) /
                       static_cast<double>(num_sources);
  const auto rescale = [scale](std::uint64_t& c) {
    c = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(c) * scale));
  };
  for (auto& c : dist.counts) rescale(c);
  rescale(dist.unreachable_pairs);
  return dist;
}

double average_distance(const Graph& g) {
  return distance_distribution(g).mean();
}

}  // namespace orbis::metrics
