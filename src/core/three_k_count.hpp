// The one wedge/triangle counting pass (paper §3) behind
// ThreeKProfile::from_graph, the streaming extractor, DkState's
// construction and the S2/clustering metrics: a change to how size-3
// subgraphs are counted is a change to count_three_k alone.  Its two
// passes are also callable one at a time (count_center_pairs,
// count_triangles), which is how count_three_k_profile times them.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/three_k_profile.hpp"
#include "graph/graph.hpp"
#include "obs/trace.hpp"

namespace orbis::dk {

/// The view's nodes in (degree, id) order: one counting sort by degree.
template <typename View>
std::vector<NodeId> nodes_by_degree(const View& view) {
  const NodeId n = view.num_nodes();
  std::vector<std::size_t> offset;
  for (NodeId v = 0; v < n; ++v) {
    const std::size_t k = view.degree(v);
    if (k + 2 > offset.size()) offset.resize(k + 2, 0);
    ++offset[k + 1];
  }
  for (std::size_t k = 1; k < offset.size(); ++k) offset[k] += offset[k - 1];
  std::vector<NodeId> order(n);
  for (NodeId v = 0; v < n; ++v) order[offset[view.degree(v)]++] = v;
  return order;
}

/// The view's distinct degrees, ascending: its degree classes.
template <typename View>
std::vector<std::uint32_t> degree_classes(const View& view) {
  std::vector<std::uint8_t> present;
  for (NodeId v = 0; v < view.num_nodes(); ++v) {
    const std::size_t k = view.degree(v);
    if (k >= present.size()) present.resize(k + 1, 0);
    present[k] = 1;
  }
  std::vector<std::uint32_t> classes;
  for (std::size_t k = 0; k < present.size(); ++k) {
    if (present[k] != 0) classes.push_back(static_cast<std::uint32_t>(k));
  }
  return classes;
}

/// Pass 1 of count_three_k: visits centers in (degree, id) order,
/// run-length-encodes each one's sorted neighbor degrees and calls
/// add_center_pairs(k_center, k1, k2, count) once per pair of neighbor
/// degree classes k1 <= k2, counting every neighbor pair, adjacent or
/// not.  A center class's calls are therefore contiguous, and classes
/// arrive in ascending degree.
template <typename View, typename... Visitors>
void count_center_pairs(const View& view, Visitors&... visitors) {
  const auto degree = [&](NodeId v) {
    return static_cast<std::uint32_t>(view.degree(v));
  };
  std::vector<std::uint32_t> sorted;
  std::vector<std::pair<std::uint32_t, std::int64_t>> runs;
  for (const NodeId v : nodes_by_degree(view)) {
    const auto nbrs = view.neighbors(v);
    if (nbrs.size() < 2) continue;
    sorted.clear();
    for (const NodeId w : nbrs) sorted.push_back(degree(w));
    std::sort(sorted.begin(), sorted.end());
    runs.clear();
    for (const std::uint32_t k : sorted) {
      if (runs.empty() || runs.back().first != k) runs.emplace_back(k, 0);
      ++runs.back().second;
    }
    const std::uint32_t center = degree(v);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const auto [ki, ci] = runs[i];
      if (ci >= 2) {
        (visitors.add_center_pairs(center, ki, ki, ci * (ci - 1) / 2), ...);
      }
      for (std::size_t j = i + 1; j < runs.size(); ++j) {
        const auto [kj, cj] = runs[j];
        (visitors.add_center_pairs(center, ki, kj, ci * cj), ...);
      }
    }
  }
}

/// Pass 2 of count_three_k: orients each edge from its lower to its
/// higher (degree, id) end and calls add_triangle(a, b, c, k_a, k_b,
/// k_c) once per triangle, found by intersecting forward rows against a
/// stamp array: O(m^{3/2}) flat row scans, no edge-existence probe.
/// Returns the bytes the forward orientation and stamps held.
template <typename View, typename... Visitors>
std::size_t count_triangles(const View& view, Visitors&... visitors) {
  const NodeId n = view.num_nodes();
  const auto degree = [&](NodeId v) {
    return static_cast<std::uint32_t>(view.degree(v));
  };
  const auto precedes = [&](NodeId a, NodeId b) {
    return std::pair(degree(a), a) < std::pair(degree(b), b);
  };
  std::size_t half_edges = 0;
  for (NodeId u = 0; u < n; ++u) half_edges += degree(u);
  std::vector<std::size_t> offset(static_cast<std::size_t>(n) + 1, 0);
  std::vector<NodeId> forward;
  forward.reserve(half_edges / 2);
  for (NodeId u = 0; u < n; ++u) {
    for (const NodeId w : view.neighbors(u)) {
      if (precedes(u, w)) forward.push_back(w);
    }
    offset[u + 1] = forward.size();
  }
  std::vector<NodeId> stamp(n, n);  // stamp[w] == u iff w in forward(u)
  for (NodeId u = 0; u < n; ++u) {
    for (std::size_t i = offset[u]; i < offset[u + 1]; ++i) {
      stamp[forward[i]] = u;
    }
    for (std::size_t i = offset[u]; i < offset[u + 1]; ++i) {
      const NodeId v = forward[i];
      for (std::size_t j = offset[v]; j < offset[v + 1]; ++j) {
        const NodeId w = forward[j];
        if (stamp[w] != u) continue;
        (visitors.add_triangle(u, v, w, degree(u), degree(v), degree(w)),
         ...);
      }
    }
  }
  return offset.capacity() * sizeof(std::size_t) +
         forward.capacity() * sizeof(NodeId) +
         stamp.capacity() * sizeof(NodeId);
}

/// Runs both passes over `view` (num_nodes(), neighbors(v) as a range of
/// NodeId, degree(v)), handing every count to each visitor in turn.
/// Wedges are the center pairs minus the triangles' closed pairs, and
/// every pair comes before the first triangle, so a histogram that
/// subtracts closed pairs never goes negative.  Returns the bytes pass
/// 2's forward orientation and stamps held.
template <typename View, typename... Visitors>
std::size_t count_three_k(const View& view, Visitors&... visitors) {
  count_center_pairs(view, visitors...);
  return count_triangles(view, visitors...);
}

/// The 3K profile of `view`, from one ThreeKBinCounter visit, with one
/// trace span per phase.  The triangle pass runs first, so each center
/// class's closed pairs are on hand when its pairs are emitted.
/// `peak_bytes`, when given, receives the bytes the counting held at
/// most: the counter's peak plus the triangle pass's forward
/// orientation.
template <typename View>
ThreeKProfile count_three_k_profile(const View& view,
                                    std::size_t* peak_bytes = nullptr) {
  ThreeKBinCounter counter(degree_classes(view));
  std::size_t forward_bytes = 0;
  {
    const obs::Span span("dk.three_k.triangles");
    forward_bytes = count_triangles(view, counter);
    counter.end_triangles();
  }
  const obs::Span span("dk.three_k.center_pairs");
  count_center_pairs(view, counter);
  counter.end_center_pairs();
  ThreeKProfile profile = counter.finish();
  if (peak_bytes != nullptr) {
    *peak_bytes = forward_bytes + counter.peak_bytes();
  }
  return profile;
}

/// count_three_k visitor for the histogram-free reductions: S2, summed
/// exactly in integers, and the triangles through each node.
struct ThreeKScalars {
  std::int64_t s2 = 0;
  std::vector<std::int64_t> node_triangles;

  explicit ThreeKScalars(NodeId n) : node_triangles(n, 0) {}

  void add_center_pairs(std::uint32_t, std::uint32_t k1, std::uint32_t k2,
                        std::int64_t count) {
    s2 += count * std::int64_t{k1} * std::int64_t{k2};
  }
  void add_triangle(NodeId a, NodeId b, NodeId c, std::uint32_t ka,
                    std::uint32_t kb, std::uint32_t kc) {
    // Its three closed pairs were counted as center pairs: not wedges.
    s2 -= std::int64_t{ka} * kb + std::int64_t{ka} * kc +
          std::int64_t{kb} * kc;
    ++node_triangles[a];
    ++node_triangles[b];
    ++node_triangles[c];
  }
};

/// S2 of g without histograms (paper §4.3; equals
/// ThreeKProfile::second_order_likelihood()).
inline double second_order_likelihood(const Graph& g) {
  ThreeKScalars scalars(g.num_nodes());
  count_three_k(g, scalars);
  return static_cast<double>(scalars.s2);
}

/// Triangles through each node, t_v.
inline std::vector<std::int64_t> triangles_per_node(const Graph& g) {
  ThreeKScalars scalars(g.num_nodes());
  count_three_k(g, scalars);
  return std::move(scalars.node_triangles);
}

}  // namespace orbis::dk
