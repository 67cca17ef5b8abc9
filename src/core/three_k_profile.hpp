// The 3K-distribution: degree correlations within connected subgraphs of
// size 3.  Two components (paper §3):
//
//   wedges    P∧(k1,k2,k3) — 2-paths k1 - k2 - k3 whose endpoints are NOT
//             adjacent (the center degree is k2; endpoints unordered),
//   triangles P△(k1,k2,k3) — 3-cliques (fully unordered).
//
// Stored as raw subgraph counts (the paper's own example counts subgraphs,
// not probabilities).  With this "induced" wedge definition every
// (edge, side, extra-neighbor) incidence is exactly one wedge or one
// triangle, which yields the paper's inclusion identity
//   m(k1,k2) ~ Σ_k [N∧(k,k1,k2) + N△(k,k1,k2)] / (k1 - 1),
// implemented here as project_to_2k().
// from_graph is a count_three_k (core/three_k_count.hpp) visitor.
#pragma once

#include <cstdint>
#include <vector>

#include "core/joint_degree_distribution.hpp"
#include "core/sparse_histogram.hpp"
#include "graph/graph.hpp"
#include "util/keys.hpp"

namespace orbis::dk {

class ThreeKProfile {
 public:
  ThreeKProfile() = default;

  /// Fast extraction (count_three_k): O(Σ_v deg(v) log deg(v) + m^{3/2}).
  static ThreeKProfile from_graph(const Graph& g);

  /// Reference extraction by direct neighbor-pair enumeration:
  /// O(Σ_v deg(v)^2). The tests' oracle for every count_three_k user.
  static ThreeKProfile from_graph_naive(const Graph& g);

  /// count_three_k visitor: center pairs go into the wedges; a triangle
  /// goes into the triangles and takes its closed pairs out of them.
  void add_center_pairs(std::uint32_t center, std::uint32_t k1,
                        std::uint32_t k2, std::int64_t count) {
    wedges_.add(util::wedge_key(k1, center, k2), count);
  }
  void add_triangle(NodeId, NodeId, NodeId, std::uint32_t ka,
                    std::uint32_t kb, std::uint32_t kc);

  std::int64_t wedge_count(std::size_t end1, std::size_t center,
                           std::size_t end2) const {
    return wedges_.count(util::wedge_key(static_cast<std::uint32_t>(end1),
                                         static_cast<std::uint32_t>(center),
                                         static_cast<std::uint32_t>(end2)));
  }

  std::int64_t triangle_count(std::size_t a, std::size_t b,
                              std::size_t c) const {
    return triangles_.count(util::triangle_key(static_cast<std::uint32_t>(a),
                                               static_cast<std::uint32_t>(b),
                                               static_cast<std::uint32_t>(c)));
  }

  std::int64_t total_wedges() const noexcept { return wedges_.total(); }
  std::int64_t total_triangles() const noexcept { return triangles_.total(); }

  const SparseHistogram& wedges() const noexcept { return wedges_; }
  const SparseHistogram& triangles() const noexcept { return triangles_; }
  SparseHistogram& wedges() noexcept { return wedges_; }
  SparseHistogram& triangles() noexcept { return triangles_; }

  /// Second-order likelihood S2 = Σ_wedges k1*k3 (paper §4.3): the scalar
  /// summary of the wedge component.  dk::second_order_likelihood(g)
  /// (three_k_count.hpp) gives it without building the histograms.
  double second_order_likelihood() const;

  /// Σ_triangles contribution used by the paper's C̄ ~ Σ k1 P△ remark.
  double triangle_degree_sum() const;

  /// Inclusion projection P3 -> P2.  Recovers m(k1,k2) for every pair
  /// with max(k1,k2) >= 2; isolated (1,1)-edges are invisible to size-3
  /// subgraphs and are assumed absent (throws if inputs are inconsistent).
  JointDegreeDistribution project_to_2k() const;

  friend bool operator==(const ThreeKProfile& a, const ThreeKProfile& b) {
    return a.wedges_ == b.wedges_ && a.triangles_ == b.triangles_;
  }

 private:
  SparseHistogram wedges_;
  SparseHistogram triangles_;
};

}  // namespace orbis::dk
