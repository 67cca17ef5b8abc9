#include "gen/count_rewirings.hpp"

#include <gtest/gtest.h>

#include "core/joint_degree_distribution.hpp"
#include "core/three_k_profile.hpp"
#include "graph/builders.hpp"
#include "util/rng.hpp"

namespace orbis::gen {
namespace {

TEST(CountRewirings, ZeroKClosedForm) {
  const auto g = builders::path(4);  // n=4, m=3, pairs=6
  const auto counts = count_initial_rewirings(g, 0);
  EXPECT_EQ(counts.possible, 3u * (6u - 3u));
  EXPECT_EQ(counts.obviously_isomorphic, 0u);
}

TEST(CountRewirings, PathOf4HandEnumerated) {
  // P4 admits exactly one valid double-edge swap: {(0,1),(2,3)} ->
  // {(0,2),(1,3)}, which relabels to P4 again (leaf exchange) — so it is
  // counted as possible but obviously isomorphic, at every d.
  const auto g = builders::path(4);
  for (int d = 1; d <= 3; ++d) {
    const auto counts = count_initial_rewirings(g, d);
    EXPECT_EQ(counts.possible, 1u) << "d=" << d;
    EXPECT_EQ(counts.obviously_isomorphic, 1u) << "d=" << d;
    EXPECT_EQ(counts.non_isomorphic(), 0u) << "d=" << d;
  }
}

TEST(CountRewirings, Cycle4HasTwoDiagonalSwaps) {
  // C4: two opposite-edge pairs each admit one orientation that avoids
  // existing edges; the results are 4-cycles again but NOT flagged by the
  // leaf heuristic (no degree-1 nodes).
  const auto g = builders::cycle(4);
  const auto counts = count_initial_rewirings(g, 1);
  EXPECT_EQ(counts.possible, 2u);
  EXPECT_EQ(counts.obviously_isomorphic, 0u);
}

TEST(CountRewirings, CompleteGraphHasNone) {
  // Every candidate replacement edge already exists.
  const auto g = builders::complete(5);
  for (int d = 1; d <= 3; ++d) {
    EXPECT_EQ(count_initial_rewirings(g, d).possible, 0u) << "d=" << d;
  }
}

TEST(CountRewirings, HierarchyIsMonotone) {
  // (d+1)K-preserving rewirings are a subset of dK-preserving ones.
  util::Rng rng(3);
  const auto g = builders::gnm(25, 60, rng);
  const auto c1 = count_initial_rewirings(g, 1);
  const auto c2 = count_initial_rewirings(g, 2);
  const auto c3 = count_initial_rewirings(g, 3);
  EXPECT_GE(c1.possible, c2.possible);
  EXPECT_GE(c2.possible, c3.possible);
  EXPECT_GT(c1.possible, 0u);
}

TEST(CountRewirings, Level3CountsExactlyThe3KPreservingSwaps) {
  // Oracle: apply every candidate swap to a copy and compare its JDD and
  // 3K profile with the original's.
  util::Rng rng(5);
  const auto g = builders::gnm(16, 36, rng);
  const auto jdd = dk::JointDegreeDistribution::from_graph(g);
  const auto three_k = dk::ThreeKProfile::from_graph(g);
  std::uint64_t preserving = 0;
  for (std::size_t i = 0; i < g.num_edges(); ++i) {
    for (std::size_t j = i + 1; j < g.num_edges(); ++j) {
      for (const bool flip : {false, true}) {
        const Edge e1 = g.edge_at(i);
        const Edge e2 = g.edge_at(j);
        const NodeId a = e1.u, b = e1.v;
        const NodeId c = flip ? e2.v : e2.u, d = flip ? e2.u : e2.v;
        if (a == c || a == d || b == c || b == d) continue;
        if (g.has_edge(a, d) || g.has_edge(c, b)) continue;
        Graph swapped = g;
        swapped.remove_edge(a, b);
        swapped.remove_edge(c, d);
        swapped.add_edge(a, d);
        swapped.add_edge(c, b);
        if (dk::JointDegreeDistribution::from_graph(swapped) == jdd &&
            dk::ThreeKProfile::from_graph(swapped) == three_k) {
          ++preserving;
        }
      }
    }
  }
  EXPECT_GT(preserving, 0u);
  EXPECT_LT(preserving, count_initial_rewirings(g, 2).possible);
  EXPECT_EQ(count_initial_rewirings(g, 3).possible, preserving);
}

TEST(CountRewirings, StarLeafExchangesAllIsomorphic) {
  // In a star every valid swap would need two leaf edges, but any two
  // edges share the center, so no swap is possible at all.
  const auto counts = count_initial_rewirings(builders::star(6), 1);
  EXPECT_EQ(counts.possible, 0u);
}

TEST(CountRewirings, DoubleStarLeafSwapsDiscounted) {
  // Two stars joined by a bridge: leaf-leaf edge pair swaps exchange
  // leaves between hubs — possible but obviously isomorphic only when
  // the exchanged endpoints are the two leaves.
  Graph g(8);
  g.add_edge(0, 1);  // bridge between hubs 0 and 1
  for (NodeId v = 2; v < 5; ++v) g.add_edge(0, v);
  for (NodeId v = 5; v < 8; ++v) g.add_edge(1, v);
  const auto counts = count_initial_rewirings(g, 1);
  EXPECT_GT(counts.possible, 0u);
  EXPECT_GT(counts.obviously_isomorphic, 0u);
  EXPECT_LE(counts.obviously_isomorphic, counts.possible);
}

TEST(CountRewirings, BadLevelThrows) {
  EXPECT_THROW(count_initial_rewirings(Graph(3), 4), std::invalid_argument);
  util::Rng rng(1);
  EXPECT_THROW(estimate_initial_rewirings(Graph(3), -1, 10, rng),
               std::invalid_argument);
  EXPECT_THROW(estimate_initial_rewirings(Graph(3), 1, 0, rng),
               std::invalid_argument);
}

TEST(EstimateRewirings, ConvergesToExactCount) {
  util::Rng source(7);
  const auto g = builders::gnm(30, 80, source);
  for (int d = 1; d <= 2; ++d) {
    const auto exact = count_initial_rewirings(g, d);
    util::Rng rng(11);
    const auto estimate = estimate_initial_rewirings(g, d, 200000, rng);
    const double relative_error =
        std::abs(static_cast<double>(estimate.possible) -
                 static_cast<double>(exact.possible)) /
        static_cast<double>(exact.possible);
    EXPECT_LT(relative_error, 0.05) << "d=" << d;
  }
}

TEST(EstimateRewirings, TinyGraphReturnsZero) {
  util::Rng rng(1);
  Graph g(3);
  g.add_edge(0, 1);
  const auto estimate = estimate_initial_rewirings(g, 1, 100, rng);
  EXPECT_EQ(estimate.possible, 0u);
}

}  // namespace
}  // namespace orbis::gen
