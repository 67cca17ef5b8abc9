#include "metrics/distance.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/degree_distribution.hpp"
#include "gen/matching.hpp"
#include "graph/algorithms.hpp"
#include "graph/builders.hpp"
#include "topo/as_level.hpp"

namespace orbis::metrics {
namespace {

// The per-source reference: one bfs_distances sweep per source.
DistanceDistribution per_source_oracle(const Graph& g,
                                       std::span<const NodeId> sources) {
  DistanceDistribution dist;
  dist.num_nodes = g.num_nodes();
  for (const NodeId s : sources) {
    for (const auto d : bfs_distances(g, s)) {
      if (d < 0) {
        ++dist.unreachable_pairs;
        continue;
      }
      const auto x = static_cast<std::size_t>(d);
      if (x >= dist.counts.size()) dist.counts.resize(x + 1, 0);
      ++dist.counts[x];
    }
  }
  return dist;
}

std::vector<NodeId> all_nodes(const Graph& g) {
  std::vector<NodeId> nodes(g.num_nodes());
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  return nodes;
}

TEST(DistanceDistribution, MatchesPerSourceOracle) {
  std::vector<std::pair<std::string, Graph>> cases;
  // Batches hold 64 sources: cover a lone partial batch, one exact
  // batch, and a full batch followed by a partial one.
  util::Rng rng(17);
  for (const NodeId n : {1u, 2u, 63u, 64u, 65u, 129u}) {
    const std::size_t m = std::min<std::size_t>(2 * n, n * (n - 1) / 2);
    cases.emplace_back("gnm" + std::to_string(n), builders::gnm(n, m, rng));
  }
  cases.emplace_back("path300", builders::path(300));
  cases.emplace_back("cycle101", builders::cycle(101));
  cases.emplace_back("star70", builders::star(70));
  cases.emplace_back("grid12x20", builders::grid(12, 20));
  // Isolated nodes and several components of different diameters.
  Graph pieces(140);
  for (NodeId v = 0; v + 1 < 40; ++v) pieces.add_edge(v, v + 1);
  for (NodeId v = 50; v < 80; ++v) pieces.add_edge(v, 80 + (v % 7));
  pieces.add_edge(100, 101);
  pieces.add_edge(101, 102);
  pieces.add_edge(102, 100);
  cases.emplace_back("pieces", std::move(pieces));
  // Power-law degrees with hubs, wired by the 1K matching.
  topo::AsLevelOptions options;
  options.num_nodes = 600;
  options.gamma = 2.1;
  options.max_degree_cap = 120;
  util::Rng hub_rng(23);
  cases.emplace_back(
      "hubs", gen::matching_1k(dk::DegreeDistribution::from_sequence(
                                   topo::power_law_degree_sequence(options)),
                               hub_rng));

  for (const auto& [name, g] : cases) {
    SCOPED_TRACE(name);
    const auto got = distance_distribution(g);
    const auto want = per_source_oracle(g, all_nodes(g));
    EXPECT_EQ(got.num_nodes, want.num_nodes);
    EXPECT_EQ(got.counts, want.counts);
    EXPECT_EQ(got.unreachable_pairs, want.unreachable_pairs);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.mean()),
              std::bit_cast<std::uint64_t>(want.mean()));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.stddev()),
              std::bit_cast<std::uint64_t>(want.stddev()));
  }
}

TEST(DistanceDistribution, CompleteGraph) {
  const auto dist = distance_distribution(builders::complete(4));
  ASSERT_EQ(dist.counts.size(), 2u);
  EXPECT_EQ(dist.counts[0], 4u);    // self-pairs
  EXPECT_EQ(dist.counts[1], 12u);   // ordered pairs
  EXPECT_DOUBLE_EQ(dist.mean(), 1.0);
  EXPECT_DOUBLE_EQ(dist.stddev(), 0.0);
  EXPECT_EQ(dist.diameter(), 1u);
}

TEST(DistanceDistribution, PathOf3HandComputed) {
  const auto dist = distance_distribution(builders::path(3));
  ASSERT_EQ(dist.counts.size(), 3u);
  EXPECT_EQ(dist.counts[0], 3u);
  EXPECT_EQ(dist.counts[1], 4u);
  EXPECT_EQ(dist.counts[2], 2u);
  EXPECT_NEAR(dist.mean(), 8.0 / 6.0, 1e-12);
  EXPECT_EQ(dist.diameter(), 2u);
}

TEST(DistanceDistribution, PaperPdfNormalization) {
  // d(x) = counts/n^2 including self-pairs (paper §2): sums to 1 for a
  // connected graph.
  const auto dist = distance_distribution(builders::cycle(7));
  const auto pdf = dist.pdf();
  const double total = std::accumulate(pdf.begin(), pdf.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_NEAR(pdf[0], 1.0 / 7.0, 1e-12);
}

TEST(DistanceDistribution, StarMean) {
  // Star n=5: ordered pairs — 8 at distance 1, 12 at distance 2.
  const auto dist = distance_distribution(builders::star(5));
  EXPECT_EQ(dist.counts[1], 8u);
  EXPECT_EQ(dist.counts[2], 12u);
  EXPECT_NEAR(dist.mean(), (8.0 + 24.0) / 20.0, 1e-12);
}

TEST(DistanceDistribution, CycleEvenDiameter) {
  const auto dist = distance_distribution(builders::cycle(8));
  EXPECT_EQ(dist.diameter(), 4u);
  // Each node: 2 at distances 1..3, 1 at distance 4.
  EXPECT_EQ(dist.counts[1], 16u);
  EXPECT_EQ(dist.counts[4], 8u);
}

TEST(DistanceDistribution, DisconnectedCountsUnreachable) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const auto dist = distance_distribution(g);
  EXPECT_EQ(dist.unreachable_pairs, 8u);  // each node misses 2 others
  EXPECT_DOUBLE_EQ(dist.mean(), 1.0);     // only the 4 adjacent pairs
}

TEST(DistanceDistribution, EmptyGraph) {
  const auto dist = distance_distribution(Graph(0));
  EXPECT_TRUE(dist.counts.empty());
  EXPECT_DOUBLE_EQ(dist.mean(), 0.0);
  EXPECT_DOUBLE_EQ(dist.stddev(), 0.0);
}

TEST(DistanceDistribution, StddevHandComputed) {
  // Path of 3 (pairs >= 1): four at 1, two at 2.
  // mean = 4/3; E[x^2] = (4 + 8)/6 = 2; var = 2 - 16/9 = 2/9.
  const auto dist = distance_distribution(builders::path(3));
  EXPECT_NEAR(dist.stddev(), std::sqrt(2.0 / 9.0), 1e-12);
}

TEST(DistanceDistribution, SampledConvergesToExact) {
  util::Rng rng(5);
  const auto g = builders::grid(8, 8);
  const auto exact = distance_distribution(g);
  util::Rng sample_rng(7);
  const auto sampled = sampled_distance_distribution(g, 32, sample_rng);
  EXPECT_NEAR(sampled.mean(), exact.mean(), 0.25);
  // num_sources >= n short-circuits to the exact computation.
  util::Rng rng2(9);
  const auto full = sampled_distance_distribution(g, 64, rng2);
  EXPECT_EQ(full.counts, exact.counts);
}

TEST(DistanceDistribution, SampledRescalesUnreachablePairsWithCounts) {
  // Two paths, a triangle and isolated nodes: many unreachable pairs.
  Graph g(150);
  for (NodeId v = 0; v + 1 < 60; ++v) g.add_edge(v, v + 1);
  for (NodeId v = 60; v + 1 < 120; ++v) g.add_edge(v, v + 1);
  g.add_edge(120, 121);
  g.add_edge(121, 122);
  g.add_edge(122, 120);
  const std::size_t k = 70;  // one full batch and one partial

  util::Rng rng(31);
  const auto sampled = sampled_distance_distribution(g, k, rng);

  // The same draw, run through the per-source oracle and rescaled.
  util::Rng draw(31);
  auto sources = all_nodes(g);
  draw.shuffle(sources);
  sources.resize(k);
  auto want = per_source_oracle(g, sources);
  const double scale = 150.0 / static_cast<double>(k);
  const auto rescale = [scale](std::uint64_t c) {
    return static_cast<std::uint64_t>(
        std::llround(static_cast<double>(c) * scale));
  };
  for (auto& c : want.counts) c = rescale(c);
  EXPECT_EQ(sampled.counts, want.counts);
  EXPECT_EQ(sampled.unreachable_pairs, rescale(want.unreachable_pairs));
  EXPECT_GT(sampled.unreachable_pairs, 0u);

  // Counts and unreachable pairs together cover the n^2 ordered pairs,
  // up to half a pair of rounding per bin.
  const std::uint64_t total =
      std::accumulate(sampled.counts.begin(), sampled.counts.end(),
                      sampled.unreachable_pairs);
  const double bins = static_cast<double>(sampled.counts.size() + 1);
  EXPECT_LE(std::fabs(static_cast<double>(total) - 150.0 * 150.0),
            0.5 * bins);
}

TEST(DistanceDistribution, AverageDistanceWrapper) {
  EXPECT_DOUBLE_EQ(average_distance(builders::complete(5)), 1.0);
}

}  // namespace
}  // namespace orbis::metrics
