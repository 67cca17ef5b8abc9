// Large-graph scaling smoke (docs/scaling.md): on an n ≈ 200k synthetic
// graph, (a) the streaming extract pipeline's accumulator footprint must
// be independent of the edge count, and (b) the extract -> target
// pipeline must run 2K targeting on a graph with hundreds of degree
// classes, lowering D2 with every degree frozen.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/series.hpp"
#include "gen/checkpoint.hpp"
#include "gen/matching.hpp"
#include "gen/rewiring.hpp"
#include "graph/builders.hpp"
#include "graph/edge_index.hpp"
#include "io/chunked_edge_reader.hpp"
#include "io/edge_list.hpp"
#include "util/rng.hpp"

namespace orbis::gen {
namespace {

/// Star forest with hub degrees 1..max_hub_degree: C = max_hub_degree
/// classes but only the (1, d) bins occupied (degree diversity >>
/// occupied bins).
Graph star_forest(std::uint32_t max_hub_degree) {
  std::vector<Edge> edges;
  NodeId next = 0;
  for (std::uint32_t d = 1; d <= max_hub_degree; ++d) {
    const NodeId hub = next++;
    for (std::uint32_t leaf = 0; leaf < d; ++leaf) {
      edges.push_back(Edge{hub, next++});
    }
  }
  return Graph::from_edges(next, edges);
}

/// The forest with a bounded number of degree-preserving swaps applied:
/// same 1K, JDD deviating in O(swaps) bins — a realistic targeting gap.
Graph perturbed(const Graph& g, std::size_t attempts, std::uint64_t seed) {
  RandomizeOptions options;
  options.d = 1;
  options.attempts = attempts;
  util::Rng rng(seed);
  return randomize(g, options, rng);
}

TEST(ScalingSmoke, StreamingFootprintIndependentOfEdgeCount) {
  // Same 200k-node set, 3x the edges: trusted-simple level-2 streaming
  // holds the id map, the degree array and the JDD bins — none of which
  // scale with m — so the accumulator footprint must stay flat while
  // the file grows 3x.
  const NodeId n = 200'000;
  const auto footprint_of = [&](std::size_t m, std::uint64_t seed) {
    util::Rng rng(seed);
    const Graph g = builders::gnm(n, m, rng);
    const std::string path = testing::TempDir() + "orbis_scaling_rss.edges";
    io::write_edge_list_file(path, g);
    io::StreamingExtractOptions options;
    options.extractor.assume_simple = true;
    const auto streamed = io::extract_dk_streaming(path, 2, options);
    std::remove(path.c_str());
    EXPECT_EQ(streamed.distributions.num_nodes, n);
    EXPECT_EQ(streamed.distributions.num_edges, m);
    return streamed.peak_accumulator_bytes;
  };

  const std::size_t small = footprint_of(300'000, 1);
  const std::size_t large = footprint_of(900'000, 2);
  EXPECT_LT(large, small + small / 2);
}

TEST(ScalingSmoke, StreamingMatchesInMemoryAtScale) {
  const NodeId n = 200'000;
  util::Rng rng(7);
  const Graph g = builders::gnm(n, 600'000, rng);
  const std::string path = testing::TempDir() + "orbis_scaling_eq.edges";
  io::write_edge_list_file(path, g);
  const auto streamed = io::extract_dk_streaming(path, 2);
  std::remove(path.c_str());
  const auto expected = dk::extract(g, 2);
  EXPECT_EQ(streamed.distributions.num_nodes, expected.num_nodes);
  EXPECT_TRUE(streamed.distributions.degree == expected.degree);
  EXPECT_TRUE(streamed.distributions.joint == expected.joint);
}

TEST(ScalingSmoke, StarForestTargetsThroughCheckpointedLegs) {
  // Hub degrees 1..630 give n ≈ 199k nodes and 630 degree classes.  C
  // distinct degrees sum to at most 2m, so C < 2√m + 1 and the ΔD2
  // objective (4.125·C² bytes) stays under 16.5·m + O(√m) bytes.
  const std::uint32_t max_hub_degree = 630;
  const Graph original = star_forest(max_hub_degree);
  ASSERT_GE(original.num_nodes(), 198'000u);
  const Graph start = perturbed(original, 4'000, 22);

  // extract -> target: the target JDD comes off the streaming pipeline,
  // exactly as a file-based workflow would produce it.
  const std::string path = testing::TempDir() + "orbis_scaling_target.edges";
  io::write_edge_list_file(path, original);
  io::StreamingExtractOptions stream_options;
  stream_options.extractor.assume_simple = true;
  auto streamed = io::extract_dk_streaming(path, 2, stream_options);
  std::remove(path.c_str());
  const dk::JointDegreeDistribution& target = streamed.distributions.joint;

  const EdgeIndex index(start);
  ASSERT_EQ(index.num_classes(), max_hub_degree);
  const double m = static_cast<double>(start.num_edges());
  EXPECT_LT(index.num_classes(), 2.0 * std::sqrt(m) + 1.0);

  TargetingOptions options;
  options.attempts = 400'000;
  svc::RunContext ctx;
  ctx.chains = 1;
  const double initial =
      dk::distance_2k(dk::JointDegreeDistribution::from_graph(start),
                      target);
  ASSERT_GT(initial, 0.0);
  util::Rng rng(33);
  RunCheckpoint state = make_2k_run(start, options, 0, rng, ctx);
  const CheckpointedResult run =
      run_checkpointed_2k(state, target, options, {}, ctx);
  EXPECT_GT(run.total_stats.accepted, 0u);
  EXPECT_LT(run.best_distance, initial);
  // Degrees are frozen through the whole chain.
  EXPECT_TRUE(dk::DegreeDistribution::from_graph(run.graph) ==
              dk::DegreeDistribution::from_graph(start));
}

}  // namespace
}  // namespace orbis::gen
