// Large-graph scaling smoke (docs/scaling.md): on an n ≈ 200k synthetic
// graph, (a) the streaming extract pipeline's accumulator footprint must
// be independent of the edge count, and (b) the extract -> target
// pipeline must run 2K targeting through the sparse objective inside a
// memory budget the dense C^2 matrix would blow through — with the two
// backends still bit-identical on a down-scaled sibling.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/series.hpp"
#include "gen/checkpoint.hpp"
#include "gen/matching.hpp"
#include "gen/objective.hpp"
#include "gen/rewiring.hpp"
#include "graph/builders.hpp"
#include "graph/edge_index.hpp"
#include "io/chunked_edge_reader.hpp"
#include "io/edge_list.hpp"
#include "util/rng.hpp"

namespace orbis::gen {
namespace {

/// Star forest with hub degrees 1..max_hub_degree: C = max_hub_degree
/// classes but only the (1, d) bins occupied — the skewed regime the
/// sparse backend exists for (degree diversity >> occupied bins).
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
/// same 1K, JDD deviating in O(swaps) bins — a realistic targeting gap
/// whose objective stays sparse.
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

TEST(ScalingSmoke, SparseObjectiveTargetsInsideTheBudget) {
  // Hub degrees 1..630 give n ≈ 199k nodes and 631 degree classes: the
  // dense matrix prices at ~3.2 MiB, past a 2 MiB budget, while the
  // perturbed forest's deviating bins keep the sparse table well inside
  // it.
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
  ASSERT_GE(index.num_classes(), max_hub_degree);
  const std::size_t budget_mb = 2;
  ASSERT_GT(dense_jdd_objective_bytes(index.num_classes()),
            budget_mb << 20);
  ASSERT_EQ(resolve_objective_backend(ObjectiveBackend::automatic,
                                      index.num_classes(), budget_mb),
            ObjectiveBackend::sparse);
  // The sparse table itself honors the budget the dense matrix exceeds.
  SparseJddObjective sparse(index, target);
  EXPECT_LT(sparse.memory_bytes(), budget_mb << 20);

  TargetingOptions options;
  options.objective = ObjectiveBackend::automatic;  // resolves to sparse
  options.attempts = 400'000;
  svc::RunContext ctx;
  ctx.chains = 1;
  ctx.memory_budget_mb = budget_mb;
  const double initial =
      dk::distance_2k(dk::JointDegreeDistribution::from_graph(start),
                      target);
  util::Rng rng(33);
  RunCheckpoint state = make_2k_run(start, options, 0, rng, ctx);
  EXPECT_EQ(state.backend, ObjectiveBackend::sparse);
  const CheckpointedResult run =
      run_checkpointed_2k(state, target, options, {}, ctx);
  EXPECT_GT(run.total_stats.accepted, 0u);
  EXPECT_LT(run.best_distance, initial);
  // Degrees are frozen through the whole chain.
  EXPECT_TRUE(dk::DegreeDistribution::from_graph(run.graph) ==
              dk::DegreeDistribution::from_graph(start));
}

TEST(ScalingSmoke, BackendsBitIdenticalOnDownscaledSibling) {
  // The same forest shape at small scale, cheap enough to run twice:
  // forcing dense vs sparse must walk the identical chain.
  const Graph original = star_forest(100);
  const Graph start = perturbed(original, 2'000, 6);
  const auto target = dk::JointDegreeDistribution::from_graph(original);

  TargetingOptions options;
  options.attempts = 100'000;
  options.temperature = 1.0;

  options.objective = ObjectiveBackend::dense;
  util::Rng dense_rng(17);
  RewiringStats dense_stats;
  double dense_distance = 0.0;
  const Graph dense_result = target_2k(start, target, options, dense_rng,
                                       &dense_stats, &dense_distance);

  options.objective = ObjectiveBackend::sparse;
  util::Rng sparse_rng(17);
  RewiringStats sparse_stats;
  double sparse_distance = 0.0;
  const Graph sparse_result = target_2k(start, target, options, sparse_rng,
                                        &sparse_stats, &sparse_distance);

  EXPECT_EQ(dense_stats, sparse_stats);
  EXPECT_EQ(dense_distance, sparse_distance);
  EXPECT_TRUE(dense_result == sparse_result);
}

}  // namespace
}  // namespace orbis::gen
