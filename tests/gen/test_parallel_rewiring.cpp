// Tests for the optimistic intra-chain batching of the 3K paths
// (ThreeKRewirer::randomize_parallel / target_parallel): the parallel
// protocol must preserve the serial chain's invariants exactly, and its
// results must be a pure function of (seed, batch) — independent of the
// worker count, the pool size and thread scheduling.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/series.hpp"
#include "exec/thread_pool.hpp"
#include "gen/matching.hpp"
#include "gen/rewiring.hpp"
#include "gen/rewiring_engine.hpp"
#include "graph/builders.hpp"

namespace orbis::gen {
namespace {

Graph test_graph(std::uint64_t seed, NodeId n = 60, std::size_t m = 150) {
  util::Rng rng(seed);
  return builders::gnm(n, m, rng);
}

/// A hub graph: node 0 adjacent to many distinct-degree spokes, plus a
/// random background — one hub swap overflows the journal's inline
/// coalesce limit, exercising the sort-merge path under batching.
Graph hub_graph() {
  util::Rng rng(97);
  Graph background = builders::gnm(120, 260, rng);
  Graph g(background.num_nodes());
  g.reserve_edges(background.num_edges() + 60);
  for (const auto& e : background.edges()) g.add_edge(e.u, e.v);
  for (NodeId v = 1; v <= 60; ++v) {
    if (!g.has_edge(0, v)) g.add_edge(0, v);
  }
  return g;
}

struct ParallelRun {
  Graph graph;
  RewiringStats stats;
  std::int64_t distance = 0;
};

ParallelRun run_randomize(const Graph& g, std::uint64_t seed,
                          std::size_t pool_threads, std::size_t workers,
                          std::size_t batch, std::size_t budget = 4000) {
  exec::ThreadPool pool(pool_threads);
  ThreeKRewirer rewirer(g);
  util::Rng rng(seed);
  RandomizeOptions options;
  options.batch = batch;
  ParallelRun run;
  rewirer.randomize_parallel(options, budget, rng, pool, &run.stats,
                             {.workers = workers});
  run.graph = rewirer.graph();
  return run;
}

ParallelRun run_target(const Graph& start, const dk::ThreeKProfile& target,
                       std::uint64_t seed, std::size_t pool_threads,
                       std::size_t workers, std::size_t batch,
                       double temperature = 0.0, std::size_t budget = 6000) {
  exec::ThreadPool pool(pool_threads);
  ThreeKRewirer rewirer(start);
  util::Rng rng(seed);
  TargetingOptions options;
  options.temperature = temperature;
  options.batch = batch;
  ParallelRun run;
  run.distance = rewirer.target_parallel(target, options, budget, rng, pool,
                                         &run.stats, {.workers = workers});
  run.graph = rewirer.graph();
  return run;
}

void expect_stats_partition(const RewiringStats& stats) {
  EXPECT_EQ(stats.attempts, stats.accepted + stats.rejected_structural +
                                stats.rejected_constraint +
                                stats.rejected_objective);
}

void expect_identical(const ParallelRun& a, const ParallelRun& b) {
  EXPECT_EQ(a.graph.edges(), b.graph.edges());
  EXPECT_EQ(a.distance, b.distance);
  EXPECT_EQ(a.stats.attempts, b.stats.attempts);
  EXPECT_EQ(a.stats.accepted, b.stats.accepted);
  EXPECT_EQ(a.stats.rejected_structural, b.stats.rejected_structural);
  EXPECT_EQ(a.stats.rejected_constraint, b.stats.rejected_constraint);
  EXPECT_EQ(a.stats.rejected_objective, b.stats.rejected_objective);
  EXPECT_EQ(a.stats.conflict_reevaluations, b.stats.conflict_reevaluations);
}

TEST(ParallelRandomize3K, Preserves3KExactly) {
  const auto g = test_graph(301);
  const auto original = dk::ThreeKProfile::from_graph(g);
  const auto run = run_randomize(g, 302, /*pool=*/2, /*workers=*/2,
                                 /*batch=*/64);
  EXPECT_GT(run.stats.accepted, 0u);
  expect_stats_partition(run.stats);
  EXPECT_EQ(dk::ThreeKProfile::from_graph(run.graph), original);
  EXPECT_EQ(run.graph.degree_sequence(), g.degree_sequence());
}

TEST(ParallelRandomize3K, FixedSeedReproducesBitIdenticalRuns) {
  const auto g = test_graph(303);
  const auto a = run_randomize(g, 304, 2, 2, 64);
  const auto b = run_randomize(g, 304, 2, 2, 64);
  expect_identical(a, b);
  EXPECT_EQ(dk::ThreeKProfile::from_graph(a.graph),
            dk::ThreeKProfile::from_graph(b.graph));
}

TEST(ParallelRandomize3K, ResultIndependentOfWorkerAndPoolCount) {
  // The protocol promises bit-identical chains for a fixed (seed, batch)
  // at ANY thread count: 1 worker on a 1-thread pool vs 4 workers on a
  // 4-thread pool must not differ anywhere, including the stats.
  const auto g = test_graph(305);
  const auto serial = run_randomize(g, 306, 1, 1, 64);
  const auto parallel = run_randomize(g, 306, 4, 4, 64);
  const auto lopsided = run_randomize(g, 306, 2, 7, 64);
  expect_identical(serial, parallel);
  expect_identical(serial, lopsided);
  EXPECT_GT(serial.stats.accepted, 0u);
}

TEST(ParallelRandomize3K, BatchOfOneMatchesSerialEngine) {
  // With batch = 1 the protocol degenerates to draw/evaluate/commit per
  // round — the same decision sequence AND the same Rng consumption as
  // the serial engine, so the chains must be bit-for-bit identical.
  const auto g = test_graph(307);

  ThreeKRewirer serial(g);
  util::Rng serial_rng(308);
  RewiringStats serial_stats;
  serial.randomize(3000, serial_rng, &serial_stats);

  const auto parallel = run_randomize(g, 308, 2, 2, /*batch=*/1,
                                      /*budget=*/3000);
  EXPECT_EQ(serial.graph().edges(), parallel.graph.edges());
  EXPECT_EQ(serial_stats.accepted, parallel.stats.accepted);
  EXPECT_EQ(serial_stats.attempts, parallel.stats.attempts);
  EXPECT_EQ(serial_stats.rejected_constraint,
            parallel.stats.rejected_constraint);
  EXPECT_EQ(parallel.stats.conflict_reevaluations, 0u);
}

TEST(ParallelRandomize3K, HubGraphSurvivesJournalOverflowUnderBatching) {
  const auto g = hub_graph();
  const auto original = dk::ThreeKProfile::from_graph(g);
  const auto a = run_randomize(g, 309, 2, 3, 32, 6000);
  const auto b = run_randomize(g, 309, 3, 3, 32, 6000);
  expect_identical(a, b);
  EXPECT_EQ(dk::ThreeKProfile::from_graph(a.graph), original);
}

TEST(ParallelTarget3K, ConvergesTowardTargetAndPreservesJdd) {
  const auto original = test_graph(311);
  const auto dists = dk::extract(original, 3);
  util::Rng seed_rng(312);
  const auto start = matching_2k(dists.joint, seed_rng);

  const std::int64_t initial = static_cast<std::int64_t>(dk::distance_3k(
      dk::ThreeKProfile::from_graph(start), dists.three_k));
  const auto run =
      run_target(start, dists.three_k, 313, 2, 2, 64);
  expect_stats_partition(run.stats);
  // 2K must be preserved swap-for-swap; D3 must not move away from the
  // target and must match a recount of the returned graph.
  EXPECT_EQ(dk::JointDegreeDistribution::from_graph(run.graph), dists.joint);
  EXPECT_LE(run.distance, initial);
  EXPECT_NEAR(static_cast<double>(run.distance),
              dk::distance_3k(dk::ThreeKProfile::from_graph(run.graph),
                              dists.three_k),
              1e-9);
}

TEST(ParallelTarget3K, GreedyResultIndependentOfWorkerAndPoolCount) {
  const auto original = test_graph(315);
  const auto dists = dk::extract(original, 3);
  util::Rng seed_rng(316);
  const auto start = matching_2k(dists.joint, seed_rng);

  const auto serial = run_target(start, dists.three_k, 317, 1, 1, 48);
  const auto parallel = run_target(start, dists.three_k, 317, 4, 4, 48);
  expect_identical(serial, parallel);
}

TEST(ParallelTarget3K, AnnealedResultIndependentOfWorkerAndPoolCount) {
  // Temperature > 0 engages the pre-drawn acceptance uniforms; the
  // uphill/downhill decisions must still be scheduling-independent.
  const auto original = test_graph(319);
  const auto dists = dk::extract(original, 3);
  util::Rng seed_rng(320);
  const auto start = matching_2k(dists.joint, seed_rng);

  const auto serial =
      run_target(start, dists.three_k, 321, 1, 1, 48, /*temperature=*/2.0);
  const auto parallel =
      run_target(start, dists.three_k, 321, 3, 5, 48, /*temperature=*/2.0);
  expect_identical(serial, parallel);
  EXPECT_EQ(dk::JointDegreeDistribution::from_graph(serial.graph),
            dists.joint);
}

TEST(ParallelTarget3K, GreedyBatchOfOneMatchesSerialEngine) {
  // T = 0 draws no acceptance uniforms, so batch = 1 consumes the Rng
  // exactly like ThreeKRewirer::target and must reproduce it bit-for-bit.
  const auto original = test_graph(323);
  const auto dists = dk::extract(original, 3);
  util::Rng seed_rng(324);
  const auto start = matching_2k(dists.joint, seed_rng);

  ThreeKRewirer serial(start);
  util::Rng serial_rng(325);
  TargetingOptions options;
  RewiringStats serial_stats;
  const std::int64_t serial_distance =
      serial.target(dists.three_k, options, 4000, serial_rng, &serial_stats);

  const auto parallel =
      run_target(start, dists.three_k, 325, 2, 2, /*batch=*/1,
                 /*temperature=*/0.0, /*budget=*/4000);
  EXPECT_EQ(serial.graph().edges(), parallel.graph.edges());
  EXPECT_EQ(serial_distance, parallel.distance);
  EXPECT_EQ(serial_stats.accepted, parallel.stats.accepted);
  EXPECT_EQ(serial_stats.attempts, parallel.stats.attempts);
}

TEST(ParallelRandomize3K, PropertySweepPreserves3KAcrossSeedsAndShapes) {
  // Property-style preservation sweep: several seeds and graph shapes,
  // each randomized under batching with conflicts all but guaranteed
  // (small graphs, large batches), must keep the 3K profile bit-exact.
  const std::vector<Graph> graphs = {test_graph(331, 40, 90),
                                     test_graph(333, 80, 200), hub_graph()};
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    const auto original = dk::ThreeKProfile::from_graph(graphs[gi]);
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      const auto run = run_randomize(graphs[gi], seed, 2, 4, 128, 3000);
      expect_stats_partition(run.stats);
      EXPECT_EQ(dk::ThreeKProfile::from_graph(run.graph), original)
          << "graph " << gi << " seed " << seed;
    }
  }
}

TEST(RandomizeFacade, WorkersOptionRoutesToParallelPath) {
  // The public gen::randomize entry point engages the shared pool when
  // workers != 1 and must preserve 3K exactly like the serial route.
  const auto g = test_graph(341);
  const auto original = dk::ThreeKProfile::from_graph(g);
  RandomizeOptions options;
  options.d = 3;
  options.workers = 0;  // all cores
  options.attempts = 3000;
  util::Rng rng(342);
  RewiringStats stats;
  const auto randomized = randomize(g, options, rng, &stats);
  EXPECT_EQ(dk::ThreeKProfile::from_graph(randomized), original);
  EXPECT_GT(stats.accepted, 0u);
  expect_stats_partition(stats);
}

TEST(TargetFacade, WorkersOptionRoutesToParallelPath) {
  const auto original = test_graph(343);
  const auto dists = dk::extract(original, 3);
  util::Rng seed_rng(344);
  const auto start = matching_2k(dists.joint, seed_rng);
  TargetingOptions options;
  options.workers = 2;
  options.attempts = 3000;
  util::Rng rng(345);
  double distance = -1.0;
  const auto result = target_3k(start, dists.three_k, options, rng, nullptr,
                                &distance);
  EXPECT_EQ(dk::JointDegreeDistribution::from_graph(result), dists.joint);
  EXPECT_NEAR(distance,
              dk::distance_3k(dk::ThreeKProfile::from_graph(result),
                              dists.three_k),
              1e-9);
}

}  // namespace
}  // namespace orbis::gen
