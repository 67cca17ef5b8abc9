#include "gen/rewiring.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <ios>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "core/series.hpp"
#include "gen/checkpoint.hpp"
#include "gen/matching.hpp"
#include "gen/rewiring_engine.hpp"
#include "graph/builders.hpp"
#include "metrics/clustering.hpp"
#include "metrics/scalar.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "topo/as_level.hpp"
#include "util/stop_token.hpp"

namespace orbis::gen {
namespace {

Graph test_graph(std::uint64_t seed, NodeId n = 60, std::size_t m = 150) {
  util::Rng rng(seed);
  return builders::gnm(n, m, rng);
}

TEST(Randomize, Level0PreservesOnlySize) {
  const auto g = test_graph(1);
  util::Rng rng(2);
  RandomizeOptions options;
  options.d = 0;
  RewiringStats stats;
  const auto randomized = randomize(g, options, rng, &stats);
  EXPECT_EQ(randomized.num_nodes(), g.num_nodes());
  EXPECT_EQ(randomized.num_edges(), g.num_edges());
  EXPECT_GT(stats.accepted, 0u);
  EXPECT_FALSE(randomized == g);
}

TEST(Randomize, Level1PreservesDegreeSequence) {
  const auto g = test_graph(3);
  util::Rng rng(4);
  RandomizeOptions options;
  options.d = 1;
  const auto randomized = randomize(g, options, rng);
  EXPECT_EQ(randomized.degree_sequence(), g.degree_sequence());
  EXPECT_FALSE(randomized == g);
}

TEST(Randomize, Level2PreservesJddExactly) {
  const auto g = test_graph(5);
  const auto target = dk::JointDegreeDistribution::from_graph(g);
  util::Rng rng(6);
  RandomizeOptions options;
  options.d = 2;
  RewiringStats stats;
  const auto randomized = randomize(g, options, rng, &stats);
  EXPECT_EQ(dk::JointDegreeDistribution::from_graph(randomized), target);
  EXPECT_GT(stats.accepted, 0u);
  // S is a function of the JDD: must be bit-identical up to FP noise.
  EXPECT_NEAR(metrics::likelihood_s(randomized), metrics::likelihood_s(g),
              1e-6);
}

TEST(Randomize, Level3Preserves3KExactly) {
  const auto g = test_graph(7, 40, 100);
  const auto target = dk::ThreeKProfile::from_graph(g);
  util::Rng rng(8);
  RandomizeOptions options;
  options.d = 3;
  options.attempts_per_edge = 30;
  RewiringStats stats;
  const auto randomized = randomize(g, options, rng, &stats);
  EXPECT_EQ(dk::ThreeKProfile::from_graph(randomized), target);
  EXPECT_EQ(dk::JointDegreeDistribution::from_graph(randomized),
            dk::JointDegreeDistribution::from_graph(g));
  // Clustering is a function of P3.
  EXPECT_NEAR(metrics::mean_clustering(randomized),
              metrics::mean_clustering(g), 1e-9);
}

TEST(Randomize, InclusionHierarchyOfAcceptance) {
  // (d+1)K-rewirings are a subset of dK-rewirings: with equal budgets the
  // acceptance rate must not increase with d.
  const auto g = test_graph(9);
  std::vector<double> acceptance;
  for (int d = 1; d <= 3; ++d) {
    util::Rng rng(10);
    RandomizeOptions options;
    options.d = d;
    options.attempts = 4000;
    RewiringStats stats;
    randomize(g, options, rng, &stats);
    acceptance.push_back(stats.acceptance_rate());
  }
  EXPECT_GE(acceptance[0], acceptance[1]);
  EXPECT_GE(acceptance[1], acceptance[2]);
}

TEST(Randomize, BadLevelThrows) {
  util::Rng rng(1);
  EXPECT_THROW(randomize(Graph(3), RandomizeOptions{.d = 4}, rng),
               std::invalid_argument);
  EXPECT_THROW(randomize(Graph(3), RandomizeOptions{.d = -1}, rng),
               std::invalid_argument);
}

TEST(AttemptBudget, WrappingProductThrowsBeforeAnyAttempt) {
  constexpr std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t wrap = std::uint64_t{1} << 58;  // x 64 = 2^64
  EXPECT_EQ(attempt_budget(0, 10, 64), 640u);
  EXPECT_EQ(attempt_budget(7, max, 64), 7u);  // an explicit budget wins
  EXPECT_EQ(attempt_budget(0, max, 1), max);
  EXPECT_EQ(attempt_budget(0, max, 0), 0u);
  EXPECT_EQ(attempt_budget(0, wrap - 1, 64), max - 63);
  EXPECT_THROW(attempt_budget(0, wrap, 64), std::invalid_argument);
  EXPECT_THROW(attempt_budget(0, max, 2), std::invalid_argument);

  // 2^58 per edge on 64 edges would wrap to a zero budget: a chain that
  // silently returns its input.  Every entry point must refuse it.
  const auto g = test_graph(5, 40, 64);
  obs::Counter& attempts = obs::Registry::global().counter("rewire.attempts");
  const std::uint64_t before = attempts.value();
  util::Rng rng(1);
  for (const int d : {0, 1, 2, 3}) {
    RandomizeOptions options;
    options.d = d;
    options.attempts_per_edge = wrap;
    EXPECT_THROW(randomize(g, options, rng), std::invalid_argument)
        << "d=" << d;
  }
  TargetingOptions targeting;
  targeting.attempts_per_edge = wrap;
  const auto target = dk::extract(g, 3);
  EXPECT_THROW(target_2k(g, target.joint, targeting, rng),
               std::invalid_argument);
  EXPECT_THROW(target_3k(g, target.three_k, targeting, rng),
               std::invalid_argument);
  EXPECT_THROW(make_2k_run(g, targeting, 0, rng, {}), std::invalid_argument);
  ExploreOptions explore_options;
  explore_options.attempts_per_edge = wrap;
  EXPECT_THROW(explore(g, ExploreObjective::maximize_s, explore_options, rng),
               std::invalid_argument);
  EXPECT_EQ(attempts.value(), before);
}

TEST(Randomize, TinyGraphsAreNoops) {
  util::Rng rng(1);
  const auto g = builders::path(2);
  const auto randomized = randomize(g, RandomizeOptions{.d = 1}, rng);
  EXPECT_TRUE(randomized == g);
}

TEST(Target2K, ReachesTargetJddOnSmallGraphs) {
  const auto original = test_graph(11, 40, 90);
  const auto target = dk::JointDegreeDistribution::from_graph(original);
  // Bootstrap: exact same 1K, random wiring.
  util::Rng rng(12);
  const auto start =
      matching_1k(dk::DegreeDistribution::from_graph(original), rng);

  TargetingOptions options;
  options.attempts_per_edge = 2000;
  RewiringStats stats;
  double final_distance = -1.0;
  const auto result =
      target_2k(start, target, options, rng, &stats, &final_distance);
  // 1K preserved (as a multiset — node ids are not aligned with the
  // original's).
  auto realized = result.degree_sequence();
  std::sort(realized.begin(), realized.end());
  auto expected = original.degree_sequence();
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(realized, expected);
  // Metropolis descent with plateau moves reaches the exact JDD on
  // graphs this small.
  EXPECT_DOUBLE_EQ(final_distance, 0.0);
  EXPECT_EQ(dk::JointDegreeDistribution::from_graph(result), target);
}

TEST(Target2K, DistanceNeverIncreasesAtZeroTemperature) {
  const auto original = test_graph(13, 30, 70);
  const auto target = dk::JointDegreeDistribution::from_graph(original);
  util::Rng rng(14);
  const auto start =
      matching_1k(dk::DegreeDistribution::from_graph(original), rng);
  const double initial = dk::SparseHistogram::squared_difference(
      dk::JointDegreeDistribution::from_graph(start).histogram(),
      target.histogram());
  TargetingOptions options;
  options.attempts_per_edge = 50;
  double final_distance = -1.0;
  target_2k(start, target, options, rng, nullptr, &final_distance);
  EXPECT_LE(final_distance, initial);
}

TEST(Target2K, TradeOnlyMovesAreRejected) {
  // A Curveball trade preserves the JDD, so a trade-only 2K chain could
  // never lower D2: both entry points refuse it, and mixed still runs.
  const auto original = test_graph(13, 30, 70);
  const auto target = dk::JointDegreeDistribution::from_graph(original);
  util::Rng rng(14);
  const auto start =
      matching_1k(dk::DegreeDistribution::from_graph(original), rng);
  TargetingOptions options;
  options.attempts = 500;
  options.move = MoveKind::trade;
  RewiringStats stats;
  EXPECT_THROW(target_2k(start, target, options, rng, &stats),
               std::invalid_argument);
  RewiringEngine engine(start);
  EXPECT_THROW(engine.target_2k(target, options, 500, rng, &stats),
               std::invalid_argument);
  EXPECT_EQ(stats.attempts, 0u);
  options.move = MoveKind::mixed;
  EXPECT_NO_THROW(target_2k(start, target, options, rng, &stats));
  EXPECT_GT(stats.attempts, 0u);
}

TEST(Target3K, ConvergesTowardTargetProfile) {
  const auto original = test_graph(15, 35, 80);
  const auto dists = dk::extract(original, 3);
  util::Rng rng(16);
  // Start from a 2K-exact graph (matching), then walk the 3K distance.
  const auto start = matching_2k(dists.joint, rng);
  const double initial =
      dk::distance_3k(dk::ThreeKProfile::from_graph(start), dists.three_k);

  TargetingOptions options;
  options.attempts_per_edge = 1500;
  double final_distance = -1.0;
  const auto result = target_3k(start, dists.three_k, options, rng, nullptr,
                                &final_distance);
  // JDD must be untouched (2K-preserving swaps only).
  EXPECT_EQ(dk::JointDegreeDistribution::from_graph(result), dists.joint);
  EXPECT_LT(final_distance, initial);
  // And the reported distance must match a fresh recount.
  EXPECT_NEAR(final_distance,
              dk::distance_3k(dk::ThreeKProfile::from_graph(result),
                              dists.three_k),
              1e-6);
}

TEST(Targeting, PositiveTemperatureAcceptsUphillMoves) {
  const auto original = test_graph(17, 40, 90);
  const auto target = dk::JointDegreeDistribution::from_graph(original);
  util::Rng rng(18);
  const auto start =
      matching_1k(dk::DegreeDistribution::from_graph(original), rng);

  TargetingOptions hot;
  hot.attempts_per_edge = 30;
  hot.temperature = 1e9;  // T -> infinity: pure randomizing
  RewiringStats stats;
  target_2k(start, target, hot, rng, &stats);
  // At huge T essentially every structurally valid swap is accepted.
  EXPECT_EQ(stats.rejected_objective, 0u);
}

TEST(Explore, MaximizeAndMinimizeLikelihood) {
  const auto g = test_graph(19);
  const double s0 = metrics::likelihood_s(g);
  ExploreOptions options;
  options.attempts_per_edge = 60;

  util::Rng rng_up(20);
  const auto up = explore(g, ExploreObjective::maximize_s, options, rng_up);
  util::Rng rng_down(21);
  const auto down =
      explore(g, ExploreObjective::minimize_s, options, rng_down);

  EXPECT_GT(metrics::likelihood_s(up), s0);
  EXPECT_LT(metrics::likelihood_s(down), s0);
  // 1K-preserving: degree sequences unchanged.
  EXPECT_EQ(up.degree_sequence(), g.degree_sequence());
  EXPECT_EQ(down.degree_sequence(), g.degree_sequence());
}

TEST(Explore, ClusteringExtremesPreserveJdd) {
  const auto g = test_graph(23, 50, 140);
  const auto jdd = dk::JointDegreeDistribution::from_graph(g);
  const double c0 = metrics::mean_clustering(g);
  ExploreOptions options;
  options.attempts_per_edge = 80;

  util::Rng rng_up(24);
  const auto up =
      explore(g, ExploreObjective::maximize_clustering, options, rng_up);
  util::Rng rng_down(25);
  const auto down =
      explore(g, ExploreObjective::minimize_clustering, options, rng_down);

  EXPECT_GE(metrics::mean_clustering(up), c0);
  EXPECT_LE(metrics::mean_clustering(down), c0);
  EXPECT_GT(metrics::mean_clustering(up), metrics::mean_clustering(down));
  EXPECT_EQ(dk::JointDegreeDistribution::from_graph(up), jdd);
  EXPECT_EQ(dk::JointDegreeDistribution::from_graph(down), jdd);
}

TEST(Explore, S2ExtremesPreserveJdd) {
  const auto g = test_graph(27, 50, 140);
  const auto jdd = dk::JointDegreeDistribution::from_graph(g);
  const double s2_0 = objective_value(g, ExploreObjective::maximize_s2);
  ExploreOptions options;
  options.attempts_per_edge = 80;

  util::Rng rng_up(28);
  const auto up = explore(g, ExploreObjective::maximize_s2, options, rng_up);
  EXPECT_GE(objective_value(up, ExploreObjective::maximize_s2), s2_0);
  EXPECT_EQ(dk::JointDegreeDistribution::from_graph(up), jdd);
}

TEST(Explore, StopAtValueHalts) {
  const auto g = test_graph(29, 50, 140);
  const double c0 = metrics::mean_clustering(g);
  ExploreOptions options;
  options.attempts_per_edge = 500;
  options.stop_at_value = c0 + 0.02;
  util::Rng rng(30);
  const auto result =
      explore(g, ExploreObjective::maximize_clustering, options, rng);
  const double c1 = metrics::mean_clustering(result);
  EXPECT_GE(c1, c0 + 0.02 - 1e-12);
  // It should stop soon after crossing, not run to the extreme.
  EXPECT_LT(c1, c0 + 0.2);
}

TEST(ObjectiveValue, MatchesMetrics) {
  const auto g = test_graph(31);
  EXPECT_NEAR(objective_value(g, ExploreObjective::maximize_s),
              metrics::likelihood_s(g), 1e-9);
  EXPECT_NEAR(objective_value(g, ExploreObjective::minimize_clustering),
              metrics::mean_clustering(g), 1e-12);
}

// ---------------------------------------------------------------------------
// Property-based invariants: for a spread of random seed graphs, each
// randomization level must preserve its exact dK-distribution, and the
// stats counters must partition the attempt budget.
// ---------------------------------------------------------------------------

void expect_stats_partition_attempts(const RewiringStats& stats) {
  EXPECT_EQ(stats.attempts, stats.accepted + stats.rejected_structural +
                                stats.rejected_constraint +
                                stats.rejected_objective);
}

TEST(RandomizeProperty, EveryLevelPreservesItsDkDistribution) {
  for (const std::uint64_t seed : {101u, 202u, 303u, 404u}) {
    const auto g = test_graph(seed, 48, 120);
    for (int d = 0; d <= 3; ++d) {
      util::Rng rng(seed * 7 + static_cast<std::uint64_t>(d));
      RandomizeOptions options;
      options.d = d;
      options.attempts_per_edge = d == 3 ? 20 : 10;
      RewiringStats stats;
      const auto r = randomize(g, options, rng, &stats);

      EXPECT_EQ(r.num_nodes(), g.num_nodes());
      EXPECT_EQ(r.num_edges(), g.num_edges());
      if (d >= 1) {
        EXPECT_EQ(r.degree_sequence(), g.degree_sequence())
            << "seed " << seed << " d " << d;
      }
      if (d >= 2) {
        EXPECT_EQ(dk::JointDegreeDistribution::from_graph(r),
                  dk::JointDegreeDistribution::from_graph(g))
            << "seed " << seed << " d " << d;
      }
      if (d >= 3) {
        EXPECT_EQ(dk::ThreeKProfile::from_graph(r),
                  dk::ThreeKProfile::from_graph(g))
            << "seed " << seed << " d " << d;
      }
      expect_stats_partition_attempts(stats);
      EXPECT_GT(stats.accepted, 0u) << "seed " << seed << " d " << d;
    }
  }
}

// ---------------------------------------------------------------------------
// Reachability against brute force: on a graph small enough to enumerate
// its whole dK class, a sampler must visit every member of the class.
// ---------------------------------------------------------------------------

constexpr NodeId kTinyNodes = 7;

/// One bit per node pair u < v of a kTinyNodes-node graph.
std::uint32_t pair_bit(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  const NodeId row_start = u * (2 * kTinyNodes - u - 1) / 2;
  return 1u << (row_start + v - u - 1);
}

std::uint32_t edge_mask(const std::vector<Edge>& edges) {
  std::uint32_t mask = 0;
  for (const Edge& e : edges) mask |= pair_bit(e.u, e.v);
  return mask;
}

Graph graph_of(std::uint32_t mask) {
  Graph g(kTinyNodes);
  for (NodeId u = 0; u < kTinyNodes; ++u) {
    for (NodeId v = u + 1; v < kTinyNodes; ++v) {
      if ((mask & pair_bit(u, v)) != 0) g.add_edge(u, v);
    }
  }
  return g;
}

TEST(RandomizeReachability, TradesAtD1VisitTheWhole1KClass) {
  // Degrees 4,3,3,2,2,2,2: three degree classes, so the start's 2K class
  // is a strict subset of its 1K class, and a trade restricted to
  // same-class nodes could never leave the former.
  Graph start(kTinyNodes);
  for (const auto& [u, v] : std::vector<std::pair<NodeId, NodeId>>{
           {0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 5}, {2, 6}, {3, 5},
           {4, 6}}) {
    start.add_edge(u, v);
  }
  const auto jdd = dk::JointDegreeDistribution::from_graph(start);

  // Every labelled graph with the same degree at every node.
  std::set<std::uint32_t> one_k_class;
  std::size_t two_k_size = 0;
  constexpr std::uint32_t kPairs = kTinyNodes * (kTinyNodes - 1) / 2;
  for (std::uint32_t mask = 0; mask < (1u << kPairs); ++mask) {
    if (static_cast<std::size_t>(std::popcount(mask)) != start.num_edges()) {
      continue;
    }
    bool same_degrees = true;
    for (NodeId v = 0; v < kTinyNodes && same_degrees; ++v) {
      std::size_t degree = 0;
      for (NodeId w = 0; w < kTinyNodes; ++w) {
        degree += w != v && (mask & pair_bit(v, w)) != 0;
      }
      same_degrees = degree == start.degree(v);
    }
    if (!same_degrees) continue;
    one_k_class.insert(mask);
    two_k_size += dk::JointDegreeDistribution::from_graph(graph_of(mask)) ==
                  jdd;
  }
  ASSERT_GT(one_k_class.size(), two_k_size);

  RewiringEngine engine(start);
  RandomizeOptions options;
  options.d = 1;
  options.move = MoveKind::trade;
  util::Rng rng(17);
  std::set<std::uint32_t> visited;
  for (int step = 0; step < 40000; ++step) {
    engine.randomize(options, 1, rng, nullptr);
    visited.insert(edge_mask(engine.graph().edges()));
  }
  for (const std::uint32_t mask : visited) {
    EXPECT_EQ(one_k_class.count(mask), 1u) << "left the 1K class";
  }
  EXPECT_EQ(visited.size(), one_k_class.size())
      << "the 2K class has " << two_k_size << " graphs";
}

TEST(RewiringStats, CountersPartitionAttemptsAcrossModes) {
  const auto original = test_graph(41, 40, 90);
  const auto target = dk::JointDegreeDistribution::from_graph(original);
  util::Rng rng(42);
  const auto start =
      matching_1k(dk::DegreeDistribution::from_graph(original), rng);

  TargetingOptions targeting;
  targeting.attempts = 3000;
  RewiringStats target_stats;
  target_2k(start, target, targeting, rng, &target_stats);
  expect_stats_partition_attempts(target_stats);

  ExploreOptions exploring;
  exploring.attempts = 3000;
  RewiringStats explore_stats;
  explore(original, ExploreObjective::maximize_clustering, exploring, rng,
          &explore_stats);
  expect_stats_partition_attempts(explore_stats);
}

// ---------------------------------------------------------------------------
// Determinism: the engine is a pure function of (input graph, options,
// seed) — reruns must agree edge-for-edge, and the multi-chain driver
// must not depend on thread scheduling.
// ---------------------------------------------------------------------------

TEST(Determinism, RandomizeIsReproducibleEdgeForEdge) {
  const auto g = test_graph(51);
  for (int d = 1; d <= 3; ++d) {
    RandomizeOptions options;
    options.d = d;
    util::Rng rng_a(99);
    const auto a = randomize(g, options, rng_a);
    util::Rng rng_b(99);
    const auto b = randomize(g, options, rng_b);
    // Stronger than graph equality: identical edge arrays, i.e. the
    // serialized output is byte-identical.
    EXPECT_EQ(a.edges(), b.edges()) << "d " << d;
  }
}

TEST(Determinism, Target2kIsReproducibleEdgeForEdge) {
  const auto original = test_graph(53, 40, 90);
  const auto target = dk::JointDegreeDistribution::from_graph(original);
  util::Rng seed_rng(54);
  const auto start =
      matching_1k(dk::DegreeDistribution::from_graph(original), seed_rng);
  TargetingOptions options;
  options.attempts = 20000;

  util::Rng rng_a(55);
  double distance_a = -1.0;
  const auto a = target_2k(start, target, options, rng_a, nullptr,
                           &distance_a);
  util::Rng rng_b(55);
  double distance_b = -1.0;
  const auto b = target_2k(start, target, options, rng_b, nullptr,
                           &distance_b);
  EXPECT_EQ(a.edges(), b.edges());
  EXPECT_EQ(distance_a, distance_b);
}

TEST(Determinism, MultiChainResultIndependentOfScheduling) {
  const auto original = test_graph(57, 40, 90);
  const auto target = dk::JointDegreeDistribution::from_graph(original);
  util::Rng seed_rng(58);
  const auto start =
      matching_1k(dk::DegreeDistribution::from_graph(original), seed_rng);
  TargetingOptions options;
  options.attempts = 5000;
  svc::RunContext ctx;
  ctx.chains = 4;

  // Chains race on real threads; the selected result must still be a
  // deterministic function of the seed (best distance, ties to the
  // lowest chain id).
  const auto run = [&]() {
    util::Rng rng(59);
    RunCheckpoint state = make_2k_run(start, options, 0, rng, ctx);
    return run_checkpointed_2k(state, target, options, {}, ctx);
  };
  const CheckpointedResult result_a = run();
  const CheckpointedResult result_b = run();
  const Graph& a = result_a.graph;

  EXPECT_EQ(a.edges(), result_b.graph.edges());
  EXPECT_EQ(result_a.best_chain, result_b.best_chain);
  EXPECT_EQ(result_a.best_distance, result_b.best_distance);
  EXPECT_EQ(result_a.total_stats.attempts, result_b.total_stats.attempts);
  expect_stats_partition_attempts(result_a.total_stats);

  // The reported best distance matches a recount of the returned graph.
  EXPECT_DOUBLE_EQ(result_a.best_distance,
                   dk::SparseHistogram::squared_difference(
                       dk::JointDegreeDistribution::from_graph(a).histogram(),
                       target.histogram()));
  // 1K is preserved by every chain.
  auto realized = a.degree_sequence();
  std::sort(realized.begin(), realized.end());
  auto expected = original.degree_sequence();
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(realized, expected);
}

TEST(MultiChain, ThreeKDriverConvergesAndPreservesJdd) {
  const auto original = test_graph(61, 35, 80);
  const auto dists = dk::extract(original, 3);
  util::Rng seed_rng(62);
  const auto start = matching_2k(dists.joint, seed_rng);
  TargetingOptions options;
  options.attempts = 4000;
  svc::RunContext ctx;
  ctx.chains = 3;

  util::Rng rng(63);
  RunCheckpoint state = make_3k_run(start, options, 0, rng, ctx);
  const CheckpointedResult result =
      run_checkpointed_3k(state, dists.three_k, options, {}, ctx);
  const Graph& best = result.graph;
  EXPECT_EQ(dk::JointDegreeDistribution::from_graph(best), dists.joint);
  EXPECT_LT(result.best_chain, ctx.chains);
  EXPECT_NEAR(result.best_distance,
              dk::distance_3k(dk::ThreeKProfile::from_graph(best),
                              dists.three_k),
              1e-6);
}

// Hub stress for the speculative delta journal: node 0 has ~60 neighbors
// whose degrees are almost all distinct, so swaps near the hub touch
// bins of many distinct degrees.  3K preservation and the internal
// bookkeeping must survive it.
TEST(ThreeKRewirerHub, SpeculativeJournalHandlesHighDegreeHubs) {
  const NodeId spokes = 60;
  std::vector<Edge> edges;
  NodeId next = spokes + 1;
  for (NodeId i = 1; i <= spokes; ++i) {
    edges.push_back({0, i});
    // Give spoke i (i - 1) private leaves: deg(spoke i) = i.
    for (NodeId leaf = 0; leaf + 1 < i; ++leaf) {
      edges.push_back({i, next++});
    }
  }
  // A few chords so swaps near the hub have partners of equal class.
  for (NodeId i = 1; i + 2 <= spokes; i += 2) edges.push_back({i, i + 2});
  const auto g = Graph::from_edges_dedup(next, edges);
  ASSERT_GT(g.degree(0), 48u);

  const auto original = dk::ThreeKProfile::from_graph(g);
  ThreeKRewirer rewirer(g);
  util::Rng rng(5);
  RewiringStats stats;
  rewirer.randomize(20000, rng, &stats);
  EXPECT_GT(stats.attempts, 0u);
  ASSERT_NO_THROW(rewirer.state().verify_consistency());
  EXPECT_EQ(dk::ThreeKProfile::from_graph(rewirer.graph()), original);

  // Targeting across the hub must also stay exact: walk a d=2
  // randomization back toward the original 3K profile.
  RandomizeOptions shake;
  shake.d = 2;
  shake.attempts = 4000;
  util::Rng shake_rng(7);
  const auto start = randomize(g, shake, shake_rng);
  ThreeKRewirer targeter(start, original);
  TargetingOptions options;
  util::Rng target_rng(9);
  targeter.target(options, 40000, target_rng, nullptr);
  ASSERT_NO_THROW(targeter.state().verify_consistency());
}

// An engine rebuilt from graph() continues exactly as the live one: every
// draw reads only the rows and the Rng, and every other piece of chain
// state (the ΔD2 matrix, the 3K residual) is a function of the edge set.
// That is what makes the leg driver cadence-free (gen/checkpoint.hpp).
void expect_same_rows(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    const auto ra = a.neighbors(v);
    const auto rb = b.neighbors(v);
    ASSERT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin(), rb.end()))
        << "row " << v;
  }
}

class RebuildEqualsLive : public ::testing::Test {
 protected:
  void SetUp() override {
    // A power-law graph with hubs, so the degree classes and the
    // deviating JDD bins are many and uneven.
    topo::AsLevelOptions shape;
    shape.num_nodes = 400;
    shape.gamma = 2.1;
    shape.max_degree_cap = 60;
    util::Rng rng(31);
    original_ = matching_1k(dk::DegreeDistribution::from_sequence(
                                topo::power_law_degree_sequence(shape)),
                            rng);
    joint_ = dk::JointDegreeDistribution::from_graph(original_);
    three_k_ = dk::ThreeKProfile::from_graph(original_);
    start_1k_ =
        matching_1k(dk::DegreeDistribution::from_graph(original_), rng);
    start_2k_ = matching_2k(joint_, rng);
  }

  static util::Rng copy_of(const util::Rng& rng) {
    return util::Rng::from_state_words(rng.state_words());
  }

  static constexpr std::size_t kBefore = 3000;  // N attempts, live only
  static constexpr std::size_t kAfter = 3000;   // M attempts, both

  Graph original_;
  dk::JointDegreeDistribution joint_;
  dk::ThreeKProfile three_k_;
  Graph start_1k_;
  Graph start_2k_;
};

TEST_F(RebuildEqualsLive, TwoKEngineRandomizingEveryMove) {
  for (const MoveKind move :
       {MoveKind::swap, MoveKind::trade, MoveKind::mixed}) {
    for (const int d : {1, 2}) {
      SCOPED_TRACE(testing::Message() << to_string(move) << " d=" << d);
      RandomizeOptions options;
      options.d = d;
      options.move = move;
      RewiringEngine live(original_);
      util::Rng rng(7);
      live.randomize(options, kBefore, rng, nullptr);
      RewiringEngine rebuilt(live.graph());
      util::Rng rebuilt_rng = copy_of(rng);
      RewiringStats live_stats, rebuilt_stats;
      live.randomize(options, kAfter, rng, &live_stats);
      rebuilt.randomize(options, kAfter, rebuilt_rng, &rebuilt_stats);
      EXPECT_GT(live_stats.accepted, 0u);
      EXPECT_EQ(live_stats, rebuilt_stats);
      EXPECT_EQ(rng.state_words(), rebuilt_rng.state_words());
      expect_same_rows(live.graph(), rebuilt.graph());
    }
  }
}

TEST_F(RebuildEqualsLive, TwoKEngineTargeting) {
  for (const MoveKind move : {MoveKind::swap, MoveKind::mixed}) {
    SCOPED_TRACE(to_string(move));
    TargetingOptions options;
    options.move = move;
    options.temperature = 1.0;
    options.stop_distance = -1.0;  // keep walking at D2 = 0 too
    RewiringEngine live(start_1k_);
    util::Rng rng(8);
    live.target_2k(joint_, options, kBefore, rng, nullptr);
    RewiringEngine rebuilt(live.graph());
    util::Rng rebuilt_rng = copy_of(rng);
    RewiringStats live_stats, rebuilt_stats;
    const std::int64_t live_d2 =
        live.target_2k(joint_, options, kAfter, rng, &live_stats);
    const std::int64_t rebuilt_d2 = rebuilt.target_2k(
        joint_, options, kAfter, rebuilt_rng, &rebuilt_stats);
    EXPECT_GT(live_stats.accepted, 0u);
    EXPECT_EQ(live_d2, rebuilt_d2);
    EXPECT_EQ(live_stats, rebuilt_stats);
    EXPECT_EQ(rng.state_words(), rebuilt_rng.state_words());
    expect_same_rows(live.graph(), rebuilt.graph());
  }
}

TEST_F(RebuildEqualsLive, ThreeKEngineTargetingAndRandomizing) {
  for (const MoveKind move : {MoveKind::swap, MoveKind::mixed}) {
    SCOPED_TRACE(to_string(move));
    TargetingOptions options;
    options.move = move;
    options.temperature = 2.0;
    options.stop_distance = -1.0;
    ThreeKRewirer live(start_2k_, three_k_);
    util::Rng rng(9);
    live.target(options, kBefore, rng, nullptr);
    ThreeKRewirer rebuilt(live.graph(), three_k_);
    util::Rng rebuilt_rng = copy_of(rng);
    RewiringStats live_stats, rebuilt_stats;
    const std::int64_t live_d3 =
        live.target(options, kAfter, rng, &live_stats);
    const std::int64_t rebuilt_d3 =
        rebuilt.target(options, kAfter, rebuilt_rng, &rebuilt_stats);
    EXPECT_GT(live_stats.accepted, 0u);
    EXPECT_EQ(live_d3, rebuilt_d3);
    EXPECT_EQ(live_stats, rebuilt_stats);
    expect_same_rows(live.graph(), rebuilt.graph());
  }
  ThreeKRewirer live(original_, dk::TrackLevel::swap_journal);
  util::Rng rng(10);
  live.randomize(kBefore, rng, nullptr);
  ThreeKRewirer rebuilt(live.graph(), dk::TrackLevel::swap_journal);
  util::Rng rebuilt_rng = copy_of(rng);
  RewiringStats live_stats, rebuilt_stats;
  live.randomize(kAfter, rng, &live_stats);
  rebuilt.randomize(kAfter, rebuilt_rng, &rebuilt_stats);
  EXPECT_GT(live_stats.accepted, 0u);
  EXPECT_EQ(live_stats, rebuilt_stats);
  expect_same_rows(live.graph(), rebuilt.graph());
}

/// FNV-1a over the adjacency rows, in node order and row order: equal
/// hashes mean the same rows, the chain's canonical form, so the chains
/// that follow would draw the same proposals.
std::uint64_t rows_hash(const Graph& g) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint32_t word) {
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  };
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    mix(static_cast<std::uint32_t>(g.degree(v)));
    for (const NodeId w : g.neighbors(v)) mix(w);
  }
  return hash;
}

/// A chain's pinned end: its rows, its stats and a distance (D3 against
/// the original for randomizing and exploring, the chain's own final
/// distance for targeting).
struct PinnedChain {
  std::uint64_t hash;
  RewiringStats stats;
  std::int64_t distance;
};

void expect_pinned(const Graph& out, const RewiringStats& stats,
                   std::int64_t distance, const PinnedChain& pin) {
  EXPECT_EQ(rows_hash(out), pin.hash) << std::hex << rows_hash(out);
  EXPECT_EQ(stats.attempts, pin.stats.attempts);
  EXPECT_EQ(stats.accepted, pin.stats.accepted);
  EXPECT_EQ(stats.rejected_structural, pin.stats.rejected_structural);
  EXPECT_EQ(stats.rejected_constraint, pin.stats.rejected_constraint);
  EXPECT_EQ(stats.rejected_objective, pin.stats.rejected_objective);
  EXPECT_EQ(distance, pin.distance);
}

std::int64_t d3_between(const Graph& g, const dk::ThreeKProfile& target) {
  const auto profile = dk::ThreeKProfile::from_graph(g);
  return dk::SortedBins::squared_difference(profile.wedges(),
                                            target.wedges()) +
         dk::SortedBins::squared_difference(profile.triangles(),
                                            target.triangles());
}

// Golden pins for the 3K chains on a hub-heavy power-law graph (n=2000,
// max degree above 200).  Recorded when proposal draws moved from edge
// slots and half-edge buckets to the CSR rows; a change that keeps the
// draws and the pricing must not move them by a bit.
class HubChainGolden : public ::testing::Test {
 protected:
  void SetUp() override {
    topo::AsLevelOptions options;
    options.num_nodes = 2000;
    options.gamma = 1.93;
    options.max_degree_cap = 300;
    util::Rng rng(1);
    original_ = matching_1k(dk::DegreeDistribution::from_sequence(
                                topo::power_law_degree_sequence(options)),
                            rng);
    target_ = dk::ThreeKProfile::from_graph(original_);
    start_ = matching_2k(dk::JointDegreeDistribution::from_graph(original_),
                         rng);
  }

  Graph original_;
  dk::ThreeKProfile target_;
  Graph start_;
};

TEST_F(HubChainGolden, Target3KIsPinned) {
  ASSERT_GT(original_.max_degree(), 200u);
  TargetingOptions options;
  options.attempts = 20000;
  util::Rng rng(2);
  RewiringStats stats;
  double d3 = 0.0;
  const Graph out = target_3k(start_, target_, options, rng, &stats, &d3);
  EXPECT_EQ(static_cast<std::int64_t>(d3), d3_between(out, target_));
  expect_pinned(out, stats, static_cast<std::int64_t>(d3),
                {0xede43c16ea703d46ULL,
                 {.attempts = 20000, .accepted = 4599,
                  .rejected_structural = 10376, .rejected_constraint = 0,
                  .rejected_objective = 5025},
                 17512});
}

TEST_F(HubChainGolden, MixedMoveTarget3KIsPinned) {
  // Curveball trades price their legs with deg a = deg c.
  TargetingOptions options;
  options.attempts = 4000;
  options.move = MoveKind::mixed;
  util::Rng rng(3);
  RewiringStats stats;
  double d3 = 0.0;
  const Graph out = target_3k(start_, target_, options, rng, &stats, &d3);
  expect_pinned(out, stats, static_cast<std::int64_t>(d3),
                {0x3b5a5a10ea157a5aULL,
                 {.attempts = 4000, .accepted = 1030,
                  .rejected_structural = 2151, .rejected_constraint = 0,
                  .rejected_objective = 819},
                 23702});
}

TEST_F(HubChainGolden, Randomize3KIsPinned) {
  RandomizeOptions options;
  options.d = 3;
  options.attempts = 20000;
  util::Rng rng(4);
  RewiringStats stats;
  const Graph out = randomize(original_, options, rng, &stats);
  expect_pinned(out, stats, d3_between(out, target_),
                {0x138a93afeb87b226ULL,
                 {.attempts = 20000, .accepted = 2765,
                  .rejected_structural = 10422, .rejected_constraint = 6813,
                  .rejected_objective = 0},
                 0});
}

// Golden pins for the greedy S2/C̄ exploration chains (paper §4.3) on the
// same hub graph.  Each case pins the output's rows, the stats, its D3
// against the original and the exact bits of its objective_value: the
// chain accepts on the sign of evaluate_swap's s2_delta or
// clustering_delta and stops on the running objective, so a changed bit
// in either moves the pins.
void expect_explore_pinned(const Graph& start,
                           const dk::ThreeKProfile& target,
                           ExploreObjective objective,
                           const ExploreOptions& options, std::uint64_t seed,
                           const PinnedChain& pin, double value) {
  util::Rng rng(seed);
  RewiringStats stats;
  const Graph out = explore(start, objective, options, rng, &stats);
  expect_pinned(out, stats, d3_between(out, target), pin);
  const double reached = objective_value(out, objective);
  EXPECT_EQ(reached, value) << std::hexfloat << reached;
}

ExploreOptions explore_budget(std::size_t attempts) {
  ExploreOptions options;
  options.attempts = attempts;
  return options;
}

TEST_F(HubChainGolden, ExploreMaximizeS2IsPinned) {
  expect_explore_pinned(start_, target_, ExploreObjective::maximize_s2,
                        explore_budget(20000), 5,
                        {0x32228773fbce8abeULL,
                         {.attempts = 20000, .accepted = 1605,
                          .rejected_structural = 10495,
                          .rejected_constraint = 0,
                          .rejected_objective = 7900},
                         30356},
                        0x1.45a4d28p+26);
}

TEST_F(HubChainGolden, ExploreMinimizeS2IsPinned) {
  expect_explore_pinned(start_, target_, ExploreObjective::minimize_s2,
                        explore_budget(20000), 6,
                        {0x4855ed0eb8cccdfeULL,
                         {.attempts = 20000, .accepted = 1597,
                          .rejected_structural = 10440,
                          .rejected_constraint = 0,
                          .rejected_objective = 7963},
                         31936},
                        0x1.1213efp+26);
}

TEST_F(HubChainGolden, ExploreMaximizeClusteringIsPinned) {
  expect_explore_pinned(start_, target_,
                        ExploreObjective::maximize_clustering,
                        explore_budget(20000), 7,
                        {0x37c0324b3d946d16ULL,
                         {.attempts = 20000, .accepted = 1123,
                          .rejected_structural = 10519,
                          .rejected_constraint = 0,
                          .rejected_objective = 8358},
                         32760},
                        0x1.a24377c4edc59p-3);
}

TEST_F(HubChainGolden, ExploreMinimizeClusteringIsPinned) {
  expect_explore_pinned(start_, target_,
                        ExploreObjective::minimize_clustering,
                        explore_budget(20000), 8,
                        {0x3f085410dae718d6ULL,
                         {.attempts = 20000, .accepted = 989,
                          .rejected_structural = 10519,
                          .rejected_constraint = 0,
                          .rejected_objective = 8492},
                         28286},
                        0x1.7764755d50835p-5);
}

TEST_F(HubChainGolden, ExploreClusteringStopAtValueIsPinned) {
  // topo::as_level's path: the running C̄ (0.113 at the start) reaches
  // stop_at_value after 5375 of the 20000 attempts.
  ExploreOptions options = explore_budget(20000);
  options.stop_at_value = 0.16;
  expect_explore_pinned(start_, target_,
                        ExploreObjective::maximize_clustering, options, 7,
                        {0x0983841a9020869eULL,
                         {.attempts = 5375, .accepted = 497,
                          .rejected_structural = 2844,
                          .rejected_constraint = 0,
                          .rejected_objective = 2034},
                         30838},
                        0x1.480e75cf7150dp-3);
}

// Golden pins for the chains the cases above leave out: randomizing at
// d = 0..2, 2K targeting and S exploration, on the same hub graph.
// Recorded before the per-mode attempt loops became one loop; they pin
// every Rng draw of every mode, so the loop's order (poll, guard,
// count, draw) cannot move.

void expect_randomize_pinned(const Graph& original,
                             const dk::ThreeKProfile& target, int d,
                             MoveKind move, std::uint64_t seed,
                             const PinnedChain& pin) {
  RandomizeOptions options;
  options.d = d;
  options.move = move;
  options.attempts = 20000;
  util::Rng rng(seed);
  RewiringStats stats;
  const Graph out = randomize(original, options, rng, &stats);
  expect_pinned(out, stats, d3_between(out, target), pin);
}

TEST_F(HubChainGolden, Randomize0KIsPinned) {
  expect_randomize_pinned(original_, target_, 0, MoveKind::swap, 11,
                          {0xba9b516c3d4866e8ULL,
                           {.attempts = 20000, .accepted = 19939,
                            .rejected_structural = 61,
                            .rejected_constraint = 0,
                            .rejected_objective = 0},
                           31678431});
}

TEST_F(HubChainGolden, Randomize1KSwapIsPinned) {
  expect_randomize_pinned(original_, target_, 1, MoveKind::swap, 12,
                          {0x22ffd294c30a6ba6ULL,
                           {.attempts = 20000, .accepted = 13181,
                            .rejected_structural = 6819,
                            .rejected_constraint = 0,
                            .rejected_objective = 0},
                           6378810});
}

TEST_F(HubChainGolden, Randomize1KTradeIsPinned) {
  expect_randomize_pinned(original_, target_, 1, MoveKind::trade, 13,
                          {0xc69e454d0ba3564eULL,
                           {.attempts = 20000, .accepted = 17602,
                            .rejected_structural = 2398,
                            .rejected_constraint = 0,
                            .rejected_objective = 0},
                           5691512});
}

TEST_F(HubChainGolden, Randomize2KSwapIsPinned) {
  expect_randomize_pinned(original_, target_, 2, MoveKind::swap, 14,
                          {0x6548a904d8fcdac6ULL,
                           {.attempts = 20000, .accepted = 9621,
                            .rejected_structural = 10379,
                            .rejected_constraint = 0,
                            .rejected_objective = 0},
                           30220});
}

TEST_F(HubChainGolden, Randomize2KMixedIsPinned) {
  expect_randomize_pinned(original_, target_, 2, MoveKind::mixed, 15,
                          {0xacfa43b07bf0f83aULL,
                           {.attempts = 20000, .accepted = 9383,
                            .rejected_structural = 10617,
                            .rejected_constraint = 0,
                            .rejected_objective = 0},
                           30634});
}

/// A 1K start for 2K targeting: another matching of the original's
/// degree sequence.
Graph one_k_start(const Graph& original) {
  util::Rng rng(21);
  return matching_1k(dk::DegreeDistribution::from_graph(original), rng);
}

void expect_target_2k_pinned(const Graph& original, MoveKind move,
                             double temperature, std::uint64_t seed,
                             const PinnedChain& pin) {
  TargetingOptions options;
  options.attempts = 20000;
  options.move = move;
  options.temperature = temperature;
  util::Rng rng(seed);
  RewiringStats stats;
  double d2 = -1.0;
  const Graph out =
      target_2k(one_k_start(original),
                dk::JointDegreeDistribution::from_graph(original), options,
                rng, &stats, &d2);
  EXPECT_EQ(d2, dk::distance_2k(
                    dk::JointDegreeDistribution::from_graph(out),
                    dk::JointDegreeDistribution::from_graph(original)));
  expect_pinned(out, stats, static_cast<std::int64_t>(d2), pin);
}

TEST_F(HubChainGolden, Target2KSwapIsPinned) {
  expect_target_2k_pinned(original_, MoveKind::swap, 0.0, 22,
                          {0x8b01e8abefe88bd6ULL,
                           {.attempts = 20000, .accepted = 3960,
                            .rejected_structural = 6764,
                            .rejected_constraint = 0,
                            .rejected_objective = 9276},
                           288});
}

TEST_F(HubChainGolden, Target2KMixedIsPinned) {
  expect_target_2k_pinned(original_, MoveKind::mixed, 0.0, 23,
                          {0x2b8123dae88af80eULL,
                           {.attempts = 20000, .accepted = 5657,
                            .rejected_structural = 7896,
                            .rejected_constraint = 0,
                            .rejected_objective = 6447},
                           412});
}

TEST_F(HubChainGolden, Target2KAtPositiveTemperatureIsPinned) {
  expect_target_2k_pinned(original_, MoveKind::swap, 2.0, 24,
                          {0x7cd513a1f976d72ULL,
                           {.attempts = 20000, .accepted = 5854,
                            .rejected_structural = 7151,
                            .rejected_constraint = 0,
                            .rejected_objective = 6995},
                           1464});
}

TEST_F(HubChainGolden, ExploreMaximizeSIsPinned) {
  expect_explore_pinned(original_, target_, ExploreObjective::maximize_s,
                        explore_budget(20000), 25,
                        {0x77a0483933657762ULL,
                         {.attempts = 20000, .accepted = 2797,
                          .rejected_structural = 8183,
                          .rejected_constraint = 0,
                          .rejected_objective = 9020},
                         25768534},
                        0x1.2473f8p+23);
}

TEST_F(HubChainGolden, ExploreMinimizeSIsPinned) {
  expect_explore_pinned(original_, target_, ExploreObjective::minimize_s,
                        explore_budget(20000), 26,
                        {0xb85c1f6d369d01aULL,
                         {.attempts = 20000, .accepted = 4028,
                          .rejected_structural = 3918,
                          .rejected_constraint = 0,
                          .rejected_objective = 12054},
                         538485930},
                        0x1.0c22p+21);
}

TEST_F(HubChainGolden, ExploreMaximizeSStopAtValueIsPinned) {
  ExploreOptions options = explore_budget(20000);
  options.stop_at_value = 8.5e6;
  expect_explore_pinned(original_, target_, ExploreObjective::maximize_s,
                        options, 25,
                        {0xc47ef3e7142502eaULL,
                         {.attempts = 3777, .accepted = 841,
                          .rejected_structural = 1450,
                          .rejected_constraint = 0,
                          .rejected_objective = 1486},
                         7706622},
                        0x1.037296p+23);
}

TEST_F(HubChainGolden, ExploreMinimizeSStopAtValueIsPinned) {
  ExploreOptions options = explore_budget(20000);
  options.stop_at_value = 4.0e6;
  expect_explore_pinned(original_, target_, ExploreObjective::minimize_s,
                        options, 26,
                        {0x2f4e1334a8ae608eULL,
                         {.attempts = 8009, .accepted = 2062,
                          .rejected_structural = 2203,
                          .rejected_constraint = 0,
                          .rejected_objective = 3744},
                         105874558},
                        0x1.e830f8p+21);
}

// The stop and progress contract of the attempt loop: a sample every
// 1024 attempts, taken before that attempt (attempt 0 included), and a
// stop requested at any point ends the chain at the next such poll.

/// Records every sample; at its `stop_at`-th sample (1-based, 0 =
/// never) it requests a stop, as a front end's cancel would.
class RecordingSink : public obs::ProgressSink {
 public:
  explicit RecordingSink(util::StopSource* stop = nullptr,
                         std::size_t stop_at = 0)
      : stop_(stop), stop_at_(stop_at) {}

  void report(std::uint32_t lane, const obs::ProgressSample& sample) override {
    EXPECT_EQ(lane, 0u);
    samples.push_back(sample);
    if (stop_ != nullptr && samples.size() == stop_at_) stop_->request_stop();
  }

  std::vector<obs::ProgressSample> samples;

 private:
  util::StopSource* stop_;
  std::size_t stop_at_;
};

struct PinnedSample {
  std::uint64_t attempts;
  std::uint64_t accepted;
  double objective;
};

void expect_samples(const std::vector<obs::ProgressSample>& samples,
                    std::uint64_t budget,
                    const std::vector<PinnedSample>& pins) {
  ASSERT_EQ(samples.size(), pins.size());
  for (std::size_t i = 0; i < pins.size(); ++i) {
    EXPECT_EQ(samples[i].attempts, pins[i].attempts) << "sample " << i;
    EXPECT_EQ(samples[i].accepted, pins[i].accepted) << "sample " << i;
    EXPECT_EQ(samples[i].objective, pins[i].objective) << "sample " << i;
    EXPECT_EQ(samples[i].budget, budget) << "sample " << i;
    EXPECT_TRUE(samples[i].has_objective) << "sample " << i;
  }
}

constexpr std::size_t kSampledBudget = 5000;

/// Runs `chain(stats, ctx)` with a recording sink, then again with a
/// sink that requests a stop at its third sample (attempt 2048): the
/// chain must end at the next poll, attempt 3072, having reported the
/// first three samples and nothing else.
template <typename Chain>
void expect_sampled_and_stoppable(Chain chain,
                                  const std::vector<PinnedSample>& pins) {
  RecordingSink sink;
  svc::RunContext ctx;
  ctx.progress = &sink;
  RewiringStats stats;
  chain(stats, ctx);
  EXPECT_EQ(stats.attempts, kSampledBudget);
  expect_samples(sink.samples, kSampledBudget, pins);

  util::StopSource source;
  RecordingSink stopping(&source, 3);
  ctx.progress = &stopping;
  ctx.stop = source.token();
  RewiringStats stopped;
  chain(stopped, ctx);
  EXPECT_EQ(stopped.attempts, 3072u);
  expect_samples(stopping.samples, kSampledBudget,
                 {pins.begin(), pins.begin() + 3});
}

TEST_F(HubChainGolden, Target2KProgressAndStopArePinned) {
  const auto target = dk::JointDegreeDistribution::from_graph(original_);
  const Graph start = one_k_start(original_);
  expect_sampled_and_stoppable(
      [&](RewiringStats& stats, const svc::RunContext& ctx) {
        RewiringEngine engine(start);
        util::Rng rng(31);
        engine.target_2k(target, TargetingOptions{}, kSampledBudget, rng,
                         &stats, ctx);
      },
      {{0, 0, 6926.0},
       {1024, 384, 4156.0},
       {2048, 735, 2796.0},
       {3072, 1033, 2026.0},
       {4096, 1320, 1570.0}});
}

TEST_F(HubChainGolden, Target3KProgressAndStopArePinned) {
  expect_sampled_and_stoppable(
      [&](RewiringStats& stats, const svc::RunContext& ctx) {
        ThreeKRewirer rewirer(start_, target_);
        util::Rng rng(32);
        rewirer.target(TargetingOptions{}, kSampledBudget, rng, &stats, ctx);
      },
      {{0, 0, 29698.0},
       {1024, 304, 27818.0},
       {2048, 611, 26072.0},
       {3072, 904, 24978.0},
       {4096, 1177, 24068.0}});
}

}  // namespace
}  // namespace orbis::gen
