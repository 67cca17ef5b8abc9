// Replica-exchange ladder (gen/anneal.hpp): the Metropolis exchange
// rule (including its T = 0 greedy limits and lazy uniform draw), the
// acceptance-band temperature controller, replica-stream independence
// from the ladder shape, and the determinism contract — a laddered run
// is a pure function of (seed, ladder, move mix, exchange epoch),
// bit-identical at any pool size, with matching anneal.* metrics.
#include "gen/anneal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/series.hpp"
#include "exec/thread_pool.hpp"
#include "gen/checkpoint.hpp"
#include "gen/matching.hpp"
#include "gen/rewiring.hpp"
#include "graph/builders.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace orbis::gen {
namespace {

TEST(ExchangeRule, GreedyColdReplicaAcceptsOnlyImprovements) {
  util::Rng rng(1);
  // t_i = 0: infinite beta — accept iff the hot configuration is at
  // least as good.
  EXPECT_TRUE(exchange_accepts(0.0, 10.0, 5.0, 3.0, rng));
  EXPECT_TRUE(exchange_accepts(0.0, 10.0, 5.0, 5.0, rng));
  EXPECT_FALSE(exchange_accepts(0.0, 10.0, 5.0, 7.0, rng));
  // Both greedy: same rule.
  EXPECT_TRUE(exchange_accepts(0.0, 0.0, 5.0, 3.0, rng));
  EXPECT_FALSE(exchange_accepts(0.0, 0.0, 3.0, 5.0, rng));
  // Hot slot greedy (unusual but legal): mirrored limit.
  EXPECT_TRUE(exchange_accepts(10.0, 0.0, 3.0, 5.0, rng));
  EXPECT_FALSE(exchange_accepts(10.0, 0.0, 5.0, 3.0, rng));
}

TEST(ExchangeRule, CertainDecisionsConsumeNoRandomness) {
  // The uniform is drawn lazily: a non-negative exponent (and every
  // T = 0 limit) decides without touching the Rng, so the exchange
  // stream's consumption is a pure function of the decision sequence.
  util::Rng rng(7);
  const auto before = rng.state_words();
  EXPECT_TRUE(exchange_accepts(1.0, 10.0, 8.0, 2.0, rng));   // exponent > 0
  EXPECT_TRUE(exchange_accepts(2.0, 2.0, 1.0, 9.0, rng));    // exponent = 0
  EXPECT_FALSE(exchange_accepts(0.0, 10.0, 1.0, 9.0, rng));  // greedy reject
  EXPECT_EQ(rng.state_words(), before);

  // An uphill proposal at finite temperatures must draw exactly once.
  util::Rng drawn(7);
  exchange_accepts(1.0, 10.0, 2.0, 8.0, drawn);
  util::Rng one_draw(7);
  one_draw.uniform_real();
  EXPECT_EQ(drawn.state_words(), one_draw.state_words());
}

TEST(ExchangeRule, UphillAcceptanceShrinksWithTheGap) {
  // Metropolis shape: the bigger the uphill distance gap, the rarer the
  // accepted exchange.  Counted over a fixed trial budget.
  const auto accepts = [](double gap) {
    util::Rng rng(42);
    int count = 0;
    for (int trial = 0; trial < 2000; ++trial) {
      if (exchange_accepts(1.0, 4.0, 0.0, gap, rng)) ++count;
    }
    return count;
  };
  const int small_gap = accepts(0.5);
  const int large_gap = accepts(4.0);
  EXPECT_GT(small_gap, large_gap);
  EXPECT_GT(small_gap, 0);
  EXPECT_LT(small_gap, 2000);
}

TEST(LadderShape, GeometricFromTopWithPinnedBase) {
  LadderOptions ladder;
  ladder.top_temperature = 1000.0;
  // Replica 0 is always the caller's temperature, whatever the ladder.
  EXPECT_EQ(ladder_temperature(ladder, 0.0, 0, 4), 0.0);
  EXPECT_EQ(ladder_temperature(ladder, 2.5, 0, 4), 2.5);
  // The hottest rung sits exactly at top_temperature, and each rung
  // below it is one geometric step down.
  EXPECT_DOUBLE_EQ(ladder_temperature(ladder, 0.0, 3, 4), 1000.0);
  const double t2 = ladder_temperature(ladder, 0.0, 2, 4);
  const double t1 = ladder_temperature(ladder, 0.0, 1, 4);
  EXPECT_DOUBLE_EQ(t2 / 1000.0, t1 / t2);
  EXPECT_LT(t1, t2);
  EXPECT_LT(t2, 1000.0);
}

TEST(Controller, NudgesTowardTheAcceptanceBandAndClamps) {
  // Hot replica accepting everything is pure noise: cool it.
  EXPECT_LT(adapt_temperature(100.0, 1000, 1000, 3, 4), 100.0);
  // Hot replica accepting nothing is frozen: heat it.
  EXPECT_GT(adapt_temperature(100.0, 1000, 0, 3, 4), 100.0);
  // Replica 0 and zero-temperature replicas are never adapted, nor is
  // anything adapted on an empty epoch.
  EXPECT_EQ(adapt_temperature(100.0, 1000, 1000, 0, 4), 100.0);
  EXPECT_EQ(adapt_temperature(0.0, 1000, 1000, 2, 4), 0.0);
  EXPECT_EQ(adapt_temperature(100.0, 0, 0, 2, 4), 100.0);
  // Repeated one-sided epochs saturate at the clamp, not at inf/0.
  double hot = 100.0;
  double cold = 100.0;
  for (int epoch = 0; epoch < 200; ++epoch) {
    hot = adapt_temperature(hot, 1000, 0, 3, 4);
    cold = adapt_temperature(cold, 1000, 1000, 3, 4);
  }
  EXPECT_LE(hot, 1e9);
  EXPECT_GE(cold, 1e-6);
}

class LadderRunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Rng rng(91);
    const Graph source = builders::gnm(40, 90, rng);
    target_ = dk::extract(source, 3);
    util::Rng boot(17);
    start_ = matching_1k(target_.degree, boot);
    options_.attempts = 2400;
  }

  RunCheckpoint make_ladder(std::uint64_t seed, std::size_t replicas,
                            std::uint64_t epoch) {
    util::Rng rng(seed);
    LadderOptions ladder;
    ladder.replicas = replicas;
    ladder.exchange_every = epoch;
    ladder.top_temperature = 50.0;
    return make_2k_ladder_run(start_, options_, ladder,
                              /*checkpoint_every=*/epoch, rng);
  }

  dk::DkDistributions target_;
  Graph start_;
  TargetingOptions options_;
};

TEST_F(LadderRunTest, ReplicaStreamsIndependentOfLadderShape) {
  // Chain i's Rng stream must not depend on the ladder size or the
  // exchange cadence — the exchange stream is a DEDICATED stream id,
  // not a draw interleaved into the replica streams.
  const RunCheckpoint two = make_ladder(5, 2, 300);
  const RunCheckpoint four = make_ladder(5, 4, 300);
  const RunCheckpoint other_epoch = make_ladder(5, 4, 600);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(two.chains[i].rng_state, four.chains[i].rng_state) << i;
  }
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(four.chains[i].rng_state, other_epoch.chains[i].rng_state) << i;
  }
  // A plain (non-laddered) run of the same seed and chain count walks
  // the very same replica streams.
  util::Rng rng(5);
  const RunCheckpoint plain = make_2k_run(start_, options_, 300, rng,
                                          {.chains = 4});
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(plain.chains[i].rng_state, four.chains[i].rng_state) << i;
  }
  // The exchange stream is a pure function of chain 0's seed state and
  // collides with no replica stream.
  const auto expected = util::Rng::from_state_words(four.chains[0].rng_state)
                            .stream(kExchangeStreamId)
                            .state_words();
  EXPECT_EQ(four.exchange_rng, expected);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NE(four.exchange_rng, four.chains[i].rng_state) << i;
  }
}

TEST_F(LadderRunTest, CheckpointCadenceSnapsUpToTheEpochGrid) {
  util::Rng rng(5);
  LadderOptions ladder;
  ladder.replicas = 3;
  ladder.exchange_every = 400;
  RunCheckpoint state = make_2k_ladder_run(start_, options_, ladder,
                                           /*checkpoint_every=*/500, rng);
  EXPECT_EQ(state.checkpoint_every, 800u);
  EXPECT_EQ(state.checkpoint_every % state.exchange_every, 0u);
}

TEST_F(LadderRunTest, BitIdenticalAcrossPoolSizesWithEqualMetrics) {
  // The acceptance criterion of the determinism contract: the SAME
  // laddered run on a 1-thread and a 4-thread pool — identical final
  // edges, per-chain stats/temperatures, exchange counters, and the
  // same anneal.* metric increments.
  auto& attempts_counter =
      obs::Registry::global().counter("anneal.exchange_attempts");
  auto& accepts_counter =
      obs::Registry::global().counter("anneal.exchange_accepts");

  struct Observed {
    CheckpointedResult result;
    RunCheckpoint state;
    std::uint64_t metric_attempts = 0;
    std::uint64_t metric_accepts = 0;
  };
  const auto run_with_pool = [&](std::size_t pool_size) {
    Observed out;
    out.state = make_ladder(5, 4, 300);
    exec::ThreadPool pool(pool_size);
    CheckpointOptions checkpointing;
    checkpointing.pool = &pool;
    const std::uint64_t attempts_before = attempts_counter.value();
    const std::uint64_t accepts_before = accepts_counter.value();
    out.result =
        run_checkpointed_2k(out.state, target_.joint, options_, checkpointing);
    out.metric_attempts = attempts_counter.value() - attempts_before;
    out.metric_accepts = accepts_counter.value() - accepts_before;
    return out;
  };

  const Observed serial = run_with_pool(1);
  const Observed wide = run_with_pool(4);

  ASSERT_EQ(serial.state.chains.size(), wide.state.chains.size());
  for (std::size_t i = 0; i < serial.state.chains.size(); ++i) {
    const auto& a = serial.state.chains[i];
    const auto& b = wide.state.chains[i];
    EXPECT_EQ(a.distance, b.distance) << i;
    EXPECT_EQ(a.temperature, b.temperature) << i;
    EXPECT_EQ(a.rng_state, b.rng_state) << i;
    EXPECT_EQ(a.stats.attempts, b.stats.attempts) << i;
    EXPECT_EQ(a.stats.accepted, b.stats.accepted) << i;
    ASSERT_EQ(a.graph.num_edges(), b.graph.num_edges()) << i;
    for (std::size_t e = 0; e < a.graph.edges().size(); ++e) {
      EXPECT_EQ(a.graph.edges()[e].u, b.graph.edges()[e].u);
      EXPECT_EQ(a.graph.edges()[e].v, b.graph.edges()[e].v);
    }
  }
  EXPECT_EQ(serial.result.best_chain, wide.result.best_chain);
  EXPECT_EQ(serial.result.best_distance, wide.result.best_distance);

  // Exchanges actually happened, and the published metrics agree with
  // the run's own counters on both pools.
  EXPECT_GT(serial.state.exchange_attempted, 0u);
  EXPECT_EQ(serial.state.exchange_attempted, wide.state.exchange_attempted);
  EXPECT_EQ(serial.state.exchange_accepted, wide.state.exchange_accepted);
  EXPECT_EQ(serial.metric_attempts, serial.state.exchange_attempted);
  EXPECT_EQ(serial.metric_accepts, serial.state.exchange_accepted);
  EXPECT_EQ(wide.metric_attempts, serial.metric_attempts);
  EXPECT_EQ(wide.metric_accepts, serial.metric_accepts);
}

TEST_F(LadderRunTest, EpochPassSwapsOnlyConfigurations) {
  RunCheckpoint state = make_ladder(9, 3, 300);
  // Force a certain exchange on pair (0,1): the hot slot holds a
  // strictly better configuration, the cold slot is greedy.
  state.chains[0].distance = 100;
  state.chains[1].distance = 10;
  const Graph cold_graph = state.chains[0].graph;
  const Graph hot_graph = state.chains[1].graph;
  const auto cold_rng = state.chains[0].rng_state;
  const auto hot_rng = state.chains[1].rng_state;
  const double cold_temp = state.chains[0].temperature;
  const double hot_temp = state.chains[1].temperature;

  run_ladder_epoch_pass(state, /*epoch_index=*/0,
                        std::vector<RewiringStats>(state.chains.size()));

  EXPECT_EQ(state.chains[0].distance, 10);
  EXPECT_EQ(state.chains[1].distance, 100);
  EXPECT_EQ(state.chains[0].graph.edges()[0].u, hot_graph.edges()[0].u);
  EXPECT_EQ(state.chains[1].graph.edges()[0].u, cold_graph.edges()[0].u);
  // Temperatures and Rng streams stay with their slots.
  EXPECT_EQ(state.chains[0].temperature, cold_temp);
  EXPECT_EQ(state.chains[1].temperature, hot_temp);
  EXPECT_EQ(state.chains[0].rng_state, cold_rng);
  EXPECT_EQ(state.chains[1].rng_state, hot_rng);
  EXPECT_EQ(state.exchange_attempted, 1u);  // even parity: pair (0,1) only
  EXPECT_EQ(state.exchange_accepted, 1u);
}

TEST_F(LadderRunTest, TradeMovesPreserveTheJdd) {
  // Curveball trades re-deal neighborhoods between same-degree-class
  // nodes: a pure-trade chain leaves the joint degree distribution
  // invariant.  (Mixed chains include plain 1K-preserving swaps, which
  // move the JDD by design at d = 2 — the mixed invariant lives one
  // level up, in Mixed3KTargetingPreserves2K.)
  const auto jdd = dk::JointDegreeDistribution::from_graph(start_);
  RandomizeOptions shuffle;
  shuffle.d = 2;
  shuffle.move = MoveKind::trade;
  shuffle.attempts = 2400;
  util::Rng rng(33);
  RewiringStats stats;
  const Graph out = randomize(start_, shuffle, rng, &stats);
  EXPECT_EQ(dk::JointDegreeDistribution::from_graph(out), jdd);
  EXPECT_GT(stats.accepted, 0u);
  EXPECT_FALSE(out == start_);

  // For the same reason D2 can never fall under trades alone, so a
  // trade-only 2K targeting ladder is refused before any leg runs.
  TargetingOptions options = options_;
  options.move = MoveKind::trade;
  LadderOptions ladder;
  ladder.replicas = 2;
  ladder.exchange_every = 400;
  ladder.top_temperature = 20.0;
  RunCheckpoint state = make_2k_ladder_run(start_, options, ladder, 0, rng);
  EXPECT_THROW(run_checkpointed_2k(state, target_.joint, options, {}),
               std::invalid_argument);
  for (const ChainCheckpoint& chain : state.chains) {
    EXPECT_EQ(chain.attempts_done, 0u);
  }
}

TEST_F(LadderRunTest, Mixed3KTargetingPreserves2K) {
  // 3K moves must stay 2K-preserving whatever the move mix: the 2K
  // distributions of the start graph survive a mixed laddered 3K run.
  util::Rng boot(29);
  const Graph start3 = target_2k(start_, target_.joint, options_, boot);
  const auto jdd = dk::JointDegreeDistribution::from_graph(start3);

  TargetingOptions options3 = options_;
  options3.move = MoveKind::mixed;
  options3.attempts = 1500;
  LadderOptions ladder;
  ladder.replicas = 2;
  ladder.exchange_every = 300;
  ladder.top_temperature = 20.0;
  util::Rng rng(44);
  RunCheckpoint state = make_3k_ladder_run(start3, options3, ladder, 0, rng);
  const Graph out =
      run_checkpointed_3k(state, target_.three_k, options3, {}).graph;
  EXPECT_EQ(dk::JointDegreeDistribution::from_graph(out), jdd);
}

}  // namespace
}  // namespace orbis::gen
