// gen::Pipeline (gen/pipeline.hpp): the one 1K -> 2K -> 3K stage machine.
// Seeding order, scheduling independence, error propagation out of the
// chains, step() == run(), and option combinations rejected before any
// stage runs.
#include "gen/pipeline.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/series.hpp"
#include "exec/thread_pool.hpp"
#include "gen/matching.hpp"
#include "graph/builders.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "util/rng.hpp"

namespace orbis::gen {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Rng rng(41);
    target_ = dk::extract(builders::gnm(40, 90, rng), 3);
    options_.d = 3;
    ctx_.chains = 2;
    options_.targeting.attempts = 1200;
  }

  dk::DkDistributions target_;
  PipelineOptions options_;
  svc::RunContext ctx_;
};

TEST_F(PipelineTest, SeedingDrawsMatchingThenOneMasterPerStage) {
  Pipeline pipeline(target_, options_, util::Rng(7), ctx_);

  util::Rng reference(7);
  const Graph seed = matching_1k(target_.degree, reference);
  const util::Rng master_2k(reference.next());
  const RunCheckpoint& state = pipeline.checkpoint();
  ASSERT_EQ(state.chains.size(), 2u);
  for (std::size_t i = 0; i < state.chains.size(); ++i) {
    EXPECT_EQ(state.chains[i].rng_state, master_2k.stream(i).state_words());
    EXPECT_TRUE(state.chains[i].graph == seed);
  }
  EXPECT_EQ(state.pipeline_rng, reference.state_words());
  // Default cadence: budget / 8.
  EXPECT_EQ(state.checkpoint_every, 150u);

  // Step to the stage boundary: the 3K master is the next draw.
  while (pipeline.checkpoint().d == 2) pipeline.step({});
  const util::Rng master_3k(reference.next());
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(pipeline.checkpoint().chains[i].rng_state,
              master_3k.stream(i).state_words());
  }
  EXPECT_EQ(pipeline.checkpoint().pipeline_rng, reference.state_words());
}

TEST_F(PipelineTest, MakeRunAdvancesCallerRngExactlyOnce) {
  util::Rng boot(1);
  const Graph start = matching_1k(target_.degree, boot);
  for (const std::size_t chains : {1u, 5u}) {
    util::Rng rng(77);
    make_2k_run(start, options_.targeting, 100, rng, {.chains = chains});
    util::Rng reference(77);
    (void)reference.next();
    for (int i = 0; i < 16; ++i) EXPECT_EQ(rng.next(), reference.next());
  }
}

TEST_F(PipelineTest, ResultsAreIdenticalAcrossPoolSizes) {
  // More chains than threads: every chain must still run its full
  // budget, and the result must not depend on the pool.
  ctx_.chains = 6;
  const auto run_with_pool = [&](std::size_t threads) {
    exec::ThreadPool pool(threads);
    Pipeline pipeline(target_, options_, util::Rng(1234), ctx_);
    CheckpointOptions checkpointing;
    checkpointing.pool = &pool;
    EXPECT_TRUE(pipeline.run(checkpointing));
    for (const ChainCheckpoint& chain : pipeline.checkpoint().chains) {
      EXPECT_EQ(chain.attempts_done, 1200u);
    }
    return pipeline;
  };
  const Pipeline serial = run_with_pool(1);
  const Pipeline parallel = run_with_pool(4);
  EXPECT_TRUE(serial.graph() == parallel.graph());
  ASSERT_EQ(serial.stages().size(), 2u);
  for (std::size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(serial.stages()[s].result.total_stats,
              parallel.stages()[s].result.total_stats);
    EXPECT_EQ(serial.stages()[s].result.best_chain,
              parallel.stages()[s].result.best_chain);
  }
  // Distinct chains walk distinct streams.
  const auto& chains = serial.checkpoint().chains;
  for (std::size_t i = 1; i < chains.size(); ++i) {
    EXPECT_NE(chains[0].rng_state, chains[i].rng_state) << i;
  }
}

TEST_F(PipelineTest, ChainExceptionsPropagate) {
  // A progress sink that fails on chain 1's lane: the failure must
  // surface from run(), not vanish on a pool thread.
  struct FailingSink : obs::ProgressSink {
    void report(std::uint32_t lane, const obs::ProgressSample&) override {
      if (lane == 1) throw std::runtime_error("chain 1 died");
    }
  } sink;
  ctx_.progress = &sink;
  Pipeline pipeline(target_, options_, util::Rng(6), ctx_);
  EXPECT_THROW(pipeline.run({}), std::runtime_error);
}

TEST_F(PipelineTest, SteppingLegByLegEqualsOneRun) {
  Pipeline whole(target_, options_, util::Rng(9), ctx_);
  ASSERT_TRUE(whole.run({}));
  Pipeline stepped(target_, options_, util::Rng(9), ctx_);
  std::size_t steps = 1;
  Graph two_k;
  while (!stepped.step({})) {
    ++steps;
    if (stepped.checkpoint().d == 3 && two_k.num_nodes() == 0) {
      two_k = stepped.graph();  // the 2K stage's best chain
    }
  }
  EXPECT_EQ(steps, 16u);  // 8 legs per stage
  EXPECT_TRUE(whole.graph() == stepped.graph());
  EXPECT_EQ(whole.stages().back().result.total_stats,
            stepped.stages().back().result.total_stats);
  // The 3K stage preserves the JDD the 2K stage reached.
  EXPECT_EQ(dk::JointDegreeDistribution::from_graph(whole.graph()),
            dk::JointDegreeDistribution::from_graph(two_k));
}

TEST_F(PipelineTest, BadCombinationsAreRejectedBeforeAnyStageRuns) {
  obs::Counter& attempts = obs::Registry::global().counter("rewire.attempts");
  const std::uint64_t before = attempts.value();
  const auto rejects = [&](PipelineOptions options, svc::RunContext ctx) {
    EXPECT_THROW(Pipeline(target_, options, util::Rng(1), ctx),
                 std::invalid_argument);
  };
  PipelineOptions options = options_;
  svc::RunContext ctx = ctx_;
  options.d = 4;
  rejects(options, ctx);
  options = options_;
  ctx.chains = 0;
  options.ladder.replicas = 1;
  rejects(options, ctx);
  options.ladder.replicas = 3;
  ctx.chains = 2;
  rejects(options, ctx);  // ladder and chains
  options = options_;
  options.ladder.exchange_every = 100;
  rejects(options, ctx);  // epoch without a ladder
  options = options_;
  options.targeting.attempts = 0;
  options.targeting.attempts_per_edge = std::uint64_t{1} << 62;
  rejects(options, ctx);  // attempts_per_edge x 90 edges wraps
  // ... also on a 1K target no seed can realize (odd degree sum): the
  // budget is checked before the 1K seed runs.
  {
    dk::DkDistributions odd = target_;
    odd.degree = dk::DegreeDistribution::from_sequence({3, 3, 3, 3, 3});
    EXPECT_THROW(Pipeline(odd, options, util::Rng(1), ctx),
                 std::invalid_argument);
  }
  options = options_;
  options.targeting.move = MoveKind::trade;
  for (const int d : {2, 3}) {
    options.d = d;
    rejects(options, ctx);  // the 2K stage cannot lower D2 by trades
  }
  EXPECT_EQ(attempts.value(), before);

  // A mixed move stream is fine at either level.
  options.targeting.move = MoveKind::mixed;
  for (const int d : {2, 3}) {
    options.d = d;
    EXPECT_NO_THROW(Pipeline(target_, options, util::Rng(1), ctx));
  }
}

}  // namespace
}  // namespace orbis::gen
