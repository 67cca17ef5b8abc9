// Cooperative cancellation (util/stop_token.hpp): serial chains, the
// pipeline and the checkpointed leg driver all wind down at
// batch boundaries without corrupting state.
#include "util/stop_token.hpp"

#include <gtest/gtest.h>

#include "core/series.hpp"
#include "gen/checkpoint.hpp"
#include "gen/generate.hpp"
#include "gen/matching.hpp"
#include "gen/pipeline.hpp"
#include "gen/rewiring.hpp"
#include "gen/rewiring_engine.hpp"
#include "graph/builders.hpp"
#include "util/rng.hpp"

namespace orbis {
namespace {

TEST(StopToken, DefaultTokenNeverStops) {
  util::StopToken token;
  EXPECT_FALSE(token.stop_possible());
  EXPECT_FALSE(token.stop_requested());
}

TEST(StopToken, SourceFlipsAllItsTokens) {
  util::StopSource source;
  util::StopToken token = source.token();
  util::StopToken copy = token;  // tokens are cheap non-owning views
  EXPECT_TRUE(token.stop_possible());
  EXPECT_FALSE(token.stop_requested());
  source.request_stop();
  EXPECT_TRUE(token.stop_requested());
  EXPECT_TRUE(copy.stop_requested());
  source.reset();
  EXPECT_FALSE(token.stop_requested());
}

class CancellationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Rng rng(91);
    source_ = builders::gnm(40, 90, rng);
    target_ = dk::extract(source_, 3);
  }
  Graph source_;
  dk::DkDistributions target_;
};

TEST_F(CancellationTest, PreRequestedStopEndsRandomizeBeforeAnyAttempt) {
  util::StopSource stop;
  stop.request_stop();
  gen::RandomizeOptions options;
  svc::RunContext ctx;
  ctx.seed = 4;
  ctx.stop = stop.token();
  // Every level runs the one attempt loop, d = 0 included.
  for (const int d : {0, 1, 2, 3}) {
    gen::RewiringStats stats;
    const Graph result =
        gen::dk_random_like(source_, d, options, ctx, &stats);
    // The poll fires at the first batch boundary (attempt 0): no swaps.
    EXPECT_EQ(stats.attempts, 0u) << "d " << d;
    EXPECT_TRUE(result == source_) << "d " << d;
  }
}

TEST_F(CancellationTest, PreRequestedStopEndsTargetingBeforeAnyAttempt) {
  util::StopSource stop;
  stop.request_stop();
  gen::TargetingOptions options;
  svc::RunContext ctx;
  ctx.stop = stop.token();
  util::Rng boot(17);
  const Graph start = gen::matching_1k(target_.degree, boot);
  util::Rng rng(4);
  gen::RewiringStats stats;
  gen::RewiringEngine engine(start);
  engine.target_2k(target_.joint, options, 5000, rng, &stats, ctx);
  EXPECT_EQ(stats.attempts, 0u);
}

TEST_F(CancellationTest, CheckpointedRunStopsAtTheBoundaryItWasAskedTo) {
  util::Rng boot(17);
  const Graph start = gen::matching_1k(target_.degree, boot);
  gen::TargetingOptions options;
  options.attempts = 2000;

  util::Rng rng(9);
  gen::RunCheckpoint state =
      gen::make_2k_run(start, options, /*checkpoint_every=*/250, rng,
                       {.chains = 2});

  util::StopSource stop;
  svc::RunContext ctx;
  ctx.stop = stop.token();
  gen::CheckpointOptions checkpointing;
  std::size_t checkpoints = 0;
  checkpointing.on_checkpoint = [&](const gen::RunCheckpoint& snapshot) {
    // Every published snapshot sits exactly on a leg boundary.
    EXPECT_EQ(snapshot.chains[0].attempts_done % 250, 0u);
    if (++checkpoints == 3) stop.request_stop();
  };
  const auto result = gen::run_checkpointed_2k(state, target_.joint, options,
                                               checkpointing, ctx);

  EXPECT_TRUE(result.interrupted);
  EXPECT_EQ(checkpoints, 3u);
  // The returned state is AT the third boundary — the interrupted leg's
  // partial work was discarded, never published.
  EXPECT_EQ(result.attempts_done, 3u * 250u);
  for (const auto& chain : state.chains) {
    EXPECT_EQ(chain.attempts_done, 3u * 250u);
  }
}

TEST_F(CancellationTest, InterruptBeforeFirstLegPublishesNothing) {
  util::Rng boot(17);
  const Graph start = gen::matching_1k(target_.degree, boot);
  gen::TargetingOptions options;
  options.attempts = 1000;

  util::Rng rng(9);
  gen::RunCheckpoint state =
      gen::make_2k_run(start, options, /*checkpoint_every=*/250, rng,
                       {.chains = 2});

  util::StopSource stop;
  stop.request_stop();
  svc::RunContext ctx;
  ctx.stop = stop.token();
  gen::CheckpointOptions checkpointing;
  bool published = false;
  checkpointing.on_checkpoint = [&](const gen::RunCheckpoint&) {
    published = true;
  };
  const auto result = gen::run_checkpointed_2k(state, target_.joint, options,
                                               checkpointing, ctx);
  EXPECT_TRUE(result.interrupted);
  EXPECT_FALSE(published);
  EXPECT_EQ(result.attempts_done, 0u);
}

TEST_F(CancellationTest, PipelineRunHonorsStopToken) {
  gen::PipelineOptions options;
  options.d = 3;
  options.targeting.attempts = 2000;
  util::StopSource stop;
  stop.request_stop();
  svc::RunContext ctx;
  ctx.chains = 2;
  ctx.stop = stop.token();
  gen::Pipeline pipeline(target_, options, util::Rng(4), ctx);
  // The pipeline polls the token at leg boundaries and its chains at
  // their batch boundaries; with the stop pre-requested it returns
  // before the first leg, still in the 2K stage, with a valid graph.
  EXPECT_FALSE(pipeline.run({}));
  EXPECT_TRUE(pipeline.result().interrupted);
  EXPECT_EQ(pipeline.checkpoint().d, 2);
  EXPECT_EQ(pipeline.checkpoint().chains[0].attempts_done, 0u);
  EXPECT_EQ(pipeline.graph().num_edges(),
            static_cast<std::size_t>(target_.joint.num_edges()));
}

}  // namespace
}  // namespace orbis
