// Telemetry must only OBSERVE: a run with progress sinks, tracing and
// metrics scraping enabled produces the byte-identical graph of a run
// with everything off.  This is the determinism contract every obs/
// hook point was placed under (docs/observability.md) — sinks fire at
// the batch boundaries where StopToken is already polled, spans never
// touch engine state, and metrics are published as post-hoc deltas.
#include <gtest/gtest.h>

#include <vector>

#include "core/series.hpp"
#include "gen/checkpoint.hpp"
#include "gen/generate.hpp"
#include "gen/rewiring.hpp"
#include "gen/rewiring_engine.hpp"
#include "graph/builders.hpp"
#include "graph/graph.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace orbis {
namespace {

std::vector<Edge> edge_list(const Graph& g) {
  std::vector<Edge> edges;
  edges.reserve(g.num_edges());
  for (std::size_t i = 0; i < g.num_edges(); ++i) {
    edges.push_back(g.edge_at(i));
  }
  return edges;
}

void expect_identical(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  const auto ea = edge_list(a);
  const auto eb = edge_list(b);
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].u, eb[i].u) << "edge slot " << i;
    EXPECT_EQ(ea[i].v, eb[i].v) << "edge slot " << i;
  }
}

class TelemetryDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Rng rng(99);
    start_ = builders::gnm(60, 150, rng);
    // An independent draw with the same size: a reachable but nontrivial
    // target, so chains keep accepting for the whole budget.
    target_graph_ = builders::gnm(60, 150, rng);
  }
  Graph start_;
  Graph target_graph_;
};

TEST_F(TelemetryDeterminismTest, Target2kIdenticalWithTelemetryOn) {
  const auto target = dk::extract(target_graph_, 2).joint;
  gen::TargetingOptions options;
  options.attempts = 50000;

  const auto run = [&](const svc::RunContext& ctx) {
    gen::RewiringEngine engine(start_);
    util::Rng rng(7);
    engine.target_2k(target, options, options.attempts, rng, nullptr, ctx);
    return engine.graph();
  };
  const Graph off = run({});

  obs::Tracer::global().enable();
  obs::TrajectoryRecorder trajectory;
  svc::RunContext observed;
  observed.progress = &trajectory;
  const Graph on = run(observed);
  obs::Tracer::global().disable();

  expect_identical(off, on);
  // The sink really fired: the budget crosses many poll boundaries.
  EXPECT_GT(trajectory.points(0).size(), 0u);
}

TEST_F(TelemetryDeterminismTest, RandomizeIdenticalWithTelemetryOn) {
  gen::RandomizeOptions options;
  options.d = 2;
  options.attempts = 30000;

  svc::RunContext ctx;
  ctx.seed = 21;
  const Graph off = gen::dk_random_like(start_, 2, options, ctx);

  obs::TrajectoryRecorder trajectory;
  obs::ProgressTee tee({&trajectory});
  svc::RunContext observed = ctx;
  observed.progress = &tee;
  const Graph on = gen::dk_random_like(start_, 2, options, observed);

  expect_identical(off, on);
}

TEST_F(TelemetryDeterminismTest, MultichainLanesIdenticalWithTelemetryOn) {
  const auto target = dk::extract(target_graph_, 2).joint;
  gen::TargetingOptions options;
  options.attempts = 20000;
  svc::RunContext ctx;
  ctx.chains = 3;
  const auto run = [&](const svc::RunContext& run_ctx) {
    util::Rng rng(31);
    gen::RunCheckpoint state =
        gen::make_2k_run(start_, options, 5000, rng, run_ctx);
    return gen::run_checkpointed_2k(state, target, options, {}, run_ctx)
        .graph;
  };

  const Graph off = run(ctx);
  obs::TrajectoryRecorder trajectory;
  svc::RunContext observed = ctx;
  observed.progress = &trajectory;
  const Graph on = run(observed);

  expect_identical(off, on);
  // Each chain reported under its own lane.
  EXPECT_EQ(trajectory.lane_count(), 3u);
}

}  // namespace
}  // namespace orbis
