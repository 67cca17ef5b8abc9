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
#include "gen/rewiring.hpp"
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

  util::Rng rng_off(7);
  const Graph off = gen::target_2k(start_, target, options, rng_off);

  obs::Tracer::global().enable();
  obs::TrajectoryRecorder trajectory;
  gen::TargetingOptions observed = options;
  observed.progress = &trajectory;
  util::Rng rng_on(7);
  const Graph on = gen::target_2k(start_, target, observed, rng_on);
  obs::Tracer::global().disable();

  expect_identical(off, on);
  // The sink really fired: the budget crosses many poll boundaries.
  EXPECT_GT(trajectory.points(0).size(), 0u);
}

TEST_F(TelemetryDeterminismTest, Target3kParallelIdenticalWithTelemetryOn) {
  const auto target = dk::ThreeKProfile::from_graph(target_graph_);
  gen::TargetingOptions options;
  options.attempts = 20000;
  options.workers = 2;  // speculative parallel path, round-boundary hooks

  util::Rng rng_off(13);
  const Graph off = gen::target_3k(start_, target, options, rng_off);

  obs::Tracer::global().enable();
  obs::TrajectoryRecorder trajectory;
  gen::TargetingOptions observed = options;
  observed.progress = &trajectory;
  util::Rng rng_on(13);
  const Graph on = gen::target_3k(start_, target, observed, rng_on);
  obs::Tracer::global().disable();

  expect_identical(off, on);
}

TEST_F(TelemetryDeterminismTest, RandomizeIdenticalWithTelemetryOn) {
  gen::RandomizeOptions options;
  options.d = 2;
  options.attempts = 30000;

  util::Rng rng_off(21);
  const Graph off = gen::randomize(start_, options, rng_off);

  obs::TrajectoryRecorder trajectory;
  obs::ProgressTee tee({&trajectory});
  gen::RandomizeOptions observed = options;
  observed.progress = &tee;
  util::Rng rng_on(21);
  const Graph on = gen::randomize(start_, observed, rng_on);

  expect_identical(off, on);
}

TEST_F(TelemetryDeterminismTest, MultichainLanesIdenticalWithTelemetryOn) {
  const auto target = dk::extract(target_graph_, 2).joint;
  gen::TargetingOptions options;
  options.attempts = 20000;
  const gen::MultiChainOptions chains{.chains = 3};
  const auto run = [&](const gen::TargetingOptions& targeting) {
    util::Rng rng(31);
    gen::RunCheckpoint state =
        gen::make_2k_run(start_, targeting, chains, 5000, rng);
    return gen::run_checkpointed_2k(state, target, targeting, {}).graph;
  };

  const Graph off = run(options);
  obs::TrajectoryRecorder trajectory;
  gen::TargetingOptions observed = options;
  observed.progress = &trajectory;
  const Graph on = run(observed);

  expect_identical(off, on);
  // Each chain reported under its own lane.
  EXPECT_EQ(trajectory.lane_count(), 3u);
}

}  // namespace
}  // namespace orbis
