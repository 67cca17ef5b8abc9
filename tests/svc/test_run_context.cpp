// The execution-context contract (src/svc/run_context.hpp): the
// ctx-seeded forms equal the Rng forms with Rng(ctx.seed), cancellation
// flows through ctx.stop, progress through ctx.progress, and a worker
// count other than 1 is refused where it is assigned.
#include <gtest/gtest.h>

#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/series.hpp"
#include "gen/generate.hpp"
#include "graph/builders.hpp"
#include "metrics/summary.hpp"
#include "obs/progress.hpp"
#include "svc/run_context.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"
#include "util/stop_token.hpp"

namespace orbis::svc {
namespace {

Graph sample_graph(std::uint64_t seed) {
  util::Rng rng(seed);
  return builders::gnm(60, 150, rng);
}

TEST(RunContext, MakeRngIsAPureFunctionOfTheSeed) {
  RunContext a;
  a.seed = 42;
  RunContext b;
  b.seed = 42;
  util::Rng rng_a = a.make_rng();
  util::Rng rng_b = b.make_rng();
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(rng_a.next(), rng_b.next());
  }
}

TEST(RunContext, RegistryResolvesToGlobalWhenUnset) {
  RunContext ctx;
  EXPECT_EQ(&ctx.registry(), &obs::Registry::global());
  obs::Registry own;
  ctx.metrics = &own;
  EXPECT_EQ(&ctx.registry(), &own);
}

TEST(RunContext, GenerateContextOverloadMatchesRngForm) {
  const Graph original = sample_graph(3);
  const dk::DkDistributions target = dk::extract(original, 2);

  RunContext ctx;
  ctx.seed = 17;
  ctx.chains = 1;
  gen::GenerateOptions options;
  options.method = gen::Method::targeting;
  options.targeting.attempts = 2000;
  const Graph from_ctx = gen::generate_dk_random(target, 2, options, ctx);

  util::Rng rng(ctx.seed);
  const Graph from_rng = gen::generate_dk_random(target, 2, options, rng, ctx);

  EXPECT_TRUE(from_ctx == from_rng);
}

TEST(RunContext, DkRandomLikeContextOverloadMatchesRngForm) {
  const Graph original = sample_graph(5);
  RunContext ctx;
  ctx.seed = 23;
  const Graph from_ctx = gen::dk_random_like(original, 1, ctx);

  // The options-taking context overload, and the randomize call it
  // equals under a default context.
  const Graph from_options =
      gen::dk_random_like(original, 1, gen::RandomizeOptions{}, ctx);
  gen::RandomizeOptions options;
  options.d = 1;
  util::Rng rng(ctx.seed);
  const Graph from_rng = gen::randomize(original, options, rng);

  EXPECT_TRUE(from_ctx == from_options);
  EXPECT_TRUE(from_ctx == from_rng);
  EXPECT_EQ(from_ctx.num_edges(), original.num_edges());
}

TEST(RunContext, DkRandomLikeReportsProgressThroughTheContext) {
  struct RecordingSink : obs::ProgressSink {
    std::mutex mutex;
    std::vector<std::uint32_t> lanes;
    void report(std::uint32_t lane, const obs::ProgressSample&) override {
      std::lock_guard<std::mutex> guard(mutex);
      lanes.push_back(lane);
    }
  } sink;

  const Graph original = sample_graph(7);
  RunContext ctx;
  ctx.seed = 29;
  ctx.progress = &sink;
  gen::RandomizeOptions options;
  const Graph rewired = gen::dk_random_like(original, 2, options, ctx);
  EXPECT_EQ(rewired.num_edges(), original.num_edges());
  EXPECT_FALSE(sink.lanes.empty());
}

TEST(RunContext, WorkerFieldsHoldOnlyOne) {
  // Each chain is serial: the three surviving `workers` fields take 1
  // and refuse anything else at the assignment, so no entry point can
  // silently ignore a worker count.
  RunContext ctx;
  gen::TargetingOptions targeting;
  gen::RandomizeOptions randomize;
  EXPECT_NO_THROW(ctx.workers = 1);
  EXPECT_NO_THROW(targeting.workers = 1);
  EXPECT_NO_THROW(randomize.workers = 1);
  EXPECT_THROW(ctx.workers = 2, std::invalid_argument);
  EXPECT_THROW(targeting.workers = 2, std::invalid_argument);
  EXPECT_THROW(randomize.workers = 0, std::invalid_argument);
  // The message points at what replaces speculative evaluation.
  try {
    ctx.workers = 4;
    ADD_FAILURE() << "workers = 4 was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("--chains"), std::string::npos);
  }
}

TEST(RunContext, MetricsHonorStopThroughTheContext) {
  const Graph g = sample_graph(11);
  util::StopSource stop;
  stop.request_stop();
  RunContext ctx;
  ctx.stop = stop.token();
  EXPECT_THROW(
      metrics::compute_scalar_metrics(g, metrics::SummaryOptions{}, ctx),
      InterruptedError);
}

TEST(RunContext, MetricsContextOverloadMatchesDirectCall) {
  const Graph g = sample_graph(13);
  const metrics::ScalarMetrics direct = metrics::compute_scalar_metrics(g);
  const metrics::ScalarMetrics via_ctx =
      metrics::compute_scalar_metrics(g, metrics::SummaryOptions{},
                                      RunContext{});
  EXPECT_DOUBLE_EQ(via_ctx.assortativity, direct.assortativity);
  EXPECT_DOUBLE_EQ(via_ctx.mean_clustering, direct.mean_clustering);
  EXPECT_DOUBLE_EQ(via_ctx.mean_distance, direct.mean_distance);
  EXPECT_EQ(via_ctx.gcc_nodes, direct.gcc_nodes);
}

TEST(RunContext, GenerateReturnsBestSoFarOnPreRequestedStop) {
  const Graph original = sample_graph(17);
  const dk::DkDistributions target = dk::extract(original, 2);
  util::StopSource stop;
  stop.request_stop();
  RunContext ctx;
  ctx.seed = 31;
  ctx.chains = 1;
  ctx.stop = stop.token();
  gen::GenerateOptions options;
  options.method = gen::Method::targeting;
  options.targeting.attempts = 100000;
  // A pre-stopped context must come back promptly with a valid graph,
  // not run the full budget and not throw.
  const Graph g = gen::generate_dk_random(target, 2, options, ctx);
  EXPECT_GT(g.num_nodes(), 0u);
}

}  // namespace
}  // namespace orbis::svc
