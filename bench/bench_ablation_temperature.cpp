// Ablation (paper §4.1.4): the temperature knob of dK-targeting
// d'K-preserving rewiring interpolates between pure randomizing (T→∞)
// and greedy targeting (T→0).  Following Maslov et al.'s ergodicity
// methodology, we cool the system and track a metric that distinguishes
// dK- from d'K-graphs (the D2 distance itself plus clustering): a smooth,
// monotone-ish curve without jumps indicates an ergodic process.
//
// The sweep runs one independent chain per temperature and records the
// cumulative acceptance trajectory of each run through an
// obs::TrajectoryRecorder, so the acceptance/temperature coupling is
// visible as data.
#include <cstdio>
#include <vector>

#include "common/bench_common.hpp"
#include "core/series.hpp"
#include "gen/matching.hpp"
#include "gen/rewiring.hpp"
#include "gen/rewiring_engine.hpp"
#include "metrics/clustering.hpp"
#include "obs/progress.hpp"

namespace {

using namespace orbis;

// Forwards each progress sample with the objective replaced by the
// CUMULATIVE acceptance rate, so a stock TrajectoryRecorder (bounded
// memory, per-lane stride thinning) stores acceptance-vs-attempts
// traces instead of objective-vs-attempts ones.
class AcceptanceTrace : public obs::ProgressSink {
 public:
  explicit AcceptanceTrace(std::size_t max_samples = 256)
      : recorder_(max_samples) {}

  void report(std::uint32_t lane, const obs::ProgressSample& sample) override {
    if (sample.attempts == 0) return;
    obs::ProgressSample acceptance = sample;
    acceptance.objective = static_cast<double>(sample.accepted) /
                           static_cast<double>(sample.attempts);
    acceptance.has_objective = true;
    recorder_.report(lane, acceptance);
  }

  const obs::TrajectoryRecorder& recorder() const { return recorder_; }

 private:
  obs::TrajectoryRecorder recorder_;
};

bench::Series acceptance_series(const std::string& name,
                                const obs::TrajectoryRecorder& recorder) {
  bench::Series series{name, {}};
  for (const auto& point : recorder.points(0)) {
    series.points.emplace_back(static_cast<double>(point.attempts),
                               100.0 * point.objective);
  }
  return series;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace orbis;
  const bench::Context context(argc, argv);
  bench::print_header(
      "Ablation - temperature sweep of 2K-targeting 1K-preserving "
      "rewiring",
      "Smooth D2(T) across the fixed sweep = ergodic process (Maslov et "
      "al. check).");

  const auto original = bench::load_hot(context, 0);
  const auto dists = dk::extract(original, 2);

  // Fixed sweep, one independent run per temperature.
  util::TextTable table(
      {"T", "final D2", "accepted %", "C of result"});
  // Geometric cooling from hot to cold, plus exact T=0.
  const std::vector<double> temperatures{1e6, 1e4, 100.0, 10.0, 1.0,
                                         0.1, 0.01, 0.0};
  std::vector<bench::Series> traces;
  for (const double temperature : temperatures) {
    auto rng = context.rng(
        1000 + static_cast<std::uint64_t>(temperature * 10.0));
    const auto start = gen::matching_1k(dists.degree, rng);
    gen::TargetingOptions targeting;
    targeting.temperature = temperature;
    targeting.attempts_per_edge = 200;
    AcceptanceTrace trace(32);
    svc::RunContext ctx;
    ctx.progress = &trace;
    gen::RewiringStats stats;
    gen::RewiringEngine engine(start);
    const auto final_distance = static_cast<double>(engine.target_2k(
        dists.joint, targeting, targeting.attempts_per_edge * start.num_edges(),
        rng, &stats, ctx));
    const Graph result = engine.graph();
    table.add_row(
        {util::TextTable::fmt_sig(temperature, 2),
         util::TextTable::fmt(final_distance, 1),
         util::TextTable::fmt(100.0 * stats.acceptance_rate(), 1),
         util::TextTable::fmt(metrics::mean_clustering(result), 4)});
    traces.push_back(acceptance_series(
        "T=" + util::TextTable::fmt_sig(temperature, 2), trace.recorder()));
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "shape: D2 falls smoothly as T cools — no discontinuity, so\n"
      "zero-temperature targeting is safe for these graphs (the paper's\n"
      "§4.1.4 conclusion).  At T→inf the process is pure 1K-randomizing\n"
      "(D2 stays near its 1K-random value, up to chain noise).\n\n");

  // Acceptance trajectories (cumulative accepted/attempts, percent) for
  // a hot, a warm and the greedy run.
  std::printf("acceptance trace (cumulative %%) vs attempts:\n");
  std::vector<bench::Series> shown;
  for (const auto& series : traces) {
    if (series.name == "T=10000" || series.name == "T=1.0" ||
        series.name == "T=0") {
      shown.push_back(series);
    }
  }
  bench::print_series_table("attempts", shown, 1);
  return 0;
}
