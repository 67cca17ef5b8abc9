// Ablation (paper §4.1.4): the temperature knob of dK-targeting
// d'K-preserving rewiring interpolates between pure randomizing (T→∞)
// and greedy targeting (T→0).  Following Maslov et al.'s ergodicity
// methodology, we cool the system and track a metric that distinguishes
// dK- from d'K-graphs (the D2 distance itself plus clustering): a smooth,
// monotone-ish curve without jumps indicates an ergodic process.
//
// Two schedules are compared (docs/annealing.md):
//   1. the FIXED sweep — one independent run per temperature, with the
//      cumulative acceptance trajectory of each run recorded through an
//      obs::TrajectoryRecorder so the acceptance/temperature coupling
//      the adaptive controller exploits is visible as data, and
//   2. the ADAPTIVE replica-exchange ladder — hot-replica temperatures
//      retuned per epoch from measured acceptance, traced epoch by
//      epoch via the checkpoint callback.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/bench_common.hpp"
#include "core/series.hpp"
#include "gen/anneal.hpp"
#include "gen/checkpoint.hpp"
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
                                const obs::TrajectoryRecorder& recorder,
                                std::uint32_t lane = 0) {
  bench::Series series{name, {}};
  for (const auto& point : recorder.points(lane)) {
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
      "Ablation - temperature schedules of 2K-targeting 1K-preserving "
      "rewiring",
      "Smooth D2(T) across the fixed sweep = ergodic process (Maslov et "
      "al. check); the adaptive ladder finds its own temperatures from "
      "acceptance feedback.");

  const auto original = bench::load_hot(context, 0);
  const auto dists = dk::extract(original, 2);

  // ---- Part 1: fixed sweep, one independent run per temperature ----
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
      "shape: D2 decreases smoothly and monotonically as T cools — no\n"
      "discontinuity, so zero-temperature targeting is safe for these\n"
      "graphs (the paper's §4.1.4 conclusion).  At T→inf the process is\n"
      "pure 1K-randomizing (D2 stays near its 1K-random value).\n\n");

  // Acceptance trajectories (cumulative accepted/attempts, percent) for
  // a hot, a warm and the greedy run: the monotone acceptance-vs-T
  // coupling is what licenses acceptance-band temperature control.
  std::printf("acceptance trace (cumulative %%) vs attempts:\n");
  std::vector<bench::Series> shown;
  for (const auto& series : traces) {
    if (series.name == "T=10000" || series.name == "T=1.0" ||
        series.name == "T=0") {
      shown.push_back(series);
    }
  }
  bench::print_series_table("attempts", shown, 1);

  // ---- Part 2: adaptive replica-exchange ladder -------------------
  // Same instance and budget class; the ladder starts geometric between
  // T=0 (replica 0, pinned) and top_temperature and lets the
  // per-epoch acceptance-band controller retune the hot rungs.
  std::printf(
      "\nadaptive ladder (4 replicas, controller on): per-epoch hot-rung\n"
      "temperatures chosen from measured acceptance, not hand-picked.\n");
  auto ladder_rng = context.rng(4242);
  const auto ladder_start = gen::matching_1k(dists.degree, ladder_rng);
  gen::TargetingOptions targeting;
  targeting.attempts_per_edge = 200;
  gen::LadderOptions ladder;
  ladder.replicas = 4;
  ladder.top_temperature = 1e4;
  ladder.adaptive = true;
  const std::uint64_t budget =
      targeting.attempts_per_edge * ladder_start.num_edges();
  ladder.exchange_every = std::max<std::uint64_t>(budget / 8, 1);

  auto state = gen::make_2k_ladder_run(ladder_start, targeting, ladder,
                                       ladder.exchange_every, ladder_rng);
  AcceptanceTrace ladder_trace(32);
  svc::RunContext ladder_ctx;
  ladder_ctx.progress = &ladder_trace;

  util::TextTable epochs({"attempts/replica", "best D2", "T0", "T1", "T2",
                          "T3", "exch acc/att"});
  gen::CheckpointOptions checkpointing;
  checkpointing.on_checkpoint = [&](const gen::RunCheckpoint& snapshot) {
    double best = snapshot.chains[0].distance;
    for (const auto& chain : snapshot.chains) {
      best = std::min(best, static_cast<double>(chain.distance));
    }
    std::vector<std::string> row{
        util::TextTable::fmt(
            static_cast<double>(snapshot.chains[0].attempts_done), 0),
        util::TextTable::fmt(best, 1)};
    for (const auto& chain : snapshot.chains) {
      row.push_back(util::TextTable::fmt_sig(chain.temperature, 3));
    }
    row.push_back(util::TextTable::fmt(
                      static_cast<double>(snapshot.exchange_accepted), 0) +
                  "/" +
                  util::TextTable::fmt(
                      static_cast<double>(snapshot.exchange_attempted), 0));
    epochs.add_row(row);
  };
  const auto ladder_result =
      gen::run_checkpointed_2k(state, dists.joint, targeting, checkpointing,
                               ladder_ctx);
  std::printf("%s\n", epochs.str().c_str());
  std::printf("final D2 (cold replica family): %.1f, C = %.4f\n",
              ladder_result.best_distance,
              metrics::mean_clustering(ladder_result.graph));

  // Per-replica acceptance traces from the same run: the controller
  // drives each hot rung toward its interpolated acceptance target.
  std::printf("\nper-replica acceptance trace (cumulative %%):\n");
  std::vector<bench::Series> replica_traces;
  for (std::uint32_t lane = 0;
       lane < ladder_trace.recorder().lane_count(); ++lane) {
    replica_traces.push_back(acceptance_series(
        "replica " + std::to_string(lane), ladder_trace.recorder(), lane));
  }
  bench::print_series_table("attempts", replica_traces, 1);
  std::printf(
      "shape: hot rungs settle near their acceptance bands within a few\n"
      "epochs; the cold replica stays greedy (T=0 pinned) and its final\n"
      "D2 matches the fixed sweep's T=0 row — the adaptive schedule\n"
      "needs no hand-tuned temperature list to get there.\n");
  return 0;
}
