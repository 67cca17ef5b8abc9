// hub-pipeline and flat-pipeline: the paper's §5.1 construction plus the
// §4.1.4 randomization, run serially (one chain, one worker) on fixed
// attempt budgets so every repetition does the same work.
//
//   set-up  io::extract_dk_streaming of the input to d = 3, five times
//           (setup_s is the median; the last result is the target);
//   rep     read -> matching_1k -> target_2k (to D2 = 0) -> target_3k
//           -> write -> randomize(original, d = 3); wall_s is the
//           median rep.  Reps repeat until --seconds have been measured.
//
// The first rep's outputs are checked in full; later reps must be
// bit-identical to it (same seed, same work).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "bench.hpp"
#include "core/dk_state.hpp"
#include "core/series.hpp"
#include "gen/matching.hpp"
#include "gen/rewiring.hpp"
#include "io/chunked_edge_reader.hpp"
#include "io/edge_list.hpp"
#include "util/rng.hpp"

namespace pipebench {

namespace {

using orbis::Graph;
using orbis::gen::RewiringStats;

constexpr int kSetups = 5;  // set-up extractions per run; setup_s = median

struct Budgets {
  std::uint64_t target_2k;  // cap; the stage stops at D2 = 0
  std::uint64_t target_3k;
  std::uint64_t randomize;
};

Budgets budgets_for(const std::string& workload) {
  if (workload == "hub-pipeline") return {20'000'000, 60'000, 30'000};
  return {20'000'000, 25'000, 1'000'000};
}

struct Rep {
  double wall_s = 0.0;
  double read_s = 0.0;
  double seed_s = 0.0;
  double target_2k_s = 0.0;
  double target_3k_s = 0.0;
  double write_s = 0.0;
  double randomize_s = 0.0;
  double mem_after_3k_mb = 0.0;
  RewiringStats stats_2k;
  RewiringStats stats_3k;
  RewiringStats stats_randomize;
  double d2_final = 0.0;
  double d3_final = 0.0;
  std::uint64_t hash_3k = 0;
  std::uint64_t hash_randomized = 0;
  // Kept for the first rep's checks only.
  Graph seed;
  Graph stage_2k;
  Graph stage_3k;
  Graph randomized;
};

std::uint64_t edge_hash(const Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& e : g.edges()) {
    h = (h ^ e.u) * 0x100000001b3ull;
    h = (h ^ e.v) * 0x100000001b3ull;
  }
  return h;
}

// Times `body` and records it as a span under `parent`.
template <typename Body>
double timed(Tracer& tracer, const char* name, const char* layer,
             std::int64_t parent, Body&& body) {
  Tracer::Scope span(tracer, name, layer, parent);
  const auto start = Clock::now();
  body();
  return seconds_between(start, Clock::now());
}

// Every rep writes a file of its own: replacing an earlier output would
// make the rename wait for that file's writeback to a slow disk.
std::string output_path(const RunConfig& config, const std::string& rep) {
  return config.dir + "/output-" + rep + ".edges";
}

Rep run_rep(const RunConfig& config, const orbis::dk::DkDistributions& target,
            Tracer& tracer, const std::string& name, bool keep_graphs) {
  const Budgets budgets = budgets_for(config.workload);
  const std::string input = config.dir + "/input.edges";
  const std::string output = output_path(config, name);
  orbis::util::Rng rng(config.seed * 0x2545f4914f6cdd1dull + 7);
  Rep rep;

  // The rep span ends with wall_s, before the graphs are released.
  const std::int64_t parent = tracer.begin("pipeline.rep", "bench");
  const auto start = Clock::now();

  Graph original;
  rep.read_s = timed(tracer, "io.read", "io", parent, [&] {
    original = orbis::io::read_edge_list_file(input).graph;
  });
  Graph seed;
  rep.seed_s = timed(tracer, "gen.seed_1k", "gen", parent, [&] {
    seed = orbis::gen::matching_1k(target.degree, rng);
  });
  Graph stage_2k;
  rep.target_2k_s = timed(tracer, "gen.target_2k", "gen", parent, [&] {
    orbis::gen::TargetingOptions options;
    options.attempts = budgets.target_2k;
    options.stop_distance = 0.0;
    options.workers = 1;
    stage_2k = orbis::gen::target_2k(seed, target.joint, options, rng,
                                     &rep.stats_2k, &rep.d2_final);
  });
  Graph stage_3k;
  rep.target_3k_s = timed(tracer, "gen.target_3k", "gen", parent, [&] {
    orbis::gen::TargetingOptions options;
    options.attempts = budgets.target_3k;
    options.workers = 1;
    stage_3k = orbis::gen::target_3k(stage_2k, target.three_k, options, rng,
                                     &rep.stats_3k, &rep.d3_final);
  });
  if (tracer.enabled()) rep.mem_after_3k_mb = current_rss_mb();
  rep.write_s = timed(tracer, "io.write", "io", parent, [&] {
    orbis::io::write_edge_list_file(output, stage_3k);
  });
  Graph randomized;
  rep.randomize_s = timed(tracer, "gen.randomize_3k", "gen", parent, [&] {
    orbis::gen::RandomizeOptions options;
    options.d = 3;
    options.attempts = budgets.randomize;
    options.workers = 1;
    randomized = orbis::gen::randomize(original, options, rng,
                                       &rep.stats_randomize);
  });
  rep.wall_s = seconds_between(start, Clock::now());
  tracer.end(parent);

  rep.hash_3k = edge_hash(stage_3k);
  rep.hash_randomized = edge_hash(randomized);
  if (keep_graphs) {
    rep.seed = std::move(seed);
    rep.stage_2k = std::move(stage_2k);
    rep.stage_3k = std::move(stage_3k);
    rep.randomized = std::move(randomized);
  }
  return rep;
}

// Full output checks on the first rep; returns D3 of the 2K-random
// start (the d3_rel denominator).
double check_first_rep(const RunConfig& config,
                       const orbis::dk::DkDistributions& target,
                       const Rep& rep, Checks& checks) {
  namespace dk = orbis::dk;
  checks.expect(dk::DegreeDistribution::from_graph(rep.seed) == target.degree,
                "matching_1k output has the target 1K distribution");
  checks.expect(rep.d2_final == 0.0 &&
                    dk::JointDegreeDistribution::from_graph(rep.stage_2k) ==
                        target.joint,
                "target_2k reached D2 = 0");
  checks.expect(dk::DegreeDistribution::from_graph(rep.stage_3k) ==
                        dk::DegreeDistribution::from_graph(rep.stage_2k) &&
                    dk::JointDegreeDistribution::from_graph(rep.stage_3k) ==
                        dk::JointDegreeDistribution::from_graph(rep.stage_2k),
                "target_3k preserved the 2K stage's 1K and JDD");
  const double d3_start = dk::distance_3k(
      dk::ThreeKProfile::from_graph(rep.stage_2k), target.three_k);
  const double d3_recomputed = dk::distance_3k(
      dk::ThreeKProfile::from_graph(rep.stage_3k), target.three_k);
  checks.expect(rep.d3_final <= d3_start, "target_3k did not increase D3");
  checks.expect(d3_recomputed == rep.d3_final,
                "target_3k's reported D3 matches a fresh extraction");
  checks.expect(dk::ThreeKProfile::from_graph(rep.randomized) ==
                    target.three_k,
                "randomize(d = 3) preserved the original's 3K profile");
  const auto written =
      orbis::io::read_edge_list_file(output_path(config, "0")).graph;
  checks.expect(written.num_edges() == rep.stage_3k.num_edges() &&
                    dk::DegreeDistribution::from_graph(written) ==
                        dk::DegreeDistribution::from_graph(rep.stage_3k),
                "written edge list reads back as the 3K output");
  std::printf(
      "check: D2=%.0f D3 %.6g -> %.6g (d3_rel %.6f), 3K accepted %llu/%llu, "
      "randomize accepted %llu/%llu, 2K attempts %llu\n",
      rep.d2_final, d3_start, rep.d3_final, rep.d3_final / d3_start,
      static_cast<unsigned long long>(rep.stats_3k.accepted),
      static_cast<unsigned long long>(rep.stats_3k.attempts),
      static_cast<unsigned long long>(rep.stats_randomize.accepted),
      static_cast<unsigned long long>(rep.stats_randomize.attempts),
      static_cast<unsigned long long>(rep.stats_2k.attempts));
  return d3_start;
}

void check_repeat(const Rep& first, const Rep& rep, Checks& checks) {
  checks.expect(rep.hash_3k == first.hash_3k &&
                    rep.hash_randomized == first.hash_randomized &&
                    rep.stats_2k == first.stats_2k &&
                    rep.stats_3k == first.stats_3k &&
                    rep.stats_randomize == first.stats_randomize &&
                    rep.d3_final == first.d3_final,
                "repeated rep reproduces the first rep exactly");
}

double ratio(std::uint64_t part, std::uint64_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                   : 0.0;
}

}  // namespace

void run_pipeline(const RunConfig& config, Report& report, Checks& checks) {
  Tracer tracer(config.trace);
  Tracer untraced(false);

  // Set-up: extractions of the input; setup_s is their median.
  std::vector<double> extract_s;
  orbis::dk::DkDistributions target;
  {
    Tracer::Scope setup_span(tracer, "pipeline.setup", "bench");
    for (int i = 0; i < kSetups; ++i) {
      target = {};
      extract_s.push_back(
          timed(tracer, "core.extract", "core", setup_span.id(), [&] {
            target = orbis::io::extract_dk_streaming(
                         config.dir + "/input.edges", 3)
                         .distributions;
          }));
    }
  }
  const double mem_after_extract = current_rss_mb();

  // Measured reps.  A traced run alternates untraced and traced reps, so
  // their difference is the tracing overhead.
  std::vector<Rep> reps;       // untraced
  std::vector<Rep> traced;     // traced (trace mode only)
  std::vector<double> dkstate_build_s;
  double d3_start = 0.0;
  double peak_mb = 0.0;  // after set-up and the first rep, before checks
  std::uint64_t traced_fsyncs = 0;
  double measured_s = 0.0;  // rep walls only; checks are not measured
  do {
    const bool first = reps.empty();
    reps.push_back(run_rep(config, target, untraced,
                           std::to_string(reps.size()), first));
    measured_s += reps.back().wall_s;
    if (first) {
      peak_mb = peak_rss_mb();
      d3_start = check_first_rep(config, target, reps.front(), checks);
      // Release the first rep's graphs; the hashes stay for repeats.
      Rep& kept = reps.front();
      kept.seed = kept.stage_2k = kept.stage_3k = kept.randomized = Graph{};
    } else {
      check_repeat(reps.front(), reps.back(), checks);
    }
    // Deleted while still in the page cache, an output never reaches
    // the disk.
    std::filesystem::remove(
        output_path(config, std::to_string(reps.size() - 1)));
    if (config.trace) {
      const std::string name = "traced" + std::to_string(traced.size());
      const std::uint64_t fsyncs_before = fsync_calls();
      traced.push_back(run_rep(config, target, tracer, name, true));
      traced_fsyncs += fsync_calls() - fsyncs_before;
      measured_s += traced.back().wall_s;
      check_repeat(reps.front(), traced.back(), checks);
      std::filesystem::remove(output_path(config, name));
      // Standalone DkState build on the 2K output: the engine set-up
      // every target_3k call pays before its first attempt.
      dkstate_build_s.push_back(timed(tracer, "core.dkstate_build", "core", -1,
                                      [&] {
        const orbis::dk::DkState state(traced.back().stage_2k,
                                       orbis::dk::TrackLevel::full_three_k);
      }));
      Rep& kept = traced.back();
      kept.seed = kept.stage_2k = kept.stage_3k = kept.randomized = Graph{};
    }
  } while (measured_s < config.seconds);

  auto med = [](const std::vector<Rep>& from, double Rep::*field) {
    std::vector<double> values;
    for (const Rep& rep : from) values.push_back(rep.*field);
    return median(values);
  };
  const Rep& first = reps.front();
  std::printf("run: %zu reps, wall %.4f s (median), setup %.4f s (",
              reps.size(), med(reps, &Rep::wall_s), median(extract_s));
  for (const double s : extract_s) std::printf(" %.4f", s);
  std::printf(" ), reps (");
  for (const Rep& rep : reps) std::printf(" %.4f", rep.wall_s);
  std::printf(" ), work dir on %s\n",
              ram_backed(config.dir) ? "a RAM-backed filesystem" : "disk");

  if (!config.trace) {
    report.set("setup_s", median(extract_s), "s");
    report.set("wall_s", med(reps, &Rep::wall_s), "s");
    report.set("peak_rss_mb", peak_mb, "MB");
    report.set("d3_rel", first.d3_final / d3_start, "ratio");
    return;
  }

  std::map<std::string, double> m;
  const double t3k = med(traced, &Rep::target_3k_s);
  const double trand = med(traced, &Rep::randomize_s);
  m["gen.target_3k_s"] = t3k;
  m["gen.target_3k.us_per_attempt"] =
      1e6 * t3k / static_cast<double>(first.stats_3k.attempts);
  m["gen.target_3k.accept_ratio"] =
      ratio(first.stats_3k.accepted, first.stats_3k.attempts);
  m["gen.target_3k.reject_structural_ratio"] =
      ratio(first.stats_3k.rejected_structural, first.stats_3k.attempts);
  m["gen.target_3k.reject_constraint_ratio"] =
      ratio(first.stats_3k.rejected_constraint, first.stats_3k.attempts);
  m["gen.target_3k.accepted"] = static_cast<double>(first.stats_3k.accepted);
  m["gen.randomize_3k_s"] = trand;
  m["gen.randomize_3k.us_per_attempt"] =
      1e6 * trand / static_cast<double>(first.stats_randomize.attempts);
  m["gen.randomize_3k.useful_ratio"] =
      ratio(first.stats_randomize.accepted, first.stats_randomize.attempts);
  m["gen.randomize_3k.accepted"] =
      static_cast<double>(first.stats_randomize.accepted);
  m["gen.seed_1k_s"] = med(traced, &Rep::seed_s);
  m["gen.target_2k_s"] = med(traced, &Rep::target_2k_s);
  m["gen.target_2k.attempts"] = static_cast<double>(first.stats_2k.attempts);
  m["core.extract_s"] = median(extract_s);
  m["mem.after_extract_mb"] = mem_after_extract;
  m["core.dkstate_build_s"] = median(dkstate_build_s);
  m["mem.after_3k_mb"] = med(traced, &Rep::mem_after_3k_mb);
  m["io.read_s"] = med(traced, &Rep::read_s);
  m["io.write_s"] = med(traced, &Rep::write_s);
  m["io.fsync_calls"] = static_cast<double>(traced_fsyncs) /
                        static_cast<double>(traced.size());

  // Self time per traced rep, and how much of each rep the stage spans
  // cover.
  add_layer_self_times(tracer, "pipeline.rep",
                       static_cast<double>(traced.size()), m);
  std::vector<double> coverage;
  const std::vector<Span> spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "pipeline.rep") {
      coverage.push_back(tracer.child_coverage(static_cast<std::int64_t>(i)));
    }
  }
  const double min_coverage =
      coverage.empty() ? 0.0 : *std::min_element(coverage.begin(), coverage.end());
  checks.expect(min_coverage >= 0.95,
                "stage spans cover at least 95% of every traced rep");
  m["obs.span_coverage"] = min_coverage;
  m["obs.trace_overhead_frac"] =
      med(traced, &Rep::wall_s) / med(reps, &Rep::wall_s) - 1.0;
  emit_per_layer(m, report);
  if (!config.trace_out.empty()) tracer.write_json(config.trace_out);
}

}  // namespace pipebench
