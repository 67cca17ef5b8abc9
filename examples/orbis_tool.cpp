// orbis_tool — command-line front end for the library, mirroring the
// workflow of the authors' released Orbis tools:
//
//   orbis_tool analyze  <graph.edges>                 extract + print dK stats
//   orbis_tool extract  <graph.edges> <out-prefix>    write .1k/.2k/.3k files
//       streams the file by default (bounded memory; --trust-simple skips
//       duplicate detection, --buffer-kb N sets the read granularity);
//       --in-memory restores the Graph-based path (implied by --gcc,
//       which needs the whole graph for component extraction)
//   orbis_tool generate --d {0,1,2,3} [options]       build a dK-random graph
//       from distribution files:   --from-1k F | --from-2k F [--from-3k F]
//       or from a graph:           --like graph.edges (randomizing rewiring)
//       method:                    --method {stochastic,pseudograph,
//                                            matching,targeting}
//       attempt budget:            --attempts N (per chain) or
//                                  --attempts-per-edge N (times the edge
//                                  count; default 10 for --like, 400
//                                  for targeting); a budget that wraps
//                                  64 bits is a usage error
//       parallelism:               --chains N (annealing chains; default 0 =
//                                  one per core; each chain is serial)
//       proposal moves:            --move {swap,trade,mixed} (double-edge
//                                  swaps, Curveball neighborhood trades, or
//                                  a mix; docs/rewiring.md)
//       output:                    --out out.edges  [--dot out.dot]
//   orbis_tool rescale  --from-2k F --nodes N --out F2   rescale a JDD
//   orbis_tool compare  <a.edges> <b.edges>          metric bundle + D_d
//
// Common flags: --seed S (default 1), --gcc (reduce output to the GCC).
// An unknown flag is a usage error (exit 2), never silently ignored.
//
// Observability (docs/observability.md): every subcommand accepts
//   --progress        live status line on stderr (attempts/s, acceptance,
//                     best objective, ETA), refreshed ~2x/second
//   --quiet           silence progress and status chatter on stderr;
//                     data output and report/trace files are unaffected
//   --report F.json   write a machine-readable run report (config, seed,
//                     host context, per-stage stats, objective trajectory,
//                     metrics scrape, peak RSS, exit status) atomically
//                     to F.json — written on failure and interrupt too
//   --trace F.json    record phase spans and write a Chrome trace-event
//                     file (chrome://tracing, Perfetto) on exit
// stdout carries ONLY data (dK summaries, metric bundles, compare
// tables); all human-facing status goes to stderr, so piping stdout
// stays machine-parseable.
//
// Fault tolerance (docs/robustness.md): targeting runs checkpoint with
//   --checkpoint F            write a resumable checkpoint to F at every
//                             leg boundary (atomic temp+rename writes)
//   --checkpoint-every N      write every N attempts (default: budget/8;
//                             any cadence gives the same graph, and a
//                             resume may change it)
//   --resume F                continue a checkpointed run; the final
//                             graph is bit-identical to the
//                             uninterrupted run's
//   --stop-after-checkpoints N   test seam: request a stop after the
//                             N-th checkpoint write (deterministic kill)
// SIGINT/SIGTERM request a cooperative stop: each chain winds down
// within 1024 attempts, the last completed checkpoint is kept, and the
// tool exits 130.  A second signal kills immediately (default action).
//
// Exit codes: 0 success; 1 unexpected error; 2 usage/parse errors;
// 3 I/O errors; 4 resource exhaustion; 130 interrupted.

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdarg>
#include <cstdio>
#include <memory>
#include <new>
#include <string>
#include <utility>

#include "core/rescale.hpp"
#include "core/series.hpp"
#include "gen/checkpoint.hpp"
#include "gen/generate.hpp"
#include "gen/pipeline.hpp"
#include "gen/rewiring.hpp"
#include "graph/algorithms.hpp"
#include "io/checkpoint_io.hpp"
#include "io/chunked_edge_reader.hpp"
#include "io/dk_serialization.hpp"
#include "io/dot.hpp"
#include "io/edge_list.hpp"
#include "metrics/summary.hpp"
#include "obs/progress.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "svc/run_context.hpp"
#include "util/cli.hpp"
#include "util/errors.hpp"
#include "util/memory.hpp"
#include "util/stop_token.hpp"
#include "util/table.hpp"

namespace {

using namespace orbis;

/// Process-wide cooperative stop, flipped by the signal handler and
/// polled by every long-running chain (util/stop_token.hpp).
util::StopSource g_stop;
volatile std::sig_atomic_t g_signal = 0;

void handle_signal(int sig) {
  g_signal = sig;
  g_stop.request_stop();  // relaxed atomic store: async-signal-safe
  // Restore the default action so a second signal terminates
  // immediately — the escape hatch if cooperative shutdown wedges.
  std::signal(sig, SIG_DFL);
}

constexpr int kExitInterrupted = 130;  // 128 + SIGINT, the shell convention

// -------------------------------------------------------------------------
// Telemetry state (obs/).  The report accumulates across the whole
// invocation and is written in main()'s epilogue — on success, failure
// and interrupt alike.  --quiet gates status()/progress only; it never
// suppresses data output, the report or the trace.
// -------------------------------------------------------------------------

bool g_quiet = false;
bool g_want_report = false;
obs::RunReport g_report;
obs::TrajectoryRecorder g_trajectory;
std::unique_ptr<obs::ProgressMeter> g_meter;
obs::ProgressSink* g_progress = nullptr;  // meter+trajectory tee, or null

/// Human-facing status chatter: stderr, silenced by --quiet.  Hard
/// errors do NOT go through here — they print unconditionally.
void status(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
void status(const char* fmt, ...) {
  if (g_quiet) return;
  std::va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stderr, fmt, ap);
  va_end(ap);
}

void record_config(std::string key, std::string value) {
  g_report.config.emplace_back(std::move(key), std::move(value));
}

void record_output(std::string path) {
  g_report.outputs.push_back(std::move(path));
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void set_phase(const std::string& phase) {
  if (g_meter != nullptr) g_meter->set_phase(phase);
}

int usage() {
  std::fprintf(stderr,
               "usage: orbis_tool {analyze|extract|generate|rescale|"
               "compare} ...\n"
               "see the header comment of examples/orbis_tool.cpp\n");
  return 2;
}

Graph load(const std::string& path, bool gcc) {
  Graph g = io::read_edge_list_file(path).graph;
  if (gcc) g = largest_connected_component(g).graph;
  return g;
}

void print_metrics(const Graph& g) {
  const auto m = metrics::compute_scalar_metrics(g);
  std::printf("%s\n", metrics::to_string(m).c_str());
}

int cmd_analyze(const util::ArgParser& args) {
  if (args.positional().size() < 2) return usage();
  const Graph g = load(args.positional()[1], args.has_flag("--gcc"));
  const auto dists = dk::extract(g, 3);
  std::printf("%s\n", dk::describe(dists).c_str());
  print_metrics(g);
  return 0;
}

int cmd_extract(const util::ArgParser& args) {
  if (args.positional().size() < 3) return usage();
  const std::string& path = args.positional()[1];
  const std::string prefix = args.positional()[2];

  // Streaming is the default: the chunked reader + one-pass accumulators
  // keep memory bounded by the accumulators, not the file (see
  // docs/scaling.md).  GCC reduction needs the whole graph, so --gcc
  // implies the in-memory path.
  dk::DkDistributions dists;
  if (args.has_flag("--gcc") || args.has_flag("--in-memory")) {
    record_config("mode", "in-memory");
    dists = dk::extract(load(path, args.has_flag("--gcc")), 3);
  } else {
    io::StreamingExtractOptions options;
    options.extractor.assume_simple = args.has_flag("--trust-simple");
    const long long buffer_kb = args.get_int("--buffer-kb", 1024);
    if (buffer_kb <= 0) {
      throw std::invalid_argument("--buffer-kb must be positive");
    }
    options.reader.buffer_bytes =
        static_cast<std::size_t>(buffer_kb) * 1024;
    record_config("mode", "streaming");
    record_config("buffer_kb", std::to_string(buffer_kb));
    auto streamed = io::extract_dk_streaming(path, 3, options);
    if (streamed.skipped_self_loops > 0 || streamed.skipped_duplicates > 0) {
      status("skipped %zu self-loops, %zu duplicate edges\n",
             streamed.skipped_self_loops, streamed.skipped_duplicates);
    }
    // peak_rss_bytes is optional: /proc may be unreadable (containers,
    // hardened kernels) and "0 KiB" would be a lie.
    const auto rss = util::peak_rss_bytes();
    const std::string rss_text =
        rss ? std::to_string(*rss / 1024) + " KiB"
            : std::string("unavailable");
    status("streaming extract: %zu KiB accumulators, %s peak RSS\n",
           streamed.peak_accumulator_bytes / 1024, rss_text.c_str());
    dists = std::move(streamed.distributions);
  }

  io::write_1k_file(prefix + ".1k", dists.degree);
  io::write_2k_file(prefix + ".2k", dists.joint);
  io::write_3k_file(prefix + ".3k", dists.three_k);
  record_output(prefix + ".1k");
  record_output(prefix + ".2k");
  record_output(prefix + ".3k");
  status("wrote %s.{1k,2k,3k}\n", prefix.c_str());
  return 0;
}

/// Non-negative count flag; a negative value would otherwise wrap to a
/// huge size_t (e.g. --chains -1 allocating 2^64 chain slots).
std::size_t parse_count(const util::ArgParser& args, const std::string& flag,
                        long long fallback) {
  const long long value = args.get_int(flag, fallback);
  if (value < 0) {
    throw std::invalid_argument(flag + " must be >= 0");
  }
  return static_cast<std::size_t>(value);
}

gen::Method parse_method(const std::string& name) {
  if (name == "stochastic") return gen::Method::stochastic;
  if (name == "pseudograph") return gen::Method::pseudograph;
  if (name == "matching") return gen::Method::matching;
  if (name == "targeting") return gen::Method::targeting;
  throw std::invalid_argument("unknown method: " + name);
}

/// Targeting run (--method targeting, --d 2 or 3) through gen::Pipeline,
/// the stage machine gen::generate_dk_random and orbis_server drive too,
/// so all three write the same graph.  --checkpoint writes every leg
/// boundary to disk, 2K stage included; --resume continues from one
/// bit-identically, taking chains and move kind from the checkpoint.
/// The cadence is only how often the file is written, so a resume
/// honors --checkpoint-every (gen/checkpoint.hpp).
Graph generate_targeting(const util::ArgParser& args,
                         const dk::DkDistributions& target, int d,
                         const gen::GenerateOptions& options,
                         const svc::RunContext& ctx, bool& interrupted) {
  const std::string checkpoint_path = args.get_string("--checkpoint", "");
  const std::string resume_path = args.get_string("--resume", "");
  // Resume keeps writing to its own file unless redirected.
  const std::string save_path =
      checkpoint_path.empty() ? resume_path : checkpoint_path;

  gen::PipelineOptions pipeline_options;
  pipeline_options.d = d;
  pipeline_options.targeting = options.targeting;
  pipeline_options.checkpoint_every =
      parse_count(args, "--checkpoint-every", 0);

  gen::Pipeline pipeline =
      resume_path.empty()
          ? gen::Pipeline(target, pipeline_options, ctx.make_rng(), ctx)
          : gen::Pipeline(target, pipeline_options,
                          io::read_checkpoint_file(resume_path), ctx);
  if (!resume_path.empty()) {
    if (!args.get_string("--move", "").empty() ||
        args.has_flag("--attempts") || args.has_flag("--attempts-per-edge")) {
      status("note: --move/--attempts/--attempts-per-edge ignored on "
             "resume — they are part of the run and come from the "
             "checkpoint\n");
    }
    const gen::RunCheckpoint& resumed = pipeline.checkpoint();
    status("resuming %s: %dK stage, %llu/%llu attempts per chain, %zu "
           "chain(s)\n",
           resume_path.c_str(), resumed.d,
           static_cast<unsigned long long>(resumed.chains[0].attempts_done),
           static_cast<unsigned long long>(resumed.budget),
           resumed.chains.size());
    record_config("resume", resume_path);
  }
  // A reference: it follows the run from its 2K into its 3K stage.
  const gen::RunCheckpoint& state = pipeline.checkpoint();
  if (!save_path.empty()) record_config("checkpoint", save_path);
  record_config("chains", std::to_string(state.chains.size()));
  record_config("checkpoint_every", std::to_string(state.checkpoint_every));
  record_config("move", gen::to_string(state.move));

  gen::CheckpointOptions checkpointing;
  const std::size_t stop_after =
      parse_count(args, "--stop-after-checkpoints", 0);
  std::size_t written = 0;
  auto leg_start = std::chrono::steady_clock::now();
  set_phase(std::to_string(state.d) + "k targeting");
  checkpointing.on_checkpoint = [&](const gen::RunCheckpoint& snapshot) {
    if (!save_path.empty()) io::write_checkpoint_file(save_path, snapshot);
    ++written;
    if (g_want_report) {
      obs::LegRecord leg;
      leg.leg = written;
      leg.attempts_done = snapshot.chains[0].attempts_done;
      leg.best_distance = static_cast<double>(snapshot.chains[0].distance);
      for (const auto& chain : snapshot.chains) {
        leg.stats += chain.stats;
        leg.best_distance =
            std::min(leg.best_distance, static_cast<double>(chain.distance));
      }
      leg.duration_seconds = seconds_since(leg_start);
      g_report.legs.push_back(leg);
    }
    leg_start = std::chrono::steady_clock::now();
    if (!save_path.empty()) {
      status("checkpoint %zu: %dK stage, %llu/%llu attempts -> %s\n",
             written, snapshot.d,
             static_cast<unsigned long long>(
                 snapshot.chains[0].attempts_done),
             static_cast<unsigned long long>(snapshot.budget),
             save_path.c_str());
    }
    if (snapshot.finished() && snapshot.d < snapshot.final_d) {
      set_phase("3k targeting");
    }
    if (stop_after > 0 && written >= stop_after) g_stop.request_stop();
  };

  pipeline.run(checkpointing);
  if (g_want_report) {
    for (const gen::PipelineStage& done : pipeline.stages()) {
      obs::StageRecord stage;
      stage.name = done.d == 2 ? "target.2k" : "target.3k";
      stage.stats = done.result.total_stats;
      stage.final_distance = done.result.best_distance;
      stage.has_distance = true;
      stage.chains = done.chains;
      stage.best_chain = done.result.best_chain;
      stage.duration_seconds = done.seconds;
      g_report.stages.push_back(stage);
    }
  }
  if (!pipeline.finished()) {
    if (g_signal != 0) {
      status("caught signal %d\n", static_cast<int>(g_signal));
    }
    if (!save_path.empty()) {
      // The state snapped back to the last completed boundary; re-writing
      // it is idempotent but guarantees a resume point exists even when
      // the stop landed inside the very first leg.
      io::write_checkpoint_file(save_path, state);
      record_output(save_path);
    }
    status("interrupted in the %dK stage at %llu/%llu attempts per chain; "
           "%s%s\n",
           state.d,
           static_cast<unsigned long long>(state.chains[0].attempts_done),
           static_cast<unsigned long long>(state.budget),
           save_path.empty() ? "nothing written (use --checkpoint for "
                               "resumable runs)"
                             : "resume with: orbis_tool generate ... "
                               "--resume ",
           save_path.c_str());
    interrupted = true;
    return Graph(0);
  }
  if (!save_path.empty()) record_output(save_path);
  for (const gen::PipelineStage& done : pipeline.stages()) {
    status("%dK targeting: best chain %zu, distance %.0f, %llu attempts "
           "per chain, %llu accepted swaps\n",
           done.d, done.result.best_chain, done.result.best_distance,
           static_cast<unsigned long long>(done.result.attempts_done),
           static_cast<unsigned long long>(done.result.total_stats.accepted));
  }
  return pipeline.graph();
}

int cmd_generate(const util::ArgParser& args) {
  // Range-checked before it narrows: --d 4294967298 must not wrap to 2.
  const long long d_flag = args.get_int("--d", 2);
  if (d_flag < 0 || d_flag > 3) {
    throw std::invalid_argument("--d must be in [0,3]");
  }
  const int d = static_cast<int>(d_flag);
  const std::string out = args.get_string("--out", "");
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out is required\n");
    return 2;
  }
  record_config("d", std::to_string(d));

  // Every execution knob (seed, chains, stop, progress) is parsed once
  // into the run's context (svc/run_context.hpp), which the library
  // calls below take whole.
  svc::RunContext ctx;
  ctx.seed = static_cast<std::uint64_t>(args.get_int("--seed", 1));
  ctx.chains = gen::check_chain_count(parse_count(args, "--chains", 0),
                                      "--chains");
  ctx.stop = g_stop.token();
  ctx.progress = g_progress;

  // The proposal move mix applies to randomizing and targeting alike;
  // on --resume the checkpoint's recorded kind is authoritative.
  const gen::MoveKind move =
      gen::parse_move_kind(args.get_string("--move", "swap"));

  // The attempt budget of the rewiring chains, as gen::attempt_budget
  // reads it: --attempts outright, else --attempts-per-edge times the
  // edge count.  The chain refuses a product that wraps 64 bits before
  // it runs.
  const bool budget_flags =
      args.has_flag("--attempts") || args.has_flag("--attempts-per-edge");
  const auto set_budget = [&](auto& budget) {
    budget.attempts = parse_count(args, "--attempts",
                                  static_cast<long long>(budget.attempts));
    budget.attempts_per_edge =
        parse_count(args, "--attempts-per-edge",
                    static_cast<long long>(budget.attempts_per_edge));
  };

  const bool leg_flags = !args.get_string("--checkpoint", "").empty() ||
                         !args.get_string("--resume", "").empty();

  Graph result;
  const std::string like = args.get_string("--like", "");
  if (!like.empty()) {
    if (leg_flags) {
      throw std::invalid_argument(
          "--checkpoint/--resume do not apply to --like randomizing runs");
    }
    // dK-randomizing rewiring of an original graph: dk_random_like
    // seeds from ctx and runs under its stop/progress.
    const Graph original = load(like, /*gcc=*/false);
    gen::RandomizeOptions options;
    options.move = move;
    set_budget(options);
    record_config("like", like);
    record_config("move", gen::to_string(move));
    set_phase("randomize " + std::to_string(d) + "k");
    gen::RewiringStats stats;
    const auto stage_start = std::chrono::steady_clock::now();
    result = gen::dk_random_like(original, d, options, ctx, &stats);
    if (g_want_report) {
      obs::StageRecord stage;
      stage.name = "randomize";
      stage.stats = stats;
      stage.duration_seconds = seconds_since(stage_start);
      g_report.stages.push_back(stage);
    }
    if (g_stop.stop_requested()) {
      std::fprintf(stderr,
                   "generate: interrupted before completion; no output "
                   "written\n");
      return kExitInterrupted;
    }
    status("randomized: %llu/%llu swaps accepted\n",
           static_cast<unsigned long long>(stats.accepted),
           static_cast<unsigned long long>(stats.attempts));
  } else {
    // Distribution-driven construction.
    dk::DkDistributions target;
    const std::string from_1k = args.get_string("--from-1k", "");
    const std::string from_2k = args.get_string("--from-2k", "");
    const std::string from_3k = args.get_string("--from-3k", "");
    if (!from_1k.empty()) target.degree = io::read_1k_file(from_1k);
    if (!from_2k.empty()) target.joint = io::read_2k_file(from_2k);
    if (!from_3k.empty()) target.three_k = io::read_3k_file(from_3k);
    if (target.degree.num_nodes() == 0 && !from_2k.empty()) {
      target.degree = target.joint.project_to_1k();
    }
    if (target.degree.num_nodes() == 0) {
      std::fprintf(stderr,
                   "generate: need --from-1k/--from-2k/--from-3k or "
                   "--like\n");
      return 2;
    }
    target.num_nodes = target.degree.num_nodes();
    target.num_edges = static_cast<std::uint64_t>(
        target.joint.num_edges() > 0
            ? target.joint.num_edges()
            : static_cast<std::int64_t>(
                  target.degree.average_degree() *
                  static_cast<double>(target.num_nodes) / 2.0));
    target.average_degree = target.degree.average_degree();

    gen::GenerateOptions options;
    options.method =
        parse_method(args.get_string("--method", "matching"));
    if (d == 3) options.method = gen::Method::targeting;
    options.targeting.move = move;
    set_budget(options.targeting);
    record_config("method", args.get_string("--method", "matching"));
    if (options.method == gen::Method::targeting && (d == 2 || d == 3)) {
      bool interrupted = false;
      result = generate_targeting(args, target, d, options, ctx, interrupted);
      if (interrupted) return kExitInterrupted;
    } else {
      if (leg_flags) {
        throw std::invalid_argument(
            "--checkpoint/--resume require --method targeting with --d 2 "
            "or --d 3 (the long rewiring chains are what they cover)");
      }
      if (budget_flags) {
        throw std::invalid_argument(
            "--attempts/--attempts-per-edge apply to --like randomizing "
            "runs and to --method targeting with --d 2 or --d 3 (the "
            "rewiring chains are what they budget)");
      }
      set_phase("generate " + std::to_string(d) + "k");
      const auto stage_start = std::chrono::steady_clock::now();
      result = gen::generate_dk_random(target, d, options, ctx);
      if (g_want_report) {
        obs::StageRecord stage;
        stage.name = "generate." + std::to_string(d) + "k";
        stage.duration_seconds = seconds_since(stage_start);
        g_report.stages.push_back(stage);
      }
      if (g_stop.stop_requested()) {
        std::fprintf(stderr,
                     "generate: interrupted before completion; no output "
                     "written\n");
        return kExitInterrupted;
      }
    }
  }

  if (args.has_flag("--gcc")) {
    result = largest_connected_component(result).graph;
  }
  io::write_edge_list_file(out, result);
  record_output(out);
  status("wrote %s (%u nodes, %zu edges)\n", out.c_str(),
         result.num_nodes(), result.num_edges());
  const std::string dot = args.get_string("--dot", "");
  if (!dot.empty()) {
    io::write_dot_file(dot, result);
    record_output(dot);
    status("wrote %s\n", dot.c_str());
  }
  print_metrics(result);
  return 0;
}

int cmd_rescale(const util::ArgParser& args, util::Rng& rng) {
  const std::string from = args.get_string("--from-2k", "");
  const std::string out = args.get_string("--out", "");
  const std::uint64_t nodes = parse_count(args, "--nodes", 0);
  if (from.empty() || out.empty() || nodes == 0) {
    std::fprintf(stderr,
                 "rescale: --from-2k, --nodes and --out are required\n");
    return 2;
  }
  record_config("nodes", std::to_string(nodes));
  const auto source = io::read_2k_file(from);
  dk::RescaleReport report;
  const auto scaled = dk::rescale_2k(source, nodes, rng, &report);
  io::write_2k_file(out, scaled);
  record_output(out);
  status("wrote %s: %lld edges (%lld scaled + %lld repair), "
         "~%llu nodes\n",
         out.c_str(), static_cast<long long>(scaled.num_edges()),
         static_cast<long long>(report.scaled_edges),
         static_cast<long long>(report.repair_edges),
         static_cast<unsigned long long>(report.target_nodes));
  return 0;
}

int cmd_compare(const util::ArgParser& args) {
  if (args.positional().size() < 3) return usage();
  const Graph a = load(args.positional()[1], /*gcc=*/true);
  const Graph b = load(args.positional()[2], /*gcc=*/true);
  const auto da = dk::extract(a, 3);
  const auto db = dk::extract(b, 3);
  std::printf("A: %s\n", dk::describe(da).c_str());
  std::printf("B: %s\n", dk::describe(db).c_str());
  std::printf("D0=%.4f D1=%.0f D2=%.0f D3=%.0f\n",
              dk::distance_0k(da, db),
              dk::distance_1k(da.degree, db.degree),
              dk::distance_2k(da.joint, db.joint),
              dk::distance_3k(da.three_k, db.three_k));
  print_metrics(a);
  print_metrics(b);
  return 0;
}

int dispatch(const std::string& command, const util::ArgParser& args,
             util::Rng& rng) {
  if (command == "analyze") return cmd_analyze(args);
  if (command == "extract") return cmd_extract(args);
  if (command == "generate") return cmd_generate(args);
  if (command == "rescale") return cmd_rescale(args, rng);
  if (command == "compare") return cmd_compare(args);
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  // Every value-taking flag across the subcommands; the boolean ones
  // must NOT swallow a following positional
  // (`extract --gcc graph.edges out`).  Anything else is rejected below.
  const util::ArgParser args(
      argc, argv,
      {"--seed", "--buffer-kb", "--d", "--out", "--like", "--from-1k",
       "--from-2k", "--from-3k", "--method", "--chains", "--dot",
       "--nodes", "--checkpoint",
       "--checkpoint-every", "--resume", "--stop-after-checkpoints",
       "--report", "--trace", "--move", "--attempts", "--attempts-per-edge"});
  if (args.positional().empty()) return usage();
  const std::string& command = args.positional()[0];

  // Telemetry setup before any work runs.  The tracer must be enabled
  // up front so phase spans from the very first extraction pass land in
  // the buffer; the progress tee is static so engine threads can hold
  // the pointer for the whole run.
  g_quiet = args.has_flag("--quiet");
  std::string report_path;
  std::string trace_path;
  try {
    report_path = args.get_string("--report", "");
    trace_path = args.get_string("--trace", "");
  } catch (const std::exception& error) {
    std::fprintf(stderr, "orbis_tool: %s\n", error.what());
    return 2;
  }
  g_want_report = !report_path.empty();
  if (!trace_path.empty()) obs::Tracer::global().enable();
  if (args.has_flag("--progress") && !g_quiet) {
    g_meter = std::make_unique<obs::ProgressMeter>(stderr);
  }
  static obs::ProgressTee progress_tee(
      {g_meter.get(), g_want_report ? &g_trajectory : nullptr});
  if (g_meter != nullptr || g_want_report) g_progress = &progress_tee;

  g_report.command = command;
  for (int i = 0; i < argc; ++i) g_report.argv.emplace_back(argv[i]);

  // Cooperative shutdown: the first SIGINT/SIGTERM flips the stop token
  // and the run winds down at the next batch/leg boundary (flushing a
  // final checkpoint when one is configured); the second one kills.
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  const auto start = std::chrono::steady_clock::now();
  int code = 0;
  const std::string unknown = args.unknown_flag(
      {"--gcc", "--in-memory", "--trust-simple", "--progress", "--quiet"});
  if (!unknown.empty()) {
    g_report.error = "unknown flag " + unknown;
    std::fprintf(stderr, "orbis_tool: %s\n", g_report.error.c_str());
    code = usage();
  } else try {
    // Inside the try: a malformed --seed (strict parsing) must report
    // like any other bad flag, not escape main and terminate.
    const auto seed = static_cast<std::uint64_t>(args.get_int("--seed", 1));
    g_report.seed = seed;
    g_report.has_seed = true;
    util::Rng rng(seed);
    code = dispatch(command, args, rng);
  } catch (const Error& error) {
    // The structured taxonomy (util/errors.hpp) carries its own exit
    // code: parse 2, I/O 3, resource 4, interrupted 130.
    std::fprintf(stderr, "orbis_tool %s: %s\n", command.c_str(),
                 error.what());
    g_report.error = error.what();
    code = error.exit_code();
  } catch (const std::bad_alloc&) {
    std::fprintf(stderr, "orbis_tool %s: out of memory\n", command.c_str());
    g_report.error = "out of memory";
    code = exit_code_for(ErrorCategory::resource);
  } catch (const std::invalid_argument& error) {
    // CLI-level validation (bad flag values, unknown method): usage
    // errors, same exit class as malformed input.
    std::fprintf(stderr, "orbis_tool %s: %s\n", command.c_str(),
                 error.what());
    g_report.error = error.what();
    code = 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "orbis_tool %s: %s\n", command.c_str(),
                 error.what());
    g_report.error = error.what();
    code = 1;
  }

  if (g_meter != nullptr) g_meter->finish();

  // Trace first (it may bump the exit code on write failure), then the
  // report, which records the FINAL code.  Neither is gated on --quiet
  // and both are written on error and interrupt paths too — a failed
  // run's report is the most valuable one.
  if (!trace_path.empty()) {
    try {
      obs::Tracer::global().write_chrome_trace_file(trace_path);
      record_output(trace_path);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "orbis_tool: trace write failed: %s\n",
                   error.what());
      if (code == 0) code = exit_code_for(ErrorCategory::io);
    }
  }
  if (g_want_report) {
    g_report.exit_code = code;
    g_report.interrupted = code == kExitInterrupted;
    g_report.wall_seconds = seconds_since(start);
    g_report.trajectory = &g_trajectory;
    try {
      obs::write_run_report(report_path, g_report);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "orbis_tool: report write failed: %s\n",
                   error.what());
      if (code == 0) code = exit_code_for(ErrorCategory::io);
    }
  }
  return code;
}
