// Shared declarations of the paper-pipeline benchmark (pipebench/).
//
// The benchmark drives liborbis from outside, through its public
// headers only.  One binary, two modes:
//
//   pipebench gen --workload W --seed N --dir D
//       writes the workload's input files into D (deterministic in N);
//   pipebench run --workload W --seed N --dir D --seconds S --trace 0|1
//       times the workload on those files, checks every output and
//       prints one JSON result line (end-to-end metrics, or per-layer
//       metrics when traced).
//
// Generation runs in its own process so the run's peak RSS and set-up
// time see only the library's work.  See pipebench/README.md.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pipebench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Median of a non-empty sample (mean of the middle pair when even).
double median(std::vector<double> values);

/// Nearest-rank percentile, q in (0, 1]; 0 for an empty sample.
double percentile(std::vector<double> values, double q);

/// Current / peak resident set in MB (0 if /proc is unavailable).
double current_rss_mb();
double peak_rss_mb();

/// Whether `dir` sits on a RAM-backed filesystem (tmpfs/ramfs).
bool ram_backed(const std::string& dir);

/// fsync/fdatasync calls the process has made (fsync_shim.cpp: they are
/// counted and return at once, as on a RAM-backed filesystem).
std::uint64_t fsync_calls();

// ---------------------------------------------------------------------------
// Results.
// ---------------------------------------------------------------------------

/// Named metrics of one run, printed in insertion order.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  /// The JSON object {"name": {"value": v, "unit": u}, ...}.
  std::string metrics_json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Output checks.  Every expect() is one attempted check; a false one
/// is a failure, logged to stderr with its description.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  std::uint64_t attempted() const;
  std::uint64_t failed() const;

 private:
  mutable std::mutex mutex_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Spans (benchmark-side tracing around library calls).
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  std::string layer;  // io, core, gen, exec, metrics, svc, obs, bench
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  // index of the parent span, -1 = root
};

/// In-memory span recorder.  Disabled recorders record nothing and
/// return -1 ids, so instrumented code needs no branches.  Thread-safe:
/// service events arrive on the server's worker thread.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }

  /// Nanoseconds on the tracer's clock (steady, shared by all spans).
  static std::int64_t now_ns();

  std::int64_t begin(const std::string& name, const std::string& layer,
                     std::int64_t parent = -1);
  void end(std::int64_t id);
  /// A completed span with known bounds (reconstructed from events).
  std::int64_t add(const std::string& name, const std::string& layer,
                   std::int64_t start_ns, std::int64_t end_ns,
                   std::int64_t parent);

  /// RAII span: begin() now, end() at scope exit.
  class Scope {
   public:
    Scope(Tracer& tracer, const std::string& name, const std::string& layer,
          std::int64_t parent = -1)
        : tracer_(tracer), id_(tracer.begin(name, layer, parent)) {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::int64_t id() const noexcept { return id_; }

   private:
    Tracer& tracer_;
    std::int64_t id_;
  };

  std::vector<Span> spans() const;

  /// Self time summed per layer over the spans inside roots named
  /// `root`: each span's duration minus the part of its interval that
  /// its children cover.
  std::map<std::string, double> layer_self_seconds(
      const std::string& root) const;

  /// Share of span `id` covered by the union of its children.
  double child_coverage(std::int64_t id) const;

  /// Writes every span as a JSON array to `path`.
  void write_json(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;        // input/output directory (from `gen`)
  std::string trace_out;  // span dump path ("" = none)
};

bool is_pipeline_workload(const std::string& name);
bool is_session_workload(const std::string& name);

/// Writes the inputs of `workload` for `seed` into `dir`.
void generate_inputs(const std::string& workload, std::uint64_t seed,
                     const std::string& dir);

/// Runs a workload; fills `report` with the end-to-end metrics (or, in
/// a traced run, the per-layer ones) and `checks` with output checks.
void run_pipeline(const RunConfig& config, Report& report, Checks& checks);
void run_session(const RunConfig& config, Report& report, Checks& checks);

/// Every per-layer metric name with its unit, in output order.  A
/// traced run reports all of them; a workload that does not exercise a
/// layer reports 0 there.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Fills `report` with every per-layer metric: values from `measured`,
/// 0 for names a workload did not measure.
void emit_per_layer(const std::map<std::string, double>& measured,
                    Report& report);

/// Per-layer self-time entries (`<layer>.self_s`): the self time inside
/// spans named `root`, divided by `units` (the number of such roots).
void add_layer_self_times(const Tracer& tracer, const std::string& root,
                          double units,
                          std::map<std::string, double>& measured);

// ---------------------------------------------------------------------------
// Session plan (shared by `gen` and `run` so both agree on file names).
// ---------------------------------------------------------------------------

enum class RequestKind { hit, miss, metrics };

struct PlannedRequest {
  RequestKind kind = RequestKind::hit;
  std::string file;     // edge list the request reads (relative to dir)
  std::string content;  // content class: base file for hits, else `file`
};

struct SessionPlan {
  std::string target;              // heavy-tailed generate target
  std::vector<std::string> bases;  // extracted cold in set-up; hits copy them
  std::vector<std::string> metrics_inputs;
  std::vector<PlannedRequest> requests;
};

SessionPlan session_plan();

}  // namespace pipebench
