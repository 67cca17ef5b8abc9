// The topology service (docs/service.md): an asynchronous job API over
// the library's extract / generate / metrics entry points.
//
// Server is the IN-PROCESS facade — `orbis_server` (examples/) is a
// thin stdio JSON front end over it, and tests drive it directly with
// concurrent submitting threads.  One Server owns:
//
//   * a FairQueue (svc/scheduler.hpp) of job slices and `workers`
//     dispatch threads (default 1: deterministic dispatch order, the
//     configuration the cache and fairness tests rely on);
//   * a DkCache (svc/dk_cache.hpp) shared by every extract job;
//   * a job table: per job a svc::RunContext (seed, StopToken from the
//     job's own StopSource, a per-job metrics Registry, a progress
//     adapter that re-emits samples as events), state, and results.
//
// Job model.  Extract and metrics jobs are INTERACTIVE: one slice,
// start to finish.  Generate jobs are BATCH: a job is a gen::Pipeline
// (gen/pipeline.hpp) stepped one checkpoint LEG per slice, after which
// the job re-queues.  Interactive work therefore interleaves with a
// long-running generate at leg boundaries, and the FairQueue's stride
// policy bounds how long a backlog of either class can delay the
// other.  A d = 3 generate runs its paper-§5.1 stages in sequence
// (1K bootstrap -> 2K legs -> 3K legs) under one job id, and writes the
// same graph as gen::generate_dk_random and `orbis_tool generate` for
// the same request.
//
// Cancellation: cancel() sets the job's cancelled flag and requests
// stop on its StopSource.  An extract/metrics slice aborts at the next
// poll point (orbis::InterruptedError); a generate slice discards its
// partial leg (checkpoint-driver semantics) and the job completes with
// state `interrupted` — never blocking, and never publishing mid-leg
// state.  Cancelling a queued job resolves it the moment a worker
// pops it.
//
// Every state change is emitted as a JobEvent through
// ServerOptions::on_event (called from worker threads — handlers must
// be thread-safe) and is also visible via status()/wait().
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "metrics/summary.hpp"
#include "svc/dk_cache.hpp"
#include "svc/run_context.hpp"
#include "svc/scheduler.hpp"

namespace orbis::svc {

enum class JobKind : std::uint8_t { extract, generate, metrics };

enum class JobState : std::uint8_t {
  queued,
  running,
  done,         // completed successfully
  failed,       // threw; JobInfo::error has the message
  interrupted,  // cancelled before completion
};

const char* to_string(JobKind kind) noexcept;
const char* to_string(JobState state) noexcept;

/// The most attempts a generate request may ask each chain for.  At
/// about 1 us an attempt, 2^40 (about 1.1e12) is two weeks of one core;
/// a larger `attempts` is a mistake that would run until cancelled.  The
/// wire parser refuses it before the job is queued.
inline constexpr std::uint64_t kMaxAttempts = std::uint64_t{1} << 40;

/// One submission.  Field applicability by kind:
///   extract   input_path = edge list, output = dK file prefix, d in [1,3]
///   generate  input_path = dK file prefix (an extract's output),
///             output = edge-list path, d in {2,3}
///   metrics   input_path = edge list (output unused)
struct JobRequest {
  JobKind kind = JobKind::extract;
  std::string input_path;
  std::string output;
  int d = 3;
  /// Execution context: seed (generate), stop/progress/metrics are
  /// OWNED by the server per job — caller-set stop/progress/metrics
  /// fields are ignored.
  RunContext ctx{};
  /// extract: trusted-simple input (dk::StreamingOptions).
  bool assume_simple = false;
  /// generate: budget/temperature knobs; 0 = TargetingOptions defaults.
  std::uint64_t attempts = 0;
  std::size_t attempts_per_edge = 0;
  double temperature = 0.0;
  /// generate: leg length; 0 = auto (budget / 8, so every run has
  /// interleaving boundaries).
  std::uint64_t checkpoint_every = 0;
  /// metrics: phase toggles (metrics/summary.hpp).
  bool with_spectrum = true;
  bool with_distance = true;
  bool with_s2 = true;
};

struct JobEvent {
  enum class Kind : std::uint8_t {
    accepted,  // submitted and queued
    started,   // first slice began
    progress,  // a ProgressSample (extract/metrics phases)
    leg,       // a generate leg completed; attempts/budget are per chain
    done,      // terminal; `state` is done/failed/interrupted
  };
  Kind kind = Kind::accepted;
  std::uint64_t job = 0;
  JobState state = JobState::queued;
  std::uint64_t attempts = 0;
  std::uint64_t budget = 0;
  std::uint32_t lane = 0;
  std::string text;  // failure message on done/failed
};

/// Terminal snapshot of a job, from status() or wait().
struct JobInfo {
  std::uint64_t id = 0;
  JobKind kind = JobKind::extract;
  JobState state = JobState::queued;
  std::string error;
  /// extract: published files + cache disposition.
  std::vector<std::string> files;
  bool cache_hit = false;
  /// generate: progress + result.
  std::uint64_t legs_done = 0;
  std::uint64_t attempts_done = 0;
  std::uint64_t budget = 0;
  double best_distance = 0.0;
  /// metrics result (valid when kind == metrics and state == done).
  metrics::ScalarMetrics scalar{};
};

struct ServerOptions {
  /// Dispatch threads.  Default 1 = fully deterministic dispatch; the
  /// fairness and cache-determinism tests depend on it.
  std::size_t workers = 1;
  /// Directory for the content-addressed dK cache (created if absent).
  std::string cache_dir = ".orbis-cache";
  FairQueueOptions fairness{};
  /// Event stream; called from worker AND submitting threads.
  std::function<void(const JobEvent&)> on_event;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  /// Drains nothing: closes the queue, joins workers (the slice each
  /// worker is on completes; queued jobs are dropped silently).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Validates and enqueues; returns the job id.  Throws
  /// std::invalid_argument on a malformed request (unknown d, empty
  /// paths) — nothing is enqueued then.
  std::uint64_t submit(JobRequest request);

  /// Requests cancellation; returns false for unknown ids.  Idempotent;
  /// a no-op on jobs already terminal.
  bool cancel(std::uint64_t id);

  /// Point-in-time snapshot; throws std::invalid_argument for unknown
  /// ids.
  JobInfo status(std::uint64_t id) const;

  /// Blocks until the job is terminal, then returns its snapshot.
  JobInfo wait(std::uint64_t id);

  /// Stops accepting dispatches and joins the workers (idempotent; the
  /// destructor calls it).
  void shutdown();

  DkCache& cache() noexcept { return *cache_; }

 private:
  struct Job;

  void worker_loop();
  void run_slice(Job& job);
  void run_extract(Job& job);
  void run_metrics(Job& job);
  void run_generate_leg(Job& job);
  void finish(Job& job, JobState state, const std::string& error);
  void emit(const JobEvent& event) const;

  ServerOptions options_;
  std::unique_ptr<DkCache> cache_;
  FairQueue queue_;

  mutable std::mutex mutex_;  // job table + per-job mutable state
  std::condition_variable done_cv_;
  std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;
  std::uint64_t next_id_ = 1;

  std::vector<std::thread> workers_;
  bool shut_down_ = false;
};

}  // namespace orbis::svc
