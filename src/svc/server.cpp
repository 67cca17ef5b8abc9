#include "svc/server.hpp"

#include <sys/stat.h>

#include <atomic>
#include <utility>

#include "gen/pipeline.hpp"
#include "io/dk_serialization.hpp"
#include "io/edge_list.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/errors.hpp"

namespace orbis::svc {

const char* to_string(JobKind kind) noexcept {
  switch (kind) {
    case JobKind::extract:
      return "extract";
    case JobKind::generate:
      return "generate";
    case JobKind::metrics:
      return "metrics";
  }
  return "?";
}

const char* to_string(JobState state) noexcept {
  switch (state) {
    case JobState::queued:
      return "queued";
    case JobState::running:
      return "running";
    case JobState::done:
      return "done";
    case JobState::failed:
      return "failed";
    case JobState::interrupted:
      return "interrupted";
  }
  return "?";
}

namespace {

/// Forwards extraction/metrics progress samples as job events.
class EventProgressSink : public obs::ProgressSink {
 public:
  EventProgressSink(std::function<void(const JobEvent&)> emit,
                    std::uint64_t job)
      : emit_(std::move(emit)), job_(job) {}

  void report(std::uint32_t lane, const obs::ProgressSample& sample) override {
    if (!emit_) return;
    JobEvent event;
    event.kind = JobEvent::Kind::progress;
    event.job = job_;
    event.state = JobState::running;
    event.attempts = sample.attempts;
    event.budget = sample.budget;
    event.lane = lane;
    emit_(event);
  }

 private:
  std::function<void(const JobEvent&)> emit_;
  std::uint64_t job_;
};

}  // namespace

struct Server::Job {
  std::uint64_t id = 0;
  JobRequest request;
  JobClass cls = JobClass::interactive;
  std::atomic<bool> cancelled{false};
  util::StopSource stop;
  obs::Registry registry;  // per-job scrape (RunContext::metrics)
  std::unique_ptr<EventProgressSink> progress;
  JobInfo info;  // guarded by Server::mutex_ once workers run
  bool started = false;

  /// Generate-job continuation: the target, read on the first slice,
  /// and the pipeline stepped one leg per slice.  Touched only by the
  /// worker holding the job's slice (one slice in flight at a time).
  dk::DkDistributions target;
  std::unique_ptr<gen::Pipeline> pipeline;
};

Server::Server(ServerOptions options)
    : options_(std::move(options)), queue_(options_.fairness) {
  util::expects(options_.workers >= 1, "Server: workers must be >= 1");
  util::expects(!options_.cache_dir.empty(),
                "Server: cache_dir must not be empty");
  // EEXIST is the common case (a prior server's cache — that is the
  // point of content addressing); any other failure surfaces on first
  // use as an IoError from the cache writes.
  ::mkdir(options_.cache_dir.c_str(), 0777);
  cache_ = std::make_unique<DkCache>(options_.cache_dir);
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Server::~Server() { shutdown(); }

void Server::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  queue_.close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void Server::emit(const JobEvent& event) const {
  if (options_.on_event) options_.on_event(event);
}

std::uint64_t Server::submit(JobRequest request) {
  util::expects(!request.input_path.empty(),
                "Server::submit: input_path must not be empty");
  switch (request.kind) {
    case JobKind::extract:
      util::expects(request.d >= 1 && request.d <= 3,
                    "Server::submit: extract d must be in [1,3]");
      util::expects(!request.output.empty(),
                    "Server::submit: extract needs an output prefix");
      break;
    case JobKind::generate:
      util::expects(request.d == 2 || request.d == 3,
                    "Server::submit: generate d must be 2 or 3");
      util::expects(!request.output.empty(),
                    "Server::submit: generate needs an output path");
      break;
    case JobKind::metrics:
      break;
  }

  auto job = std::make_unique<Job>();
  Job* raw = job.get();
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = next_id_++;
    job->id = id;
    job->request = std::move(request);
    job->cls = job->request.kind == JobKind::generate ? JobClass::batch
                                                      : JobClass::interactive;
    // The server owns the job's execution context wiring: its stop
    // source, its event-forwarding progress sink, its registry.
    job->request.ctx.stop = job->stop.token();
    job->progress = std::make_unique<EventProgressSink>(
        [this](const JobEvent& event) { emit(event); }, id);
    job->request.ctx.progress = job->progress.get();
    job->request.ctx.metrics = &job->registry;
    job->info.id = id;
    job->info.kind = job->request.kind;
    job->info.state = JobState::queued;
    jobs_.emplace(id, std::move(job));
  }

  JobEvent accepted;
  accepted.kind = JobEvent::Kind::accepted;
  accepted.job = id;
  accepted.state = JobState::queued;
  emit(accepted);
  queue_.push(raw->cls, id);
  return id;
}

bool Server::cancel(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  it->second->cancelled.store(true, std::memory_order_relaxed);
  it->second->stop.request_stop();
  return true;
}

JobInfo Server::status(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    throw std::invalid_argument("Server::status: unknown job id " +
                                std::to_string(id));
  }
  return it->second->info;
}

JobInfo Server::wait(std::uint64_t id) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    throw std::invalid_argument("Server::wait: unknown job id " +
                                std::to_string(id));
  }
  Job* job = it->second.get();
  done_cv_.wait(lock, [&] {
    return job->info.state == JobState::done ||
           job->info.state == JobState::failed ||
           job->info.state == JobState::interrupted;
  });
  return job->info;
}

void Server::worker_loop() {
  std::uint64_t id = 0;
  while (queue_.pop(id)) {
    Job* job = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = jobs_.find(id);
      if (it == jobs_.end()) continue;
      job = it->second.get();
    }
    run_slice(*job);
  }
}

void Server::finish(Job& job, JobState state, const std::string& error) {
  // The event goes out before the state is published, so a wait() that
  // has returned implies on_event has seen `done`.
  JobEvent event;
  event.kind = JobEvent::Kind::done;
  event.job = job.id;
  event.state = state;
  event.text = error;
  emit(event);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job.info.state = state;
    job.info.error = error;
  }
  done_cv_.notify_all();
}

void Server::run_slice(Job& job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!job.started) {
      job.started = true;
      job.info.state = JobState::running;
      JobEvent event;
      event.kind = JobEvent::Kind::started;
      event.job = job.id;
      event.state = JobState::running;
      emit(event);
    }
  }
  // A cancel that lands while the job sits in the queue resolves here,
  // without paying for any setup.
  if (job.cancelled.load(std::memory_order_relaxed)) {
    finish(job, JobState::interrupted, "");
    return;
  }
  try {
    switch (job.request.kind) {
      case JobKind::extract:
        run_extract(job);
        break;
      case JobKind::metrics:
        run_metrics(job);
        break;
      case JobKind::generate:
        run_generate_leg(job);
        break;
    }
  } catch (const InterruptedError&) {
    finish(job, JobState::interrupted, "");
  } catch (const std::exception& error) {
    finish(job, JobState::failed, error.what());
  }
}

void Server::run_extract(Job& job) {
  const obs::Span span("svc.job.extract");
  io::StreamingExtractOptions options;
  options.extractor.assume_simple = job.request.assume_simple;
  const DkCache::Outcome outcome =
      cache_->extract_to(job.request.input_path, job.request.d,
                         job.request.output, options, job.request.ctx);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job.info.files = outcome.files;
    job.info.cache_hit = outcome.hit;
  }
  finish(job, JobState::done, "");
}

void Server::run_metrics(Job& job) {
  const obs::Span span("svc.job.metrics");
  const io::EdgeListReadResult loaded =
      io::read_edge_list_file(job.request.input_path);
  metrics::SummaryOptions options;
  options.with_spectrum = job.request.with_spectrum;
  options.with_distance = job.request.with_distance;
  options.with_s2 = job.request.with_s2;
  const metrics::ScalarMetrics scalar =
      metrics::compute_scalar_metrics(loaded.graph, options, job.request.ctx);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job.info.scalar = scalar;
  }
  finish(job, JobState::done, "");
}

void Server::run_generate_leg(Job& job) {
  const obs::Span span("svc.job.generate_leg");
  const JobRequest& request = job.request;
  if (!job.pipeline) {
    // First slice: read the target distributions, then the pipeline
    // seeds the 1K start graph and sets up the 2K stage.
    job.target.degree = io::read_1k_file(request.input_path + ".1k");
    job.target.joint = io::read_2k_file(request.input_path + ".2k");
    if (request.d >= 3) {
      job.target.three_k = io::read_3k_file(request.input_path + ".3k");
    }
    gen::PipelineOptions options;
    options.d = request.d;
    options.targeting.temperature = request.temperature;
    if (request.attempts_per_edge > 0) {
      options.targeting.attempts_per_edge = request.attempts_per_edge;
    }
    options.targeting.attempts = request.attempts;
    options.checkpoint_every = request.checkpoint_every;
    // A per-edge budget past the cap fits 64 bits, so nothing else
    // stops it; m is the 1K target's, as gen::Pipeline takes it.
    const std::uint64_t budget = gen::attempt_budget(
        options.targeting.attempts, options.targeting.attempts_per_edge,
        job.target.degree.num_stubs() / 2);
    if (budget > kMaxAttempts) {
      throw ParseError("generate: a budget of " + std::to_string(budget) +
                       " attempts per chain exceeds svc::kMaxAttempts = " +
                       std::to_string(kMaxAttempts));
    }
    // Batch jobs report at leg granularity (the `leg` events); per-
    // attempt samples through the event sink would flood the wire.
    RunContext ctx = request.ctx;
    ctx.progress = nullptr;
    job.pipeline = std::make_unique<gen::Pipeline>(
        job.target, std::move(options), ctx.make_rng(), ctx);
    std::lock_guard<std::mutex> lock(mutex_);
    job.info.budget = job.pipeline->checkpoint().budget;
  }

  gen::CheckpointOptions checkpointing;
  checkpointing.on_checkpoint = [this, &job](const gen::RunCheckpoint& run) {
    std::uint64_t legs = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      legs = ++job.info.legs_done;
      job.info.attempts_done = run.chains[0].attempts_done;
    }
    JobEvent event;
    event.kind = JobEvent::Kind::leg;
    event.job = job.id;
    event.state = JobState::running;
    event.attempts = legs;
    event.budget =
        (run.budget + run.checkpoint_every - 1) / run.checkpoint_every;
    emit(event);
  };
  // One leg per slice, then the job re-queues behind whatever
  // interactive work arrived meanwhile.
  gen::Pipeline& pipeline = *job.pipeline;
  const bool finished = pipeline.step(checkpointing);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job.info.best_distance = pipeline.result().best_distance;
    job.info.attempts_done = pipeline.result().attempts_done;
  }

  // A stop only ever comes from cancel().
  if (job.cancelled.load(std::memory_order_relaxed)) {
    finish(job, JobState::interrupted, "");
    return;
  }
  if (!finished) {
    queue_.push(job.cls, job.id);
    return;
  }
  io::write_edge_list_file(request.output, pipeline.graph());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job.info.files = {request.output};
  }
  finish(job, JobState::done, "");
}

}  // namespace orbis::svc
