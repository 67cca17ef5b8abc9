// svc-session: an in-process svc::Server with one dispatch worker, one
// background d = 3 generate job (two chains on the shared pool, fixed
// attempt budget, default leg cadence) and 120 interactive requests from
// one closed-loop client thread (one request outstanding at a time):
// cache hits on byte-distinct copies of extracted content, misses on
// fresh content, and metrics jobs.
//
//   set-up  server start + cold extraction of the target and of the
//           hit requests' base contents (setup_s: median of >= 9);
//   wall    generate submit -> last of (generate done, last request
//           done).  Sessions repeat, each on a fresh server and cache,
//           until --seconds have been measured; wall_s is the median.
//
// Traced sessions record the server's job events (accepted, started,
// leg, done) as spans: queue wait, slice run time, generate legs.
#include <time.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include <sys/stat.h>

#include "bench.hpp"
#include "core/dk_state.hpp"
#include "core/series.hpp"
#include "gen/matching.hpp"
#include "io/chunked_edge_reader.hpp"
#include "io/dk_serialization.hpp"
#include "io/edge_list.hpp"
#include "metrics/summary.hpp"
#include "svc/server.hpp"
#include "util/rng.hpp"

namespace pipebench {

namespace {

namespace svc = orbis::svc;

constexpr std::uint64_t kGenerateAttempts = 400'000;  // per chain, per stage
constexpr std::size_t kGenerateChains = 2;
constexpr int kMinSetups = 9;  // a set-up is ~0.1 s; setup_s is the median

std::int64_t process_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// Server job events with their arrival time, for the traced run.
struct EventLog {
  struct Record {
    std::int64_t t_ns = 0;
    std::int64_t cpu_ns = 0;
    svc::JobEvent::Kind kind = svc::JobEvent::Kind::accepted;
    std::uint64_t job = 0;
    std::uint64_t legs_per_stage = 0;  // leg events only
    double rss_mb = 0.0;               // leg events only
  };

  void record(const svc::JobEvent& event) {
    if (event.kind == svc::JobEvent::Kind::progress) return;
    Record r;
    r.t_ns = Tracer::now_ns();
    r.cpu_ns = process_cpu_ns();
    r.kind = event.kind;
    r.job = event.job;
    if (event.kind == svc::JobEvent::Kind::leg) {
      r.legs_per_stage = event.budget;
      r.rss_mb = current_rss_mb();
    }
    std::lock_guard<std::mutex> lock(mutex);
    records.push_back(r);
  }

  std::mutex mutex;
  std::vector<Record> records;
};

struct Setup {
  std::unique_ptr<EventLog> events;
  std::unique_ptr<svc::Server> server;
  std::string root;  // this server's cache and outputs
  std::string out;   // this server's output directory
  double seconds = 0.0;
  double rss_mb = 0.0;
};

void make_dir(const std::string& path) {
  if (::mkdir(path.c_str(), 0777) != 0 && errno != EEXIST) {
    throw std::runtime_error("cannot create " + path);
  }
}

// Starts a fresh server on an empty cache and extracts the session's
// large inputs cold.
Setup set_up(const RunConfig& config, const SessionPlan& plan, int index,
             bool record_events, Checks& checks) {
  Setup setup;
  setup.root = config.dir + "/svc" + std::to_string(index);
  const std::string& root = setup.root;
  make_dir(root);
  setup.out = root + "/out";
  make_dir(setup.out);
  if (record_events) setup.events = std::make_unique<EventLog>();

  const auto start = Clock::now();
  svc::ServerOptions options;
  options.workers = 1;
  options.cache_dir = root + "/cache";
  if (setup.events) {
    EventLog* log = setup.events.get();
    options.on_event = [log](const svc::JobEvent& event) {
      log->record(event);
    };
  }
  setup.server = std::make_unique<svc::Server>(std::move(options));
  std::vector<std::uint64_t> ids;
  std::vector<std::string> inputs = plan.bases;
  inputs.insert(inputs.begin(), plan.target);
  for (const auto& input : inputs) {
    svc::JobRequest request;
    request.kind = svc::JobKind::extract;
    request.input_path = config.dir + "/" + input;
    request.output = setup.out + "/" + input;
    request.d = 3;
    ids.push_back(setup.server->submit(std::move(request)));
  }
  for (const auto id : ids) {
    const svc::JobInfo info = setup.server->wait(id);
    checks.expect(info.state == svc::JobState::done && !info.cache_hit,
                  "cold set-up extraction completed as a cache miss");
  }
  setup.seconds = seconds_between(start, Clock::now());
  setup.rss_mb = current_rss_mb();
  return setup;
}

// Stops the server and deletes its cache and outputs.  A session
// writes ~200 MB; deleted within seconds, it never reaches the disk,
// while a late delete would wait for its writeback.
void release(Setup& setup) {
  setup.server->shutdown();
  std::filesystem::remove_all(setup.root);
}

struct Session {
  double wall_s = 0.0;
  std::vector<double> latency_ms;       // per request, submit -> done
  std::vector<std::int64_t> submit_ns;  // per request
  std::vector<std::int64_t> done_ns;
  std::vector<svc::JobInfo> infos;
  svc::JobInfo generate;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

Session run_one(const RunConfig& config, const SessionPlan& plan,
                Setup& setup) {
  svc::Server& server = *setup.server;
  Session session;
  session.start_ns = Tracer::now_ns();
  const auto start = Clock::now();

  svc::JobRequest generate;
  generate.kind = svc::JobKind::generate;
  generate.input_path = setup.out + "/" + plan.target;
  generate.output = setup.out + "/generated.edges";
  generate.d = 3;
  generate.ctx.seed = config.seed;
  generate.ctx.chains = kGenerateChains;
  generate.ctx.workers = 1;
  generate.attempts = kGenerateAttempts;
  const std::uint64_t generate_id = server.submit(std::move(generate));

  for (std::size_t i = 0; i < plan.requests.size(); ++i) {
    const PlannedRequest& planned = plan.requests[i];
    svc::JobRequest request;
    request.input_path = config.dir + "/" + planned.file;
    if (planned.kind == RequestKind::metrics) {
      request.kind = svc::JobKind::metrics;
    } else {
      request.kind = svc::JobKind::extract;
      request.output = setup.out + "/req" + std::to_string(i);
      request.d = 3;
    }
    const auto submitted = Clock::now();
    session.submit_ns.push_back(Tracer::now_ns());
    const std::uint64_t id = server.submit(std::move(request));
    session.infos.push_back(server.wait(id));
    session.done_ns.push_back(Tracer::now_ns());
    session.latency_ms.push_back(1e3 *
                                 seconds_between(submitted, Clock::now()));
  }
  session.generate = server.wait(generate_id);
  session.wall_s = seconds_between(start, Clock::now());
  session.end_ns = Tracer::now_ns();
  return session;
}

bool same_metrics(const orbis::metrics::ScalarMetrics& a,
                  const orbis::metrics::ScalarMetrics& b) {
  return a.average_degree == b.average_degree &&
         a.assortativity == b.assortativity &&
         a.mean_clustering == b.mean_clustering &&
         a.mean_distance == b.mean_distance &&
         a.distance_stddev == b.distance_stddev &&
         a.likelihood_s == b.likelihood_s && a.s2 == b.s2 &&
         a.lambda1 == b.lambda1 && a.lambda_max == b.lambda_max &&
         a.gcc_nodes == b.gcc_nodes && a.gcc_edges == b.gcc_edges;
}

// Direct library answers the service's outputs are checked against,
// computed on first use and reused by every session of the run.
class References {
 public:
  explicit References(const RunConfig& config) : config_(config) {}

  // `content`'s .1k/.2k/.3k files as a direct extraction serializes
  // them: what a service extract of the same content must publish.
  const std::array<std::string, 3>& extract(const std::string& content) {
    auto it = extracts_.find(content);
    if (it == extracts_.end()) {
      const auto dists =
          orbis::io::extract_dk_streaming(path(content), 3).distributions;
      std::ostringstream k1, k2, k3;
      orbis::io::write_1k(k1, dists.degree);
      orbis::io::write_2k(k2, dists.joint);
      orbis::io::write_3k(k3, dists.three_k);
      it = extracts_
               .emplace(content, std::array<std::string, 3>{
                                     k1.str(), k2.str(), k3.str()})
               .first;
    }
    return it->second;
  }

  const orbis::metrics::ScalarMetrics& metrics(const std::string& content) {
    auto it = metrics_.find(content);
    if (it == metrics_.end()) {
      const auto g = orbis::io::read_edge_list_file(path(content)).graph;
      it = metrics_.emplace(content, orbis::metrics::compute_scalar_metrics(g))
               .first;
    }
    return it->second;
  }

  // The generate target's distributions, and d3_rel's base: D3 of a
  // 2K-random graph (gen::matching_2k) with the target JDD.
  const orbis::dk::DkDistributions& target(const std::string& content) {
    if (target_.num_edges == 0) {
      namespace dk = orbis::dk;
      target_ = orbis::io::extract_dk_streaming(path(content), 3).distributions;
      orbis::util::Rng rng(config_.seed * 0x9e3779b97f4a7c15ull + 11);
      const orbis::Graph random_2k = orbis::gen::matching_2k(target_.joint, rng);
      d3_base_ = dk::distance_3k(dk::ThreeKProfile::from_graph(random_2k),
                                 target_.three_k);
    }
    return target_;
  }
  double d3_base() const noexcept { return d3_base_; }

 private:
  std::string path(const std::string& content) const {
    return config_.dir + "/" + content;
  }

  const RunConfig& config_;
  std::map<std::string, std::array<std::string, 3>> extracts_;
  std::map<std::string, orbis::metrics::ScalarMetrics> metrics_;
  orbis::dk::DkDistributions target_;
  double d3_base_ = 0.0;
};

// Output checks of one session; returns its d3_rel.
double check_session(const SessionPlan& plan, const Setup& setup,
                     const Session& session, References& refs,
                     Checks& checks) {
  namespace dk = orbis::dk;
  std::uint64_t hits = 0;
  std::uint64_t expected_hits = 0;
  for (std::size_t i = 0; i < plan.requests.size(); ++i) {
    const PlannedRequest& planned = plan.requests[i];
    const svc::JobInfo& info = session.infos[i];
    checks.expect(info.state == svc::JobState::done,
                  "request " + planned.file + " ended done");
    if (planned.kind == RequestKind::metrics) {
      checks.expect(same_metrics(info.scalar, refs.metrics(planned.content)),
                    "metrics job on " + planned.file +
                        " equals a direct compute_scalar_metrics");
      continue;
    }
    const bool repeat = planned.kind == RequestKind::hit;
    expected_hits += repeat ? 1 : 0;
    hits += info.cache_hit ? 1 : 0;
    const std::string prefix = setup.out + "/req" + std::to_string(i);
    const auto& expected = refs.extract(planned.content);
    checks.expect(info.cache_hit == repeat &&
                      read_file(prefix + ".1k") == expected[0] &&
                      read_file(prefix + ".2k") == expected[1] &&
                      read_file(prefix + ".3k") == expected[2],
                  "extract of " + planned.file + " is a " +
                      (repeat ? "hit" : "miss") +
                      " byte-identical to a direct extraction");
  }
  checks.expect(hits == expected_hits,
                "cache hits (" + std::to_string(hits) +
                    ") equal the repeat requests (" +
                    std::to_string(expected_hits) + ")");

  // The generate job: target 1K and JDD, reported D3 = a fresh extraction.
  const dk::DkDistributions& target = refs.target(plan.target);
  checks.expect(session.generate.state == svc::JobState::done,
                "generate job ended done");
  const auto generated =
      orbis::io::read_edge_list_file(setup.out + "/generated.edges").graph;
  checks.expect(dk::DegreeDistribution::from_graph(generated) ==
                        target.degree &&
                    dk::JointDegreeDistribution::from_graph(generated) ==
                        target.joint,
                "generated graph has the target 1K and JDD (D2 = 0)");
  const double d3_final = dk::distance_3k(
      dk::ThreeKProfile::from_graph(generated), target.three_k);
  checks.expect(d3_final == session.generate.best_distance,
                "generate job's reported D3 matches a fresh extraction");
  std::printf("check: generate D3 %.6g (2K-random %.6g, d3_rel %.6f), "
              "legs %llu, cache hits %llu/%zu requests\n",
              d3_final, refs.d3_base(), d3_final / refs.d3_base(),
              static_cast<unsigned long long>(session.generate.legs_done),
              static_cast<unsigned long long>(hits), plan.requests.size());
  return d3_final / refs.d3_base();
}

// Per-layer numbers of one traced session, from its job events.
void measure_layers(const SessionPlan& plan, const Setup& setup,
                    const Session& session, Tracer& tracer,
                    std::map<std::string, double>& m) {
  std::vector<EventLog::Record> records;
  {
    std::lock_guard<std::mutex> lock(setup.events->mutex);
    records = setup.events->records;
  }
  // Per job: accepted / started / done times.
  struct Times {
    std::int64_t accepted = -1, started = -1, done = -1;
  };
  std::map<std::uint64_t, Times> times;
  for (const auto& r : records) {
    Times& t = times[r.job];
    if (r.kind == svc::JobEvent::Kind::accepted) t.accepted = r.t_ns;
    if (r.kind == svc::JobEvent::Kind::started) t.started = r.t_ns;
    if (r.kind == svc::JobEvent::Kind::done) t.done = r.t_ns;
  }

  const std::int64_t root = tracer.add("svc.session", "bench", session.start_ns,
                                       session.end_ns, -1);
  std::vector<double> hit_ms, miss_ms, metrics_ms, wait_ms;
  for (std::size_t i = 0; i < plan.requests.size(); ++i) {
    const svc::JobInfo& info = session.infos[i];
    const Times& t = times[info.id];
    const RequestKind kind = plan.requests[i].kind;
    const std::int64_t request =
        tracer.add("svc.request", "svc", session.submit_ns[i],
                   session.done_ns[i], root);
    const double run_ms = 1e-6 * static_cast<double>(t.done - t.started);
    wait_ms.push_back(1e-6 * static_cast<double>(t.started - t.accepted));
    if (kind == RequestKind::metrics) {
      metrics_ms.push_back(run_ms);
      tracer.add("metrics.run", "metrics", t.started, t.done, request);
    } else if (info.cache_hit) {
      hit_ms.push_back(run_ms);
      tracer.add("svc.extract.hit", "svc", t.started, t.done, request);
    } else {
      miss_ms.push_back(run_ms);
      tracer.add("core.extract.miss", "core", t.started, t.done, request);
    }
  }

  // Generate legs.  The worker is single-threaded, so a leg starts at
  // the worker's previous event (the generate's start, a leg end, or an
  // interactive job's done).  Its 3K stage always runs its full budget,
  // so the last legs_per_stage legs are the 3K ones.
  const std::uint64_t generate_id = session.generate.id;
  const Times& g = times[generate_id];
  const std::int64_t generate_span =
      tracer.add("svc.generate", "svc", g.accepted, g.done, root);
  struct Leg {
    std::int64_t start_ns, end_ns, cpu_start, cpu_end;
    std::uint64_t per_stage;
    double rss_mb;
  };
  std::vector<Leg> legs;
  std::int64_t last_t = -1;
  std::int64_t last_cpu = 0;
  for (const auto& r : records) {
    const bool worker_event =
        r.kind == svc::JobEvent::Kind::done ||
        r.kind == svc::JobEvent::Kind::leg ||
        (r.kind == svc::JobEvent::Kind::started && r.job == generate_id);
    if (!worker_event || r.t_ns < session.start_ns) continue;
    if (r.kind == svc::JobEvent::Kind::leg && r.job == generate_id &&
        last_t >= 0) {
      legs.push_back({last_t, r.t_ns, last_cpu, r.cpu_ns, r.legs_per_stage,
                      r.rss_mb});
      tracer.add("gen.leg", "gen", last_t, r.t_ns, generate_span);
    }
    last_t = r.t_ns;
    last_cpu = r.cpu_ns;
  }
  std::vector<double> leg_ms, parallelism;
  double rss_3k = 0.0;
  const std::size_t per_stage = legs.empty() ? 0 : legs.back().per_stage;
  for (std::size_t i = legs.size() > per_stage ? legs.size() - per_stage : 0;
       i < legs.size(); ++i) {
    const double wall = static_cast<double>(legs[i].end_ns - legs[i].start_ns);
    leg_ms.push_back(1e-6 * wall);
    parallelism.push_back(
        wall > 0 ? static_cast<double>(legs[i].cpu_end - legs[i].cpu_start) /
                       wall
                 : 0.0);
    rss_3k = std::max(rss_3k, legs[i].rss_mb);
  }

  const auto hits = static_cast<double>(hit_ms.size());
  m["svc.extract_hit_ms"] = median(hit_ms);
  m["svc.extract_miss_ms"] = median(miss_ms);
  m["svc.cache.hits"] = hits;
  m["svc.cache.hit_ratio"] =
      hits / (hits + static_cast<double>(miss_ms.size()));
  m["svc.queue_wait_p50_ms"] = percentile(wait_ms, 0.5);
  m["svc.queue_wait_p90_ms"] = percentile(wait_ms, 0.9);
  m["svc.generate.leg_ms"] = median(leg_ms);
  m["svc.generate.legs"] = static_cast<double>(session.generate.legs_done);
  m["svc.metrics_run_ms"] = median(metrics_ms);
  m["exec.leg_parallelism"] = median(parallelism);
  m["mem.after_3k_mb"] = rss_3k;
  m["obs.span_coverage"] = tracer.child_coverage(root);
}

}  // namespace

void run_session(const RunConfig& config, Report& report, Checks& checks) {
  const SessionPlan plan = session_plan();
  Tracer tracer(config.trace);
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<double> traced_wall_s;
  std::vector<double> p50_ms, p90_ms;
  std::vector<double> d3_rel;
  std::map<std::string, double> m;
  References refs(config);
  double rss_after_setup = 0.0;
  double peak_mb = 0.0;  // after the first session, before any check
  std::uint64_t traced_fsyncs = 0;
  int next_server = 0;

  // Measured sessions, each on a fresh server.  A traced run alternates
  // untraced and traced sessions, so their difference is the tracing
  // overhead.
  double measured_s = 0.0;  // session walls only
  do {
    for (int traced = 0; traced <= (config.trace ? 1 : 0); ++traced) {
      Setup setup = set_up(config, plan, next_server++, traced == 1, checks);
      setup_s.push_back(setup.seconds);
      rss_after_setup = setup.rss_mb;
      const std::uint64_t fsyncs_before = fsync_calls();
      const Session session = run_one(config, plan, setup);
      setup.server->shutdown();  // joins the worker before its events are read
      measured_s += session.wall_s;
      if (peak_mb == 0.0) peak_mb = peak_rss_mb();
      if (traced == 1) {
        traced_fsyncs += fsync_calls() - fsyncs_before;
        traced_wall_s.push_back(session.wall_s);
        measure_layers(plan, setup, session, tracer, m);
      } else {
        wall_s.push_back(session.wall_s);
        p50_ms.push_back(percentile(session.latency_ms, 0.5));
        p90_ms.push_back(percentile(session.latency_ms, 0.9));
      }
      d3_rel.push_back(check_session(plan, setup, session, refs, checks));
      release(setup);
    }
  } while (measured_s < config.seconds);
  while (static_cast<int>(setup_s.size()) < kMinSetups) {
    Setup setup = set_up(config, plan, next_server++, false, checks);
    setup_s.push_back(setup.seconds);
    release(setup);
  }
  for (const double rel : d3_rel) {
    checks.expect(rel == d3_rel.front(),
                  "every session reproduces the first session's D3");
  }

  std::printf("run: %zu sessions, wall %.4f s (median), setup %.4f s, "
              "interactive p50 %.3f ms p90 %.3f ms, work dir on %s\n",
              wall_s.size(), median(wall_s), median(setup_s), median(p50_ms),
              median(p90_ms),
              ram_backed(config.dir) ? "a RAM-backed filesystem" : "disk");

  if (!config.trace) {
    report.set("setup_s", median(setup_s), "s");
    report.set("wall_s", median(wall_s), "s");
    report.set("peak_rss_mb", peak_mb, "MB");
    report.set("d3_rel", d3_rel.front(), "ratio");
    return;
  }

  // Traced-only probes: a direct extraction of the target and a
  // standalone 3K DkState build on it (what every 3K leg pays per chain).
  const std::string target_path = config.dir + "/" + plan.target;
  {
    const auto start = Clock::now();
    const auto extracted = orbis::io::extract_dk_streaming(target_path, 3);
    m["core.extract_s"] = seconds_between(start, Clock::now());
  }
  {
    const auto g = orbis::io::read_edge_list_file(target_path).graph;
    const auto start = Clock::now();
    const orbis::dk::DkState state(g, orbis::dk::TrackLevel::full_three_k);
    m["core.dkstate_build_s"] = seconds_between(start, Clock::now());
  }
  m["mem.after_extract_mb"] = rss_after_setup;
  m["io.fsync_calls"] = static_cast<double>(traced_fsyncs) /
                        static_cast<double>(traced_wall_s.size());
  m["svc.interactive_p50_ms"] = median(p50_ms);
  m["svc.interactive_p90_ms"] = median(p90_ms);
  m["obs.trace_overhead_frac"] = median(traced_wall_s) / median(wall_s) - 1.0;
  add_layer_self_times(tracer, "svc.session",
                       static_cast<double>(traced_wall_s.size()), m);
  checks.expect(m["obs.span_coverage"] >= 0.95,
                "request and generate spans cover at least 95% of the "
                "traced session");
  emit_per_layer(m, report);
  if (!config.trace_out.empty()) tracer.write_json(config.trace_out);
}

}  // namespace pipebench
