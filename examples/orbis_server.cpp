// orbis_server — stdio front end for the topology service
// (docs/service.md).
//
//   orbis_server [--workers N] [--cache-dir DIR]   (dispatch threads;
//                                                  other flags exit 2)
//
// Speaks line-delimited JSON: one flat-JSON request per stdin line, one
// JSON event per stdout line (compact, flushed per line so pipes see
// events as they happen).  stderr carries nothing in normal operation.
//
// Requests ("op" selects the verb; "tag" is an optional client string
// echoed in the acceptance).  extract, generate and metrics also take
// "seed", "chains" and "workers" (only 1); any other key is an error
// naming it, and the job is never accepted.  "attempts" is at most
// svc::kMaxAttempts (2^40) and "chains" at most gen::kMaxChains:
//
//   {"op":"extract","path":"g.edges","out":"prefix","d":3,
//    "trust_simple":false,"tag":"e1"}
//   {"op":"generate","target":"prefix","out":"out.edges","d":2,
//    "seed":1,"chains":1,"attempts":0,
//    "attempts_per_edge":0,"temperature":0,"checkpoint_every":0}
//   {"op":"metrics","path":"g.edges","spectrum":true,"distance":true,
//    "s2":true}
//   {"op":"cancel","job":3}
//   {"op":"status","job":3}
//   {"op":"wait","job":3}      blocks the request loop until the job is
//                              terminal (scripted clients use it to
//                              sequence work before "shutdown", which
//                              drops queued jobs)
//   {"op":"shutdown"}
//
// Events:
//
//   {"event":"accepted","job":3,"kind":"extract","tag":"e1"}
//   {"event":"started","job":3}
//   {"event":"progress","job":3,"lane":0,"attempts":...,"budget":...}
//   {"event":"leg","job":3,"legs":2,"total_legs":8}
//   {"event":"done","job":3,"status":"done",...}   status: done |
//       failed (+"error") | interrupted; extract adds "cache" and
//       "files_n", metrics adds the scalar bundle
//   {"event":"status","job":3,"state":"running",...}
//   {"event":"error","message":"..."}              bad request; the
//       session keeps going
//   {"event":"bye"}                                 shutdown ack
//
// One malformed line never kills the session (it answers with an
// `error` event); EOF or "shutdown" ends it.  Exit code 0 on a clean
// stdin close, 2 if the command line itself is unusable.

#include <cstdio>
#include <iostream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>

#include "gen/rewiring.hpp"
#include "metrics/summary.hpp"
#include "obs/json.hpp"
#include "svc/server.hpp"
#include "svc/wire.hpp"
#include "util/cli.hpp"
#include "util/errors.hpp"

namespace {

using orbis::svc::JobEvent;
using orbis::svc::JobInfo;
using orbis::svc::JobKind;
using orbis::svc::JobRequest;
using orbis::svc::JobState;
using orbis::svc::Server;
using orbis::svc::ServerOptions;
namespace wire = orbis::svc::wire;

std::mutex g_out_mutex;

/// One event line: serialize under the writer, print under the lock,
/// flush so a piped client never waits on a buffer.
void write_line(const std::function<void(orbis::obs::json::Writer&)>& fill) {
  std::ostringstream buffer;
  orbis::obs::json::Writer writer(buffer, /*pretty=*/false);
  writer.begin_object();
  fill(writer);
  writer.end_object();
  std::lock_guard<std::mutex> lock(g_out_mutex);
  std::fputs(buffer.str().c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

void write_error(const std::string& message) {
  write_line([&](orbis::obs::json::Writer& w) {
    w.kv("event", "error");
    w.kv("message", message);
  });
}

/// Renders a terminal `done` event, enriched from the job's final
/// snapshot (cache disposition, output files, metrics bundle).
void write_done(const JobEvent& event, const JobInfo& info) {
  write_line([&](orbis::obs::json::Writer& w) {
    w.kv("event", "done");
    w.kv("job", event.job);
    w.kv("status", orbis::svc::to_string(event.state));
    if (event.state == JobState::failed) w.kv("error", event.text);
    if (event.state != JobState::done) return;
    switch (info.kind) {
      case JobKind::extract:
        w.kv("cache", info.cache_hit ? "hit" : "miss");
        w.kv("files_n", static_cast<std::uint64_t>(info.files.size()));
        break;
      case JobKind::generate:
        w.kv("out", info.files.empty() ? "" : info.files.front());
        w.kv("legs", info.legs_done);
        w.kv("best_distance", info.best_distance);
        break;
      case JobKind::metrics:
        w.kv("average_degree", info.scalar.average_degree);
        w.kv("assortativity", info.scalar.assortativity);
        w.kv("mean_clustering", info.scalar.mean_clustering);
        w.kv("mean_distance", info.scalar.mean_distance);
        w.kv("s2", info.scalar.s2);
        w.kv("lambda1", info.scalar.lambda1);
        w.kv("lambda_max", info.scalar.lambda_max);
        w.kv("gcc_nodes", info.scalar.gcc_nodes);
        w.kv("gcc_edges", info.scalar.gcc_edges);
        break;
    }
  });
}

/// Rejects any request key the op does not read, naming it: a typo or
/// a retired field must not be silently ignored (the CLI treats an
/// unknown flag the same way).
void expect_known_keys(const wire::Object& request, const std::string& op) {
  static const std::set<std::string> common = {"op",     "tag",    "seed",
                                               "chains", "workers"};
  static const std::map<std::string, std::set<std::string>> per_op = {
      {"extract", {"path", "out", "d", "trust_simple"}},
      {"generate",
       {"target", "out", "d", "attempts", "attempts_per_edge", "temperature",
        "checkpoint_every"}},
      {"metrics", {"path", "spectrum", "distance", "s2"}},
  };
  const std::set<std::string>& own = per_op.at(op);
  for (const auto& [key, value] : request) {
    if (!common.contains(key) && !own.contains(key)) {
      throw orbis::ParseError("wire: unknown field \"" + key +
                              "\" for op \"" + op + "\"");
    }
  }
}

/// "d" is a dK level: range-checked before it narrows to int, so
/// 4294967298 cannot wrap to 2.  Server::submit then checks the levels
/// each op accepts.
int get_d(const wire::Object& request, std::int64_t fallback) {
  const std::int64_t d = wire::get_int(request, "d", fallback);
  if (d < 0 || d > 3) {
    throw orbis::ParseError("wire: field \"d\" must be in [0,3]");
  }
  return static_cast<int>(d);
}

JobRequest parse_submit(const wire::Object& request, const std::string& op) {
  expect_known_keys(request, op);
  JobRequest job;
  if (op == "extract") {
    job.kind = JobKind::extract;
    job.input_path = wire::require_string(request, "path");
    job.output = wire::require_string(request, "out");
    job.d = get_d(request, 3);
    job.assume_simple = wire::get_bool(request, "trust_simple", false);
  } else if (op == "generate") {
    job.kind = JobKind::generate;
    job.input_path = wire::require_string(request, "target");
    job.output = wire::require_string(request, "out");
    job.d = get_d(request, 2);
    job.attempts =
        wire::get_count(request, "attempts", 0, orbis::svc::kMaxAttempts);
    job.attempts_per_edge = wire::get_count(request, "attempts_per_edge", 0);
    job.temperature = wire::get_double(request, "temperature", 0.0);
    job.checkpoint_every = wire::get_count(request, "checkpoint_every", 0);
  } else {  // metrics
    job.kind = JobKind::metrics;
    job.input_path = wire::require_string(request, "path");
    job.with_spectrum = wire::get_bool(request, "spectrum", true);
    job.with_distance = wire::get_bool(request, "distance", true);
    job.with_s2 = wire::get_bool(request, "s2", true);
  }
  job.ctx.seed = static_cast<std::uint64_t>(wire::get_int(request, "seed", 1));
  // Service defaults lean interactive: one chain — explicit knobs scale
  // up, never surprise autotune fan-out.  "workers" takes only 1 (the
  // assignment throws otherwise): every chain is serial.
  job.ctx.chains = orbis::gen::check_chain_count(
      wire::get_count(request, "chains", 1), "wire: field \"chains\"");
  job.ctx.workers = wire::get_count(request, "workers", 1);
  return job;
}

int run(Server& server) {
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    try {
      const wire::Object request = wire::parse_flat_object(line);
      const std::string op = wire::require_string(request, "op");
      if (op == "shutdown") {
        write_line([](orbis::obs::json::Writer& w) { w.kv("event", "bye"); });
        return 0;
      }
      if (op == "cancel") {
        const std::uint64_t id = wire::get_count(request, "job", 0);
        if (!server.cancel(id)) {
          write_error("cancel: unknown job " + std::to_string(id));
        }
        continue;
      }
      if (op == "status" || op == "wait") {
        const std::uint64_t id = wire::get_count(request, "job", 0);
        const JobInfo info =
            op == "wait" ? server.wait(id) : server.status(id);
        write_line([&](orbis::obs::json::Writer& w) {
          w.kv("event", "status");
          w.kv("job", info.id);
          w.kv("kind", orbis::svc::to_string(info.kind));
          w.kv("state", orbis::svc::to_string(info.state));
          w.kv("legs", info.legs_done);
          w.kv("attempts", info.attempts_done);
          w.kv("budget", info.budget);
        });
        continue;
      }
      if (op != "extract" && op != "generate" && op != "metrics") {
        write_error("unknown op \"" + op + "\"");
        continue;
      }
      const std::string tag = wire::get_string(request, "tag", "");
      const std::uint64_t id = server.submit(parse_submit(request, op));
      write_line([&](orbis::obs::json::Writer& w) {
        w.kv("event", "accepted");
        w.kv("job", id);
        w.kv("kind", op);
        if (!tag.empty()) w.kv("tag", tag);
      });
    } catch (const std::exception& error) {
      write_error(error.what());
    }
  }
  return 0;  // EOF is a clean close
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const orbis::util::ArgParser args(argc, argv,
                                      {"--workers", "--cache-dir"});
    const std::string unknown = args.unknown_flag({});
    if (!unknown.empty()) {
      std::fprintf(stderr,
                   "orbis_server: unknown flag %s\n"
                   "usage: orbis_server [--workers N] [--cache-dir DIR]\n",
                   unknown.c_str());
      return 2;
    }
    ServerOptions options;
    const long long workers = args.get_int("--workers", 1);
    if (workers < 1) {
      std::fprintf(stderr, "orbis_server: --workers must be >= 1\n");
      return 2;
    }
    options.workers = static_cast<std::size_t>(workers);
    options.cache_dir = args.get_string("--cache-dir", ".orbis-cache");

    Server* server_ptr = nullptr;
    options.on_event = [&server_ptr](const JobEvent& event) {
      switch (event.kind) {
        case JobEvent::Kind::accepted:
          // The request loop answers acceptance itself (it knows the
          // client's tag); suppress the server's copy.
          return;
        case JobEvent::Kind::started:
          write_line([&](orbis::obs::json::Writer& w) {
            w.kv("event", "started");
            w.kv("job", event.job);
          });
          return;
        case JobEvent::Kind::progress:
          write_line([&](orbis::obs::json::Writer& w) {
            w.kv("event", "progress");
            w.kv("job", event.job);
            w.kv("lane", event.lane);
            w.kv("attempts", event.attempts);
            w.kv("budget", event.budget);
          });
          return;
        case JobEvent::Kind::leg:
          write_line([&](orbis::obs::json::Writer& w) {
            w.kv("event", "leg");
            w.kv("job", event.job);
            w.kv("legs", event.attempts);
            w.kv("total_legs", event.budget);
          });
          return;
        case JobEvent::Kind::done:
          write_done(event, server_ptr->status(event.job));
          return;
      }
    };

    Server server(options);
    server_ptr = &server;
    return run(server);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "orbis_server: %s\n", error.what());
    return 2;
  }
}
