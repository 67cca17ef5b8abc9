#include "obs/report.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <thread>

#include "exec/thread_pool.hpp"
#include "io/atomic_file.hpp"
#include "obs/metrics.hpp"
#include "util/flat_table.hpp"  // ORBIS_FLAT_TABLE_GROUPED

namespace orbis::obs {

HostContext collect_host_context() {
  HostContext host;
  host.hardware_concurrency = std::thread::hardware_concurrency();
  host.available_workers = exec::resolve_workers(0);
  host.simd = ORBIS_FLAT_TABLE_GROUPED;
#if defined(__clang__)
  host.compiler = "clang " __VERSION__;
#elif defined(__GNUC__)
  host.compiler = "gcc " __VERSION__;
#else
  host.compiler = "unknown";
#endif
  return host;
}

std::uint64_t peak_rss_bytes() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // Linux reports ru_maxrss in KiB (BSD in bytes; we only build on
  // Linux — see ci.yml).
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

void write_stats_json(json::Writer& w, const gen::RewiringStats& stats) {
  w.begin_object();
  w.kv("attempts", stats.attempts);
  w.kv("accepted", stats.accepted);
  w.kv("rejected_structural", stats.rejected_structural);
  w.kv("rejected_constraint", stats.rejected_constraint);
  w.kv("rejected_objective", stats.rejected_objective);
  w.kv("acceptance_rate", stats.acceptance_rate());
  w.end_object();
}

namespace {

void write_host_json(json::Writer& w, const HostContext& host) {
  w.begin_object();
  w.kv("hardware_concurrency",
       static_cast<std::uint64_t>(host.hardware_concurrency));
  w.kv("available_workers", host.available_workers);
  w.kv("simd", host.simd);
  w.kv("compiler", host.compiler);
  w.end_object();
}

void write_metrics_json(json::Writer& w, const MetricsSnapshot& snapshot) {
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& counter : snapshot.counters) {
    w.kv(counter.name, counter.value);
  }
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& gauge : snapshot.gauges) {
    w.kv(gauge.name, gauge.value);
  }
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& histogram : snapshot.histograms) {
    w.key(histogram.name);
    w.begin_object();
    w.kv("count", histogram.count);
    w.kv("sum", histogram.sum);
    w.key("buckets");
    w.begin_array();
    for (const auto& [upper, count] : histogram.buckets) {
      w.begin_array();
      w.value(upper);
      w.value(count);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

void write_trajectory_json(json::Writer& w,
                           const TrajectoryRecorder& trajectory) {
  w.begin_array();  // one labeled object per lane
  for (std::size_t lane = 0; lane < trajectory.lane_count(); ++lane) {
    w.begin_object();
    w.kv("lane", static_cast<std::uint64_t>(lane));
    w.key("points");
    w.begin_array();
    for (const auto& point :
         trajectory.points(static_cast<std::uint32_t>(lane))) {
      w.begin_object();
      w.kv("attempts", point.attempts);
      w.kv("objective", point.objective);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
}

}  // namespace

void write_run_report_json(std::ostream& out, const RunReport& report) {
  json::Writer w(out, /*pretty=*/true);
  w.begin_object();
  w.kv("schema_version", 1);
  w.kv("tool", report.tool);
  w.kv("command", report.command);

  w.key("argv");
  w.begin_array();
  for (const std::string& arg : report.argv) w.value(arg);
  w.end_array();

  w.key("seed");
  if (report.has_seed) {
    w.value(report.seed);
  } else {
    w.null();
  }

  w.key("config");
  w.begin_object();
  for (const auto& [name, value] : report.config) w.kv(name, value);
  w.end_object();

  w.key("host");
  write_host_json(w, collect_host_context());

  w.key("stages");
  w.begin_array();
  for (const StageRecord& stage : report.stages) {
    w.begin_object();
    w.kv("name", stage.name);
    w.key("stats");
    write_stats_json(w, stage.stats);
    w.key("final_distance");
    if (stage.has_distance) {
      w.value(stage.final_distance);
    } else {
      w.null();
    }
    w.kv("chains", stage.chains);
    w.kv("best_chain", stage.best_chain);
    w.kv("duration_seconds", stage.duration_seconds);
    w.end_object();
  }
  w.end_array();

  w.key("legs");
  w.begin_array();
  for (const LegRecord& leg : report.legs) {
    w.begin_object();
    w.kv("leg", leg.leg);
    w.kv("attempts_done", leg.attempts_done);
    w.kv("best_distance", leg.best_distance);
    w.key("stats");
    write_stats_json(w, leg.stats);
    w.kv("duration_seconds", leg.duration_seconds);
    w.end_object();
  }
  w.end_array();

  w.key("trajectory");
  if (report.trajectory != nullptr) {
    write_trajectory_json(w, *report.trajectory);
  } else {
    w.null();
  }

  w.key("outputs");
  w.begin_array();
  for (const std::string& path : report.outputs) w.value(path);
  w.end_array();

  w.key("metrics");
  write_metrics_json(w, Registry::global().scrape());

  w.kv("peak_rss_bytes", peak_rss_bytes());
  w.kv("wall_seconds", report.wall_seconds);
  w.kv("interrupted", report.interrupted);
  w.kv("exit_code", report.exit_code);
  w.key("error");
  if (report.error.empty()) {
    w.null();
  } else {
    w.value(report.error);
  }
  w.end_object();
  out << '\n';
}

void write_run_report(const std::string& path, const RunReport& report) {
  io::write_file_atomic(path, [&report](std::ostream& out) {
    write_run_report_json(out, report);
  });
}

}  // namespace orbis::obs
