// Span recording, the derived per-layer table, and result bookkeeping.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"

namespace pipebench {

namespace {

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

// ---------------------------------------------------------------------------
// Report / Checks.
// ---------------------------------------------------------------------------

std::string Report::metrics_json() const {
  std::ostringstream out;
  out << '{';
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out << ", ";
    out << json_string(entries_[i].name) << ": {\"value\": "
        << json_number(entries_[i].value)
        << ", \"unit\": " << json_string(entries_[i].unit) << '}';
  }
  out << '}';
  return out.str();
}

void Checks::expect(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

std::uint64_t Checks::attempted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return attempted_;
}

std::uint64_t Checks::failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

// ---------------------------------------------------------------------------
// Tracer.
// ---------------------------------------------------------------------------

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::int64_t Tracer::begin(const std::string& name, const std::string& layer,
                           std::int64_t parent) {
  if (!enabled_) return -1;
  const std::int64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, layer, start, start, parent});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::end(std::int64_t id) {
  if (id < 0) return;
  const std::int64_t stop = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = stop;
}

std::int64_t Tracer::add(const std::string& name, const std::string& layer,
                         std::int64_t start_ns, std::int64_t end_ns,
                         std::int64_t parent) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, layer, start_ns, std::max(start_ns, end_ns), parent});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

namespace {

// Length of the union of the children's intervals, clipped to `span`.
double covered_ns(const Span& span,
                  std::vector<std::pair<std::int64_t, std::int64_t>> parts) {
  std::sort(parts.begin(), parts.end());
  double covered = 0.0;
  std::int64_t reach = span.start_ns;
  for (auto [start, stop] : parts) {
    start = std::max(start, reach);
    stop = std::min(stop, span.end_ns);
    if (stop > start) {
      covered += static_cast<double>(stop - start);
      reach = stop;
    }
  }
  return covered;
}

std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children_of(
    const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ns, span.end_ns);
    }
  }
  return children;
}

}  // namespace

std::map<std::string, double> Tracer::layer_self_seconds(
    const std::string& root) const {
  const std::vector<Span> all = spans();
  const auto children = children_of(all);
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < all.size(); ++i) {
    std::int64_t ancestor = static_cast<std::int64_t>(i);
    while (ancestor >= 0 &&
           all[static_cast<std::size_t>(ancestor)].name != root) {
      ancestor = all[static_cast<std::size_t>(ancestor)].parent;
    }
    if (ancestor < 0) continue;
    const double duration =
        static_cast<double>(all[i].end_ns - all[i].start_ns);
    self[all[i].layer] += (duration - covered_ns(all[i], children[i])) * 1e-9;
  }
  return self;
}

double Tracer::child_coverage(std::int64_t id) const {
  if (id < 0) return 0.0;
  const std::vector<Span> all = spans();
  const auto children = children_of(all);
  const Span& span = all[static_cast<std::size_t>(id)];
  const double duration = static_cast<double>(span.end_ns - span.start_ns);
  if (duration <= 0.0) return 0.0;
  return covered_ns(span, children[static_cast<std::size_t>(id)]) / duration;
}

void Tracer::write_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  const std::int64_t origin = all.empty() ? 0 : all.front().start_ns;
  out << "[\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    out << "  {\"id\": " << i << ", \"name\": " << json_string(all[i].name)
        << ", \"layer\": " << json_string(all[i].layer)
        << ", \"start_us\": " << (all[i].start_ns - origin) / 1000
        << ", \"end_us\": " << (all[i].end_ns - origin) / 1000
        << ", \"parent\": " << all[i].parent << '}'
        << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

// ---------------------------------------------------------------------------
// Per-layer table.
// ---------------------------------------------------------------------------

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"gen.target_3k_s", "s"},
      {"gen.target_3k.us_per_attempt", "us"},
      {"gen.target_3k.accept_ratio", "frac"},
      {"gen.target_3k.reject_structural_ratio", "frac"},
      {"gen.target_3k.reject_constraint_ratio", "frac"},
      {"gen.target_3k.accepted", "count"},
      {"gen.randomize_3k_s", "s"},
      {"gen.randomize_3k.us_per_attempt", "us"},
      {"gen.randomize_3k.useful_ratio", "frac"},
      {"gen.randomize_3k.accepted", "count"},
      {"gen.seed_1k_s", "s"},
      {"gen.target_2k_s", "s"},
      {"gen.target_2k.attempts", "count"},
      {"core.extract_s", "s"},
      {"mem.after_extract_mb", "MB"},
      {"core.dkstate_build_s", "s"},
      {"mem.after_3k_mb", "MB"},
      {"io.read_s", "s"},
      {"io.write_s", "s"},
      {"io.fsync_calls", "count"},
      {"svc.interactive_p50_ms", "ms"},
      {"svc.interactive_p90_ms", "ms"},
      {"svc.extract_hit_ms", "ms"},
      {"svc.extract_miss_ms", "ms"},
      {"svc.cache.hit_ratio", "frac"},
      {"svc.cache.hits", "count"},
      {"svc.queue_wait_p50_ms", "ms"},
      {"svc.queue_wait_p90_ms", "ms"},
      {"svc.generate.leg_ms", "ms"},
      {"svc.generate.legs", "count"},
      {"svc.metrics_run_ms", "ms"},
      {"exec.leg_parallelism", "cpu/wall"},
      {"io.self_s", "s"},
      {"core.self_s", "s"},
      {"gen.self_s", "s"},
      {"metrics.self_s", "s"},
      {"svc.self_s", "s"},
      {"obs.trace_overhead_frac", "frac"},
      {"obs.span_coverage", "frac"},
  };
  return names;
}

void emit_per_layer(const std::map<std::string, double>& measured,
                    Report& report) {
  for (const auto& [name, unit] : per_layer_metrics()) {
    const auto it = measured.find(name);
    report.set(name, it == measured.end() ? 0.0 : it->second, unit);
  }
}

void add_layer_self_times(const Tracer& tracer, const std::string& root,
                          double units,
                          std::map<std::string, double>& measured) {
  if (units <= 0.0) return;
  for (const auto& [layer, seconds] : tracer.layer_self_seconds(root)) {
    if (layer == "io" || layer == "core" || layer == "gen" ||
        layer == "metrics" || layer == "svc") {
      measured[layer + ".self_s"] = seconds / units;
    }
  }
}

}  // namespace pipebench
