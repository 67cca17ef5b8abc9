// Hierarchical phase trace spans (docs/observability.md), exportable as
// Chrome trace-event JSON (chrome://tracing, Perfetto, speedscope).
//
// The tracer is process-global and DISABLED by default: a Span on a
// disabled tracer costs one relaxed atomic load and never reads the
// clock, so instrumented phase boundaries are free until someone asks
// for a trace (orbis_tool --trace, or Tracer::global().enable() in
// tests).  Spans are recorded at phase granularity only — extraction
// passes, seed construction, targeting legs, checkpoint flushes,
// fsync/rename — never per swap attempt.
//
// Determinism: recording reads the clock and appends to a buffer; it
// never touches an Rng or any engine state, so traced and untraced runs
// produce byte-identical graphs (tests/obs/test_determinism.cpp).
//
// The event buffer is bounded (enable(capacity)); once full, further
// events are counted as dropped rather than growing without limit —
// a week-long run with tracing left on degrades to a truncated trace,
// not an OOM.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include <atomic>

namespace orbis::obs {

struct TraceEvent {
  /// Static-storage name (callers pass string literals); the tracer
  /// never copies or frees it.
  const char* name = "";
  /// Small dense id assigned per recording thread (0, 1, 2, ...).
  std::uint32_t tid = 0;
  std::int64_t start_us = 0;
  /// Duration; -1 marks an instant event (Chrome "ph":"i").
  std::int64_t duration_us = -1;
};

class Tracer {
 public:
  /// Starts recording; clears any previous buffer.  `capacity` bounds
  /// the event count.
  void enable(std::size_t capacity = 1 << 20);
  void disable();
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Records a completed span [start, end).  No-op when disabled.
  void record(const char* name,
              std::chrono::steady_clock::time_point start,
              std::chrono::steady_clock::time_point end) noexcept;

  /// Records a zero-duration instant event at now().  No-op when
  /// disabled.
  void instant(const char* name) noexcept;

  /// Copy of the buffer (events in record order).
  std::vector<TraceEvent> snapshot() const;
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Writes the buffer as a Chrome trace-event document:
  /// {"traceEvents":[...], "displayTimeUnit":"ms"}.  Complete spans use
  /// "ph":"X", instants "ph":"i".
  void write_chrome_trace(std::ostream& out) const;

  /// Same, atomically to a file (io::write_file_atomic).
  void write_chrome_trace_file(const std::string& path) const;

  /// Microseconds since the process-wide trace epoch (first use).
  static std::int64_t to_epoch_us(
      std::chrono::steady_clock::time_point t) noexcept;

  static Tracer& global();

 private:
  std::uint32_t thread_tid();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::size_t capacity_ = 0;
  std::uint32_t next_tid_ = 0;
};

/// RAII span: records [construction, destruction) on the global tracer
/// when tracing is enabled, and is a near-free no-op otherwise.  `name`
/// must have static storage duration (pass a string literal).
class Span {
 public:
  explicit Span(const char* name) noexcept
      : name_(name), active_(Tracer::global().enabled()) {
    if (active_) start_ = std::chrono::steady_clock::now();
  }
  ~Span() {
    if (active_) {
      Tracer::global().record(name_, start_,
                              std::chrono::steady_clock::now());
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  bool active_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace orbis::obs
