// Live progress reporting for long-running rewiring phases
// (docs/observability.md).
//
// Engines report ProgressSamples through an abstract ProgressSink at
// the SAME cadence they already poll util::StopToken (every
// kStopPollMask+1 attempts, or between legs), so progress costs nothing
// extra on the attempt hot path and — because a sink only READS the
// sample — cannot perturb chain identity.  The
// determinism test (tests/obs/test_determinism.cpp and the CLI
// byte-identity test) pins this.
//
// Deliberately free of gen/ types: svc::RunContext carries a
// ProgressSink*, so this header must sit below gen and svc in the
// include DAG.  Samples are plain integers / doubles.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <mutex>
#include <string>
#include <vector>

namespace orbis::obs {

/// One observation of a rewiring lane's progress.  Engines report on
/// lane 0; the leg driver tags chain i's reports with lane i through a
/// ProgressLane.
struct ProgressSample {
  std::uint64_t attempts = 0;      ///< attempts so far in this lane
  std::uint64_t accepted = 0;      ///< accepted swaps so far
  std::uint64_t budget = 0;        ///< total attempt budget (0 = unknown)
  double objective = 0.0;          ///< current objective value
  bool has_objective = false;      ///< false for pure randomization
};

/// Interface the engines call.  Implementations must be thread-safe
/// (multichain lanes report concurrently) and must not block for long —
/// they run on the rewiring threads.
class ProgressSink {
 public:
  virtual ~ProgressSink() = default;
  virtual void report(std::uint32_t lane, const ProgressSample& sample) = 0;
};

/// Terminal progress meter: throttles per-lane samples to a wall-clock
/// cadence and renders one status line per tick to a FILE* (stderr for
/// orbis_tool --progress).  Rate and ETA derive from a sliding window
/// so they track the current phase, not the whole run.
class ProgressMeter : public ProgressSink {
 public:
  explicit ProgressMeter(std::FILE* out,
                         std::chrono::milliseconds cadence =
                             std::chrono::milliseconds(500));
  ~ProgressMeter() override;

  /// Label prefixed to every status line ("2k", "3k leg 4/12", ...).
  void set_phase(std::string phase);

  void report(std::uint32_t lane, const ProgressSample& sample) override;

  /// Terminates the status area with a newline if anything was drawn.
  void finish();

 private:
  struct Lane {
    ProgressSample last{};
    bool seen = false;
    // sliding-rate window
    std::uint64_t window_attempts = 0;
    std::chrono::steady_clock::time_point window_start{};
  };

  void render_locked();

  std::FILE* out_;
  std::chrono::milliseconds cadence_;
  std::mutex mutex_;
  std::string phase_;
  std::vector<Lane> lanes_;
  std::chrono::steady_clock::time_point last_render_{};
  bool drew_anything_ = false;
};

/// Records an objective trajectory: (attempts, objective) samples with
/// bounded memory.  When the buffer hits `max_samples` it thins to every
/// other sample and doubles its stride, so long runs keep an evenly
/// spaced ~max_samples/2..max_samples summary instead of growing.
class TrajectoryRecorder : public ProgressSink {
 public:
  struct Point {
    std::uint64_t attempts;
    double objective;
  };

  explicit TrajectoryRecorder(std::size_t max_samples = 4096);

  void report(std::uint32_t lane, const ProgressSample& sample) override;

  /// Points for one lane, in attempt order.
  std::vector<Point> points(std::uint32_t lane = 0) const;
  std::size_t lane_count() const;

 private:
  struct Lane {
    std::vector<Point> points;
    std::uint64_t stride = 1;
    std::uint64_t seen = 0;
  };

  std::size_t max_samples_;
  mutable std::mutex mutex_;
  std::vector<Lane> lanes_;
};

/// Forwards every report to `inner` on lane `lane`: the leg driver
/// gives chain i a context whose sink is ProgressLane(ctx.progress, i).
class ProgressLane : public ProgressSink {
 public:
  ProgressLane(ProgressSink* inner, std::uint32_t lane)
      : inner_(inner), lane_(lane) {}

  void report(std::uint32_t, const ProgressSample& sample) override {
    inner_->report(lane_, sample);
  }

 private:
  ProgressSink* inner_;
  std::uint32_t lane_;
};

/// Fans one report out to several sinks (meter + trajectory + ...).
/// Null entries are permitted and skipped.
class ProgressTee : public ProgressSink {
 public:
  ProgressTee(std::initializer_list<ProgressSink*> sinks) : sinks_(sinks) {}

  void report(std::uint32_t lane, const ProgressSample& sample) override {
    for (ProgressSink* sink : sinks_) {
      if (sink != nullptr) sink->report(lane, sample);
    }
  }

 private:
  std::vector<ProgressSink*> sinks_;
};

}  // namespace orbis::obs
