// Cooperative cancellation (docs/robustness.md, "Cancellation points").
//
// A StopSource owns one atomic stop flag; StopTokens are cheap
// non-owning views of it that long-running loops poll at their batch
// boundaries.  The library never blocks on cancellation — a stop
// request is honored at the next polling point:
//
//   * every serial rewiring chain polls in the one attempt loop
//     (gen/rewiring_engine.cpp; docs/rewiring.md gives the cadence);
//   * the checkpointed run driver (gen/checkpoint.hpp) polls at leg
//     boundaries ONLY, so an interrupted checkpointed run stops exactly
//     at a canonical checkpoint boundary and resume stays bit-identical.
//
// request_stop() is a single relaxed atomic store, safe to call from a
// signal handler (std::atomic<bool> is always lock-free on supported
// targets) or any thread.  A default-constructed StopToken never stops,
// and its poll compiles to one pointer test — rewiring hot loops pay
// nothing when cancellation is unused.
//
// Lifetime: tokens point into their source; the StopSource must outlive
// every token (sources are typically function-scope or globals in CLI
// front ends).
#pragma once

#include <atomic>

namespace orbis::util {

class StopSource;

class StopToken {
 public:
  /// A token that can never be stopped.
  StopToken() = default;

  bool stop_requested() const noexcept {
    return flag_ != nullptr && flag_->load(std::memory_order_relaxed);
  }

  /// True if this token is connected to a source at all — lets drivers
  /// skip plumbing work when cancellation is impossible.
  bool stop_possible() const noexcept { return flag_ != nullptr; }

 private:
  friend class StopSource;
  explicit StopToken(const std::atomic<bool>* flag) noexcept : flag_(flag) {}

  const std::atomic<bool>* flag_ = nullptr;
};

class StopSource {
 public:
  StopSource() = default;
  StopSource(const StopSource&) = delete;
  StopSource& operator=(const StopSource&) = delete;

  StopToken token() const noexcept { return StopToken(&flag_); }

  /// Async-signal-safe: one relaxed atomic store.
  void request_stop() noexcept {
    flag_.store(true, std::memory_order_relaxed);
  }

  bool stop_requested() const noexcept {
    return flag_.load(std::memory_order_relaxed);
  }

  /// Re-arms the source (test harnesses reuse one source across cases).
  void reset() noexcept { flag_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> flag_{false};
};

}  // namespace orbis::util
