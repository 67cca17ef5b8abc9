// Fixed thread pool with task futures — the execution backend of the
// parallel subsystem (the legs of independent chains schedule onto it).
//
// Design constraints, in priority order:
//   1. determinism support: the pool NEVER decides anything that affects
//      results.  Callers partition work and seed per-task RNGs up front
//      (util::Rng::stream); the pool only supplies cycles, so which
//      thread runs which task is unobservable.
//   2. dependency-free: std::thread + mutex + condition_variable only.
//   3. reusable: one shared process-wide pool (shared_pool()) avoids
//      re-spawning threads for every multi-chain leg, and run_tasks()
//      amortizes one latch across a whole batch instead of a future per
//      task.
//
// Tasks must not block on other tasks of the same pool (no work
// stealing); the intended granularity is "one targeting chain leg",
// and the legs of one batch are independent.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace orbis::exec {

/// Threads to use for a requested worker count: `requested` itself, or a
/// hardware-derived default when `requested` == 0.  The default honors
/// the process CPU affinity mask (sched_getaffinity) where available —
/// in a container pinned to 2 of 64 cores the right fan-out is 2, not
/// the hardware_concurrency() machine total — falling back to
/// hardware_concurrency(), and to 1 when both report unknown.
std::size_t resolve_workers(std::size_t requested) noexcept;

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 = resolve_workers(0), i.e. all cores).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains the queue and joins all workers.  Pending tasks still run.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Schedules `fn` and returns a future for its result.  Exceptions
  /// thrown by the task surface on future.get().
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F&>> {
    using R = std::invoke_result_t<F&>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    enqueue([task]() { (*task)(); });
    return result;
  }

  /// Runs a batch of independent tasks and blocks until all complete.
  /// The LAST task is run inline on the calling thread (it would idle
  /// otherwise), so a pool of size 1 degrades to plain serial execution
  /// with no handoff latency.  The first exception (by task index) is
  /// rethrown after every task has finished.
  void run_tasks(std::vector<std::function<void()>>& tasks);

 private:
  void enqueue(std::function<void()> task);
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::queue<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Process-wide pool sized to the hardware, created on first use.
/// Multi-chain drivers default to it so repeated generate() calls reuse
/// one set of threads instead of spawning per call.
ThreadPool& shared_pool();

}  // namespace orbis::exec
