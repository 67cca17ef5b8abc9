#include "exec/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>


namespace orbis::exec {
namespace {

TEST(ResolveWorkers, ExplicitCountWinsAndZeroIsHardware) {
  EXPECT_EQ(resolve_workers(3), 3u);
  EXPECT_EQ(resolve_workers(1), 1u);
  EXPECT_GE(resolve_workers(0), 1u);
}

TEST(ThreadPool, SubmitReturnsResults) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.size(), 2u);
  auto doubled = pool.submit([]() { return 21 * 2; });
  auto text = pool.submit([]() { return std::string("done"); });
  EXPECT_EQ(doubled.get(), 42);
  EXPECT_EQ(text.get(), "done");
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  ThreadPool pool(1);
  auto failing = pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(failing.get(), std::runtime_error);
}

TEST(ThreadPool, ManySubmissionsAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  futures.reserve(200);
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter]() { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, RunTasksExecutesEveryTaskOnce) {
  for (const std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    std::vector<int> hits(64, 0);
    std::vector<std::function<void()>> tasks;
    for (std::size_t i = 0; i < hits.size(); ++i) {
      tasks.emplace_back([&hits, i]() { ++hits[i]; });
    }
    pool.run_tasks(tasks);
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 64);
    EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                            [](int h) { return h == 1; }));
  }
}

TEST(ThreadPool, RunTasksEmptyBatchIsNoop) {
  ThreadPool pool(2);
  std::vector<std::function<void()>> tasks;
  EXPECT_NO_THROW(pool.run_tasks(tasks));
}

TEST(ThreadPool, RunTasksSingleTaskRunsInline) {
  ThreadPool pool(2);
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  std::vector<std::function<void()>> tasks;
  tasks.emplace_back([&ran_on]() { ran_on = std::this_thread::get_id(); });
  pool.run_tasks(tasks);
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPool, RunTasksRethrowsLowestIndexFailure) {
  ThreadPool pool(2);
  std::vector<std::function<void()>> tasks;
  tasks.emplace_back([]() { throw std::runtime_error("first"); });
  tasks.emplace_back([]() { throw std::logic_error("second"); });
  tasks.emplace_back([]() {});
  try {
    pool.run_tasks(tasks);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "first");
  }
}

TEST(SharedPool, IsCreatedOnceAndSizedToHardware) {
  ThreadPool& a = shared_pool();
  ThreadPool& b = shared_pool();
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.size(), resolve_workers(0));
}

}  // namespace
}  // namespace orbis::exec
