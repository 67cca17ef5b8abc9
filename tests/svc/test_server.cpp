// The in-process topology service (src/svc/server.hpp): concurrent
// clients, cache-hit bit-identity through the job API, cancellation of
// an in-flight generate while extracts keep flowing, leg interleaving
// under the fair scheduler, and failure/validation paths.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/builders.hpp"
#include "io/edge_list.hpp"
#include "svc/server.hpp"
#include "util/rng.hpp"

namespace orbis::svc {
namespace {

namespace fs = std::filesystem;

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("orbis_server_test_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    util::Rng rng(19);
    const Graph graph = builders::gnm(40, 90, rng);
    io::write_edge_list_file(path("g.edges"), graph);
  }

  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static std::string slurp(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  ServerOptions server_options(std::size_t workers = 1) const {
    ServerOptions options;
    options.workers = workers;
    options.cache_dir = path("cache");
    return options;
  }

  JobRequest extract_request(const std::string& out_prefix, int d = 2) const {
    JobRequest request;
    request.kind = JobKind::extract;
    request.input_path = path("g.edges");
    request.output = path(out_prefix);
    request.d = d;
    return request;
  }

  JobRequest generate_request(const std::string& out, int d,
                              std::uint64_t attempts,
                              std::uint64_t checkpoint_every = 0) const {
    JobRequest request;
    request.kind = JobKind::generate;
    request.input_path = path("dk");  // filled by a prior extract
    request.output = path(out);
    request.d = d;
    request.ctx.seed = 77;
    request.ctx.chains = 1;
    request.attempts = attempts;
    request.checkpoint_every = checkpoint_every;
    return request;
  }

  fs::path dir_;
};

TEST_F(ServerTest, ExtractMissThenHitBitIdentical) {
  Server server(server_options());
  const JobInfo miss = server.wait(server.submit(extract_request("a")));
  ASSERT_EQ(miss.state, JobState::done) << miss.error;
  EXPECT_FALSE(miss.cache_hit);
  ASSERT_EQ(miss.files.size(), 2u);

  const JobInfo hit = server.wait(server.submit(extract_request("b")));
  ASSERT_EQ(hit.state, JobState::done) << hit.error;
  EXPECT_TRUE(hit.cache_hit);
  ASSERT_EQ(hit.files.size(), 2u);
  for (std::size_t i = 0; i < miss.files.size(); ++i) {
    const std::string bytes = slurp(miss.files[i]);
    ASSERT_FALSE(bytes.empty());
    EXPECT_EQ(slurp(hit.files[i]), bytes);
  }
}

TEST_F(ServerTest, ConcurrentClientsSameFileOneMissRestHits) {
  Server server(server_options(/*workers=*/2));
  constexpr int kClients = 5;
  std::mutex mutex;
  std::vector<JobInfo> results;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([this, &server, &mutex, &results, i] {
      const JobInfo info = server.wait(
          server.submit(extract_request("c" + std::to_string(i))));
      std::lock_guard<std::mutex> guard(mutex);
      results.push_back(info);
    });
  }
  for (auto& client : clients) client.join();

  ASSERT_EQ(results.size(), static_cast<std::size_t>(kClients));
  std::size_t hits = 0;
  std::string golden;
  for (const JobInfo& info : results) {
    ASSERT_EQ(info.state, JobState::done) << info.error;
    hits += info.cache_hit;
    ASSERT_EQ(info.files.size(), 2u);
    const std::string bytes = slurp(info.files[1]);
    if (golden.empty()) golden = bytes;
    EXPECT_EQ(bytes, golden);  // every client got identical artifacts
  }
  EXPECT_EQ(hits, static_cast<std::size_t>(kClients - 1));
}

TEST_F(ServerTest, MetricsJobReturnsScalarBundle) {
  Server server(server_options());
  JobRequest request;
  request.kind = JobKind::metrics;
  request.input_path = path("g.edges");
  request.with_spectrum = false;  // keep the test fast
  const JobInfo info = server.wait(server.submit(request));
  ASSERT_EQ(info.state, JobState::done) << info.error;
  EXPECT_GT(info.scalar.gcc_nodes, 0u);
  EXPECT_GT(info.scalar.average_degree, 0.0);
}

TEST_F(ServerTest, GenerateRunsAsLegsAndCompletes) {
  Server server(server_options());
  ASSERT_EQ(server.wait(server.submit(extract_request("dk"))).state,
            JobState::done);
  const JobInfo info = server.wait(
      server.submit(generate_request("out.edges", 2, /*attempts=*/4000,
                                     /*checkpoint_every=*/1000)));
  ASSERT_EQ(info.state, JobState::done) << info.error;
  EXPECT_GE(info.legs_done, 4u);
  EXPECT_TRUE(fs::exists(path("out.edges")));
  const auto read = io::read_edge_list_file(path("out.edges"));
  EXPECT_EQ(read.graph.num_edges(), 90u);
}

TEST_F(ServerTest, PerEdgeBudgetPastTheCapFailsBeforeTheRun) {
  // 2^34 attempts per edge on the m = 90 target is about 1.5e12: the
  // product fits 64 bits, so only svc::kMaxAttempts can refuse it.
  Server server(server_options());
  ASSERT_EQ(server.wait(server.submit(extract_request("dk"))).state,
            JobState::done);
  JobRequest request = generate_request("out.edges", 2, /*attempts=*/0);
  request.attempts_per_edge = std::size_t{1} << 34;
  const std::uint64_t id = server.submit(request);
  // An accepted budget runs until the chain reaches D = 0 or is
  // cancelled: wait a bounded time.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.status(id).state == JobState::queued ||
         server.status(id).state == JobState::running) {
    if (std::chrono::steady_clock::now() > deadline) server.cancel(id);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const JobInfo info = server.wait(id);
  EXPECT_EQ(info.state, JobState::failed);
  EXPECT_NE(info.error.find("exceeds svc::kMaxAttempts = " +
                            std::to_string(kMaxAttempts)),
            std::string::npos)
      << info.error;
  EXPECT_EQ(info.legs_done, 0u);
  EXPECT_FALSE(fs::exists(path("out.edges")));
}

TEST_F(ServerTest, CancelInFlightGenerateDoesNotBlockExtracts) {
  std::mutex mutex;
  std::vector<JobEvent> events;
  ServerOptions options = server_options();
  options.on_event = [&mutex, &events](const JobEvent& event) {
    std::lock_guard<std::mutex> guard(mutex);
    events.push_back(event);
  };
  Server server(std::move(options));
  ASSERT_EQ(server.wait(server.submit(extract_request("dk", 3))).state,
            JobState::done);

  // A generate big enough to never finish on its own in test time.
  const std::uint64_t generate_id = server.submit(
      generate_request("big.edges", 3, /*attempts=*/50'000'000,
                       /*checkpoint_every=*/2000));
  // Wait until it is genuinely in flight (first leg event).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "generate never produced a leg: "
        << server.status(generate_id).error;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::lock_guard<std::mutex> guard(mutex);
    const bool started = std::any_of(
        events.begin(), events.end(), [&](const JobEvent& event) {
          return event.job == generate_id &&
                 event.kind == JobEvent::Kind::leg;
        });
    if (started) break;
  }

  // Interactive work keeps flowing between its legs...
  const JobInfo extract = server.wait(server.submit(extract_request("e", 3)));
  ASSERT_EQ(extract.state, JobState::done) << extract.error;
  EXPECT_TRUE(extract.cache_hit);

  // ...and cancellation resolves the generate as interrupted.
  EXPECT_TRUE(server.cancel(generate_id));
  const JobInfo cancelled = server.wait(generate_id);
  EXPECT_EQ(cancelled.state, JobState::interrupted);
  EXPECT_FALSE(fs::exists(path("big.edges")));  // nothing half-published
}

TEST_F(ServerTest, CancelQueuedJobResolvesInterrupted) {
  Server server(server_options());
  ASSERT_EQ(server.wait(server.submit(extract_request("dk", 3))).state,
            JobState::done);
  // Pin the single worker inside a long first leg (a 3K generate never
  // converges this fast), so the extract submitted next is provably
  // still queued when we cancel it.
  const std::uint64_t long_id = server.submit(
      generate_request("slow.edges", 3, /*attempts=*/400'000'000,
                       /*checkpoint_every=*/200'000'000));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.status(long_id).state == JobState::queued) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::uint64_t queued_id = server.submit(extract_request("q"));
  EXPECT_TRUE(server.cancel(queued_id));
  EXPECT_TRUE(server.cancel(long_id));  // aborts the leg in flight
  EXPECT_EQ(server.wait(long_id).state, JobState::interrupted);
  EXPECT_EQ(server.wait(queued_id).state, JobState::interrupted);
}

TEST_F(ServerTest, FailedJobCarriesTheError) {
  Server server(server_options());
  const JobInfo info = server.wait(server.submit([this] {
    JobRequest request;
    request.kind = JobKind::extract;
    request.input_path = path("missing.edges");
    request.output = path("x");
    request.d = 2;
    return request;
  }()));
  EXPECT_EQ(info.state, JobState::failed);
  EXPECT_FALSE(info.error.empty());
}

TEST_F(ServerTest, SubmitValidatesRequests) {
  Server server(server_options());
  JobRequest bad_d = extract_request("x");
  bad_d.d = 9;
  EXPECT_THROW(server.submit(bad_d), std::invalid_argument);
  JobRequest no_input = extract_request("x");
  no_input.input_path.clear();
  EXPECT_THROW(server.submit(no_input), std::invalid_argument);
  EXPECT_THROW(server.status(4242), std::invalid_argument);
  EXPECT_FALSE(server.cancel(4242));
}

TEST_F(ServerTest, EventStreamCoversTheJobLifecycle) {
  std::mutex mutex;
  std::vector<JobEvent> events;
  ServerOptions options = server_options();
  options.on_event = [&mutex, &events](const JobEvent& event) {
    std::lock_guard<std::mutex> guard(mutex);
    events.push_back(event);
  };
  Server server(std::move(options));
  const std::uint64_t id = server.submit(extract_request("a"));
  ASSERT_EQ(server.wait(id).state, JobState::done);

  std::lock_guard<std::mutex> guard(mutex);
  const auto has = [&](JobEvent::Kind kind) {
    return std::any_of(events.begin(), events.end(),
                       [&](const JobEvent& event) {
                         return event.job == id && event.kind == kind;
                       });
  };
  EXPECT_TRUE(has(JobEvent::Kind::accepted));
  EXPECT_TRUE(has(JobEvent::Kind::started));
  EXPECT_TRUE(has(JobEvent::Kind::done));
}

}  // namespace
}  // namespace orbis::svc
