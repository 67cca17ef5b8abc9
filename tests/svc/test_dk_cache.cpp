// Content-addressed dK cache (src/svc/dk_cache.hpp): key semantics
// (order-invariance, content sensitivity, parameter folding), miss→hit
// bit-identity against a direct library extraction, single-flight
// under concurrent same-key requests, and cancellation hygiene.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/series.hpp"
#include "graph/builders.hpp"
#include "io/chunked_edge_reader.hpp"
#include "io/dk_serialization.hpp"
#include "io/edge_list.hpp"
#include "io/fault_injection.hpp"
#include "svc/dk_cache.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"
#include "util/stop_token.hpp"

namespace orbis::svc {
namespace {

namespace fs = std::filesystem;

class DkCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("orbis_dk_cache_test_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_ / "cache");
    util::Rng rng(11);
    graph_ = builders::gnm(40, 90, rng);
    io::write_edge_list_file(path("g.edges"), graph_);
  }

  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::string cache_dir() const { return (dir_ / "cache").string(); }

  static std::string slurp(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  /// Writes the same edge multiset as g.edges in a different line
  /// order (and with endpoint order flipped), to `name`.
  void write_shuffled_copy(const std::string& name, std::uint64_t seed) {
    std::vector<Edge> edges(graph_.edges());
    std::mt19937_64 shuffle_rng(seed);
    std::shuffle(edges.begin(), edges.end(), shuffle_rng);
    std::ofstream out(path(name));
    // Keep the writer header: declared_nodes is part of the cache key.
    out << "# orbis edge list: " << graph_.num_nodes() << " nodes\n";
    for (const Edge& edge : edges) out << edge.v << ' ' << edge.u << '\n';
  }

  fs::path dir_;
  Graph graph_;
};

TEST_F(DkCacheTest, KeyIsOrderAndPathInvariant) {
  write_shuffled_copy("shuffled.edges", 99);
  const CacheKey original = dk_cache_key(path("g.edges"), 2);
  const CacheKey shuffled = dk_cache_key(path("shuffled.edges"), 2);
  EXPECT_EQ(original, shuffled);
  EXPECT_EQ(original.hex().size(), 32u);
}

TEST_F(DkCacheTest, KeySeesContentChanges) {
  // One extra edge line changes the multiset, so the key must move.
  {
    std::ofstream out(path("edited.edges"));
    out << slurp(path("g.edges"));
    out << "0 39\n";
  }
  EXPECT_NE(dk_cache_key(path("g.edges"), 2),
            dk_cache_key(path("edited.edges"), 2));
}

TEST_F(DkCacheTest, KeyFoldsExtractionParameters) {
  // Same bytes, different request -> different entries.
  EXPECT_NE(dk_cache_key(path("g.edges"), 1), dk_cache_key(path("g.edges"), 2));
  EXPECT_NE(dk_cache_key(path("g.edges"), 2), dk_cache_key(path("g.edges"), 3));
}

TEST_F(DkCacheTest, MissThenHitIsBitIdenticalToDirectExtraction) {
  // Ground truth: the library extraction serialized by the same
  // writers `orbis_tool extract` uses.
  const auto direct = io::extract_dk_streaming(path("g.edges"), 2);
  io::write_1k_file(path("direct.1k"), direct.distributions.degree);
  io::write_2k_file(path("direct.2k"), direct.distributions.joint);

  DkCache cache(cache_dir());
  const auto miss = cache.extract_to(path("g.edges"), 2, path("miss"));
  EXPECT_FALSE(miss.hit);
  ASSERT_EQ(miss.files.size(), 2u);
  EXPECT_EQ(slurp(miss.files[0]), slurp(path("direct.1k")));
  EXPECT_EQ(slurp(miss.files[1]), slurp(path("direct.2k")));

  // A shuffled copy of the same graph is a HIT, and still byte-equal.
  write_shuffled_copy("shuffled.edges", 7);
  const auto hit = cache.extract_to(path("shuffled.edges"), 2, path("hit"));
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.key, miss.key);
  ASSERT_EQ(hit.files.size(), 2u);
  EXPECT_EQ(slurp(hit.files[0]), slurp(path("direct.1k")));
  EXPECT_EQ(slurp(hit.files[1]), slurp(path("direct.2k")));
}

TEST_F(DkCacheTest, HitReportsNoFreshDiagnostics) {
  {
    std::ofstream out(path("loops.edges"));
    out << slurp(path("g.edges"));
    out << "5 5\n";  // a self-loop the extractor skips
  }
  DkCache cache(cache_dir());
  const auto miss = cache.extract_to(path("loops.edges"), 1, path("a"));
  EXPECT_FALSE(miss.hit);
  EXPECT_EQ(miss.skipped_self_loops, 1u);
  const auto hit = cache.extract_to(path("loops.edges"), 1, path("b"));
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.skipped_self_loops, 0u);
}

// A hit's copy reads the stored entry through the fault seam like every
// other file read: a failed read is an IoError, and the destination is
// never written.
TEST_F(DkCacheTest, HitCopyReadFaultIsAnIoErrorAndLeavesNoDestination) {
  DkCache cache(cache_dir());
  ASSERT_FALSE(cache.extract_to(path("g.edges"), 1, path("miss")).hit);
  // The key pass reads the small edge list in two reads (its bytes,
  // then the end of file); the copy's first read fails.
  io::fault::arm({io::fault::Point::read, /*after=*/2, EIO});
  EXPECT_THROW(cache.extract_to(path("g.edges"), 1, path("hit")), IoError);
  io::fault::clear();
  EXPECT_FALSE(fs::exists(path("hit.1k")));
  EXPECT_TRUE(cache.extract_to(path("g.edges"), 1, path("hit")).hit);
  EXPECT_EQ(slurp(path("hit.1k")), slurp(path("miss.1k")));
}

TEST_F(DkCacheTest, ConcurrentSameKeyRequestsSingleFlight) {
  DkCache cache(cache_dir());
  constexpr int kThreads = 6;
  std::atomic<int> hits{0}, misses{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([this, &cache, &hits, &misses, i] {
      const auto outcome = cache.extract_to(
          path("g.edges"), 3, path("t" + std::to_string(i)));
      (outcome.hit ? hits : misses).fetch_add(1);
      EXPECT_EQ(outcome.files.size(), 3u);
    });
  }
  for (auto& thread : threads) thread.join();

  // Exactly one thread extracted; everyone else waited and hit.
  EXPECT_EQ(misses.load(), 1);
  EXPECT_EQ(hits.load(), kThreads - 1);
  const std::string golden = slurp(path("t0.3k"));
  ASSERT_FALSE(golden.empty());
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(slurp(path("t" + std::to_string(i) + ".3k")), golden);
  }
}

TEST_F(DkCacheTest, CancelledMissLeavesNoPartialEntry) {
  DkCache cache(cache_dir());
  util::StopSource stop;
  stop.request_stop();
  RunContext ctx;
  ctx.stop = stop.token();
  EXPECT_THROW(cache.extract_to(path("g.edges"), 2, path("x"), {}, ctx),
               InterruptedError);
  // Neither the destination nor a truncated cache entry exists.
  EXPECT_FALSE(fs::exists(path("x.1k")));
  for (const auto& entry : fs::directory_iterator(cache_dir())) {
    ADD_FAILURE() << "unexpected cache entry " << entry.path();
  }
  // And the key is still serviceable afterwards.
  const auto outcome = cache.extract_to(path("g.edges"), 2, path("x"));
  EXPECT_FALSE(outcome.hit);
  EXPECT_TRUE(fs::exists(path("x.1k")));
}

}  // namespace
}  // namespace orbis::svc
