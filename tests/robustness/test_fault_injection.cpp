// The fault seam itself (io/fault_injection.hpp), and the bounded
// retry policy that absorbs transient faults (io/retry.hpp).
#include "io/fault_injection.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <string>

#include <span>

#include "io/chunked_edge_reader.hpp"
#include "io/edge_list.hpp"
#include "io/retry.hpp"
#include "util/errors.hpp"

namespace orbis::io {
namespace {

class FaultSeamTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::clear(); }
  void TearDown() override { fault::clear(); }
};

TEST_F(FaultSeamTest, DisarmedNeverFails) {
  int err = 0;
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(fault::should_fail(fault::Point::read, err));
  }
}

TEST_F(FaultSeamTest, AfterSkipsLeadingOperations) {
  fault::arm({fault::Point::write, /*after=*/3, ENOSPC});
  int err = 0;
  EXPECT_FALSE(fault::should_fail(fault::Point::write, err));
  EXPECT_FALSE(fault::should_fail(fault::Point::write, err));
  EXPECT_FALSE(fault::should_fail(fault::Point::write, err));
  EXPECT_TRUE(fault::should_fail(fault::Point::write, err));
  EXPECT_EQ(err, ENOSPC);
  // Default count: every subsequent operation keeps failing (hard fault).
  EXPECT_TRUE(fault::should_fail(fault::Point::write, err));
}

TEST_F(FaultSeamTest, FiniteCountModelsTransientFault) {
  fault::arm({fault::Point::read, /*after=*/0, EINTR, /*count=*/2});
  int err = 0;
  EXPECT_TRUE(fault::should_fail(fault::Point::read, err));
  EXPECT_EQ(err, EINTR);
  EXPECT_TRUE(fault::should_fail(fault::Point::read, err));
  // Exhausted: the fault has passed.
  EXPECT_FALSE(fault::should_fail(fault::Point::read, err));
}

TEST_F(FaultSeamTest, PointsAreIndependent) {
  fault::arm({fault::Point::fsync, 0, EIO});
  int err = 0;
  EXPECT_FALSE(fault::should_fail(fault::Point::write, err));
  EXPECT_FALSE(fault::should_fail(fault::Point::rename_file, err));
  EXPECT_TRUE(fault::should_fail(fault::Point::fsync, err));
}

TEST_F(FaultSeamTest, ClearDisarmsAndResetsCounters) {
  fault::arm({fault::Point::read, 0, EIO});
  fault::clear();
  int err = 0;
  EXPECT_FALSE(fault::should_fail(fault::Point::read, err));
  EXPECT_FALSE(fault::any_armed());
}

TEST(RetryPolicy, TransientErrnosAreExactlyTheInterruptibleOnes) {
  EXPECT_TRUE(is_transient_errno(EINTR));
  EXPECT_TRUE(is_transient_errno(EAGAIN));
  EXPECT_FALSE(is_transient_errno(ENOSPC));
  EXPECT_FALSE(is_transient_errno(EIO));
  EXPECT_FALSE(is_transient_errno(EACCES));
}

TEST(RetryPolicy, RetriesTransientThenSucceeds) {
  RetryPolicy policy;
  policy.initial_backoff = std::chrono::milliseconds(0);  // fast test
  int calls = 0;
  const int result = retry_transient(policy, [&]() {
    if (++calls < 3) throw IoError("transient", EINTR);
    return 42;
  });
  EXPECT_EQ(result, 42);
  EXPECT_EQ(calls, 3);
}

TEST(RetryPolicy, GivesUpAfterMaxAttempts) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = std::chrono::milliseconds(0);
  int calls = 0;
  EXPECT_THROW(retry_transient(policy,
                               [&]() -> int {
                                 ++calls;
                                 throw IoError("still transient", EINTR);
                               }),
               IoError);
  EXPECT_EQ(calls, 3);
}

TEST(RetryPolicy, NonTransientErrorsPropagateImmediately) {
  RetryPolicy policy;
  policy.initial_backoff = std::chrono::milliseconds(0);
  int calls = 0;
  EXPECT_THROW(retry_transient(policy,
                               [&]() -> int {
                                 ++calls;
                                 throw IoError("disk on fire", EIO);
                               }),
               IoError);
  EXPECT_EQ(calls, 1);
}

/// End to end: a transient read fault injected under an edge-list
/// reader is absorbed by the retry layer; a hard fault surfaces as
/// IoError with the byte offset.  This is the reader-side half of the
/// "every injected fault surfaces as a structured error" guarantee.
/// Both readers run: the chunked pass and read_edge_list_file, which is
/// a pass of the same loop.
enum class Reader { chunked, read_edge_list_file };

class ReaderFaultTest : public ::testing::TestWithParam<Reader> {
 protected:
  void SetUp() override {
    fault::clear();
    path_ = (std::filesystem::temp_directory_path() /
             ("orbis_reader_fault_" + std::to_string(::getpid()) + ".edges"))
                .string();
    std::ofstream out(path_);
    for (int i = 0; i < 50; ++i) out << i << ' ' << i + 1 << '\n';
  }
  void TearDown() override {
    fault::clear();
    std::filesystem::remove(path_);
  }

  /// Edges read from path_ by the reader under test.
  std::size_t read_edges() const {
    if (GetParam() == Reader::read_edge_list_file) {
      return read_edge_list_file(path_).graph.num_edges();
    }
    ChunkedEdgeListReader::Options options;
    options.retry.initial_backoff = std::chrono::milliseconds(0);
    ChunkedEdgeListReader reader(path_, options);
    std::size_t edges = 0;
    reader.run_pass([&](std::span<const RawEdge> chunk) {
      edges += chunk.size();
    });
    return edges;
  }

  std::string path_;
};

TEST_P(ReaderFaultTest, TransientReadFaultIsRetriedAway) {
  fault::arm({fault::Point::read, /*after=*/0, EINTR, /*count=*/2});
  EXPECT_EQ(read_edges(), 50u);
}

TEST_P(ReaderFaultTest, HardReadFaultThrowsIoErrorWithOffset) {
  fault::arm({fault::Point::read, /*after=*/0, EIO});
  try {
    read_edges();
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.errno_value(), EIO);
    EXPECT_NE(std::string(e.what()).find("byte offset"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find(path_), std::string::npos);
  }
}

TEST_P(ReaderFaultTest, OpenFaultThrowsIoErrorNamingFile) {
  fault::arm({fault::Point::open_read, /*after=*/0, EACCES});
  try {
    read_edges();
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.errno_value(), EACCES);
    EXPECT_NE(std::string(e.what()).find(path_), std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(BothReaders, ReaderFaultTest,
                         ::testing::Values(Reader::chunked,
                                           Reader::read_edge_list_file),
                         [](const ::testing::TestParamInfo<Reader>& info) {
                           return info.param == Reader::chunked
                                      ? std::string("Chunked")
                                      : std::string("ReadEdgeListFile");
                         });

}  // namespace
}  // namespace orbis::io
