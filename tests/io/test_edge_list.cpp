#include "io/edge_list.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>

#include "graph/builders.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace orbis::io {
namespace {

TEST(EdgeList, RoundTrip) {
  util::Rng rng(3);
  const auto g = builders::gnm(30, 60, rng);
  std::stringstream buffer;
  write_edge_list(buffer, g);
  const auto result = read_edge_list(buffer);
  EXPECT_TRUE(result.graph == g);
  EXPECT_EQ(result.skipped_self_loops, 0u);
  EXPECT_EQ(result.skipped_duplicates, 0u);
}

TEST(EdgeList, CommentsAndBlankLines) {
  std::istringstream in(
      "# header comment\n"
      "\n"
      "0 1\n"
      "1 2  # trailing comment\n"
      "\n");
  const auto result = read_edge_list(in);
  EXPECT_EQ(result.graph.num_nodes(), 3u);
  EXPECT_EQ(result.graph.num_edges(), 2u);
}

TEST(EdgeList, DensifiesSparseIds) {
  std::istringstream in("1000 2000\n2000 50\n");
  const auto result = read_edge_list(in);
  EXPECT_EQ(result.graph.num_nodes(), 3u);
  ASSERT_EQ(result.original_ids.size(), 3u);
  EXPECT_EQ(result.original_ids[0], 1000u);  // first-appearance order
  EXPECT_EQ(result.original_ids[1], 2000u);
  EXPECT_EQ(result.original_ids[2], 50u);
}

TEST(EdgeList, SkipsLoopsAndDuplicatesWithCount) {
  std::istringstream in("0 0\n0 1\n1 0\n1 2\n");
  const auto result = read_edge_list(in);
  EXPECT_EQ(result.graph.num_edges(), 2u);
  EXPECT_EQ(result.skipped_self_loops, 1u);
  EXPECT_EQ(result.skipped_duplicates, 1u);
}

TEST(EdgeList, MalformedLineReportsLineNumber) {
  std::istringstream in("0 1\nnot numbers\n");
  try {
    read_edge_list(in);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(EdgeList, MissingSecondIdThrows) {
  std::istringstream in("0\n");
  EXPECT_THROW(read_edge_list(in), std::invalid_argument);
}

TEST(EdgeList, TrailingTokensThrow) {
  std::istringstream in("0 1 2\n");
  EXPECT_THROW(read_edge_list(in), std::invalid_argument);
}

TEST(EdgeList, MissingFileThrows) {
  EXPECT_THROW(read_edge_list_file("/nonexistent/path/graph.txt"),
               std::runtime_error);
}

TEST(EdgeList, FileRoundTrip) {
  util::Rng rng(9);
  const auto g = builders::gnm(20, 40, rng);
  const std::string path = testing::TempDir() + "orbis_edge_list_test.txt";
  write_edge_list_file(path, g);
  const auto result = read_edge_list_file(path);
  EXPECT_TRUE(result.graph == g);
  std::remove(path.c_str());
}

TEST(EdgeList, EmptyInputYieldsEmptyGraph) {
  std::istringstream in("# nothing here\n");
  const auto result = read_edge_list(in);
  EXPECT_EQ(result.graph.num_nodes(), 0u);
  EXPECT_EQ(result.graph.num_edges(), 0u);
}

/// Serves `good`, then fails like a dying device: its underflow throws,
/// which std::istream turns into badbit.
class FailingStreambuf : public std::streambuf {
 public:
  explicit FailingStreambuf(std::string good) : good_(std::move(good)) {
    setg(good_.data(), good_.data(), good_.data() + good_.size());
  }

 protected:
  int_type underflow() override { throw std::runtime_error("device error"); }

 private:
  std::string good_;
};

TEST(EdgeList, StreamErrorIsAnIoErrorNotTheEnd) {
  // The lines served before the failure must not pass for the whole
  // input: the reader throws instead of returning a truncated graph.
  FailingStreambuf buf("0 1\n1 2\n");
  std::istream in(&buf);
  try {
    read_edge_list(in);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("byte offset"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("badbit"), std::string::npos);
  }
}

}  // namespace
}  // namespace orbis::io
