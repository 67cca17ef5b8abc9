// The error taxonomy (util/errors.hpp) and the reader-side error
// contract: malformed content names the file and line as a ParseError,
// I/O failures are IoError (never conflated with EOF), and a failed
// read never returns a partially-filled distribution.
#include "util/errors.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "io/dk_serialization.hpp"
#include "io/edge_list.hpp"

namespace orbis {
namespace {

TEST(ErrorTaxonomy, CategoriesMapToDistinctExitCodes) {
  EXPECT_EQ(exit_code_for(ErrorCategory::parse), 2);
  EXPECT_EQ(exit_code_for(ErrorCategory::io), 3);
  EXPECT_EQ(exit_code_for(ErrorCategory::resource), 4);
  EXPECT_EQ(exit_code_for(ErrorCategory::interrupted), 130);
}

TEST(ErrorTaxonomy, EachTypeCarriesItsCategoryAndExitCode) {
  const ParseError parse("bad line");
  EXPECT_EQ(parse.category(), ErrorCategory::parse);
  EXPECT_EQ(parse.exit_code(), 2);

  const IoError io("disk trouble", EIO);
  EXPECT_EQ(io.category(), ErrorCategory::io);
  EXPECT_EQ(io.exit_code(), 3);
  EXPECT_EQ(io.errno_value(), EIO);

  const ResourceError resource("over budget");
  EXPECT_EQ(resource.category(), ErrorCategory::resource);
  EXPECT_EQ(resource.exit_code(), 4);

  const InterruptedError interrupted("stop requested");
  EXPECT_EQ(interrupted.category(), ErrorCategory::interrupted);
  EXPECT_EQ(interrupted.exit_code(), 130);
}

TEST(ErrorTaxonomy, BackwardCompatibleWithStdHierarchy) {
  // Pre-taxonomy call sites catch std::invalid_argument for parse
  // failures and std::runtime_error for I/O — both must keep working.
  EXPECT_THROW(throw ParseError("x"), std::invalid_argument);
  EXPECT_THROW(throw IoError("x"), std::runtime_error);
  EXPECT_THROW(throw ResourceError("x"), std::runtime_error);
  EXPECT_THROW(throw InterruptedError("x"), std::runtime_error);
  // And every one is catchable through the Error mixin for exit codes.
  try {
    throw IoError("through the mixin");
  } catch (const Error& e) {
    EXPECT_EQ(e.exit_code(), 3);
  }
}

TEST(ErrorTaxonomy, GenerationErrorIsAResourceError) {
  EXPECT_THROW(throw GenerationError("no valid wiring"), ResourceError);
  EXPECT_EQ(GenerationError("x").exit_code(), 4);
}

class ReaderContractTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("orbis_reader_contract_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string write(const std::string& name, const std::string& content) {
    const std::string p = (dir_ / name).string();
    std::ofstream(p) << content;
    return p;
  }

  std::filesystem::path dir_;
};

TEST_F(ReaderContractTest, Malformed1kNamesFileAndLine) {
  const auto path = write("bad.1k", "1 10\nnot-a-degree 5\n");
  try {
    io::read_1k_file(path);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  }
}

TEST_F(ReaderContractTest, Malformed2kNamesFileAndLine) {
  const auto path = write("bad.2k", "1 2 3\n4 oops 6\n");
  try {
    io::read_2k_file(path);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  }
}

TEST_F(ReaderContractTest, Truncated2kLineIsAnErrorNotASmallerDistribution) {
  // A line torn mid-record (e.g. a partial write before a crash) must
  // never parse as a complete, smaller distribution.
  const auto path = write("torn.2k", "1 2 3\n4 5\n");
  EXPECT_THROW(io::read_2k_file(path), ParseError);
}

TEST_F(ReaderContractTest, Malformed3kNamesFileAndLine) {
  const auto path = write("bad.3k", "w 1 2 3 4\nz 1 2 3 4\n");
  try {
    io::read_3k_file(path);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
}

// The dK grammar is strict: an unsigned field takes no sign, no token
// may trail a record, a degree must fit its key, and no count may size
// memory or wrap a sum.  Each hostile line is a ParseError naming the
// file and the line.
TEST_F(ReaderContractTest, HostileDkLinesAreParseErrorsNamingTheLine) {
  const auto expect_rejected = [&](const std::string& name,
                                   const std::string& content,
                                   const std::string& line, auto read) {
    const auto path = write(name, content);
    try {
      read(path);
      ADD_FAILURE() << "expected ParseError for: " << content;
    } catch (const ParseError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(path), std::string::npos) << what;
      EXPECT_NE(what.find(line), std::string::npos) << what;
    }
  };
  const auto read_1k = [](const std::string& p) { io::read_1k_file(p); };
  const auto read_2k = [](const std::string& p) { io::read_2k_file(p); };
  const auto read_3k = [](const std::string& p) { io::read_3k_file(p); };
  expect_rejected("sign.1k", "-3 4\n", "line 1", read_1k);
  expect_rejected("plus.1k", "1 2\n+2 3\n", "line 2", read_1k);
  expect_rejected("trailing.1k", "3 4 junk\n", "line 1", read_1k);
  expect_rejected("huge.1k", "2 1000000000000\n", "line 1", read_1k);
  expect_rejected("sum.1k", "1 4294967295\n2 1\n", "line 2", read_1k);
  // Three nodes cannot hold a node of degree 7.
  expect_rejected("degree.1k", "1 2\n7 1\n", "line 2", read_1k);
  expect_rejected("trailing.2k", "2 2 3 junk\n", "line 1", read_2k);
  expect_rejected("sign.2k", "1 2 3\n-1 2 3\n", "line 2", read_2k);
  expect_rejected("sum.2k", "1 2 9223372036854775807\n1 2 1\n", "line 2",
                  read_2k);
  expect_rejected("trailing.3k", "w 1 2 3 4 x\n", "line 1", read_3k);
  expect_rejected("sign.3k", "w 1 2 3 4\nt -1 2 3 4\n", "line 2", read_3k);
  expect_rejected("packing.3k", "w 1 2 2097152 1\n", "line 1", read_3k);
}

TEST_F(ReaderContractTest, MissingFileIsIoErrorNotParseError) {
  const std::string missing = (dir_ / "nope.2k").string();
  try {
    io::read_2k_file(missing);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.category(), ErrorCategory::io);
    EXPECT_NE(std::string(e.what()).find(missing), std::string::npos);
  }
  EXPECT_THROW(io::read_edge_list_file(missing), IoError);
}

TEST_F(ReaderContractTest, MalformedEdgeListNamesLine) {
  const auto path = write("bad.edges", "0 1\n1 2\nbroken\n");
  try {
    io::read_edge_list_file(path);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

}  // namespace
}  // namespace orbis
