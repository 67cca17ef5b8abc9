// Deterministic mutation fuzzing of every text reader: the edge list,
// the .1k/.2k/.3k files and the checkpoint.  Each golden input is
// mutated by seeded byte flips, truncations and line splices, and every
// mutant goes through the public reader.  A mutant must read as a value
// or throw an orbis::Error; any other exception fails the test, and so
// does any sanitizer report in a sanitized build.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "gen/checkpoint.hpp"
#include "io/checkpoint_io.hpp"
#include "io/dk_serialization.hpp"
#include "io/edge_list.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace orbis {
namespace {

namespace fs = std::filesystem;

constexpr int kMutantsPerInput = 1500;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// Bytes the grammars give meaning to, so flips reach past the first
/// check more often than uniform bytes do.
constexpr std::string_view kGrammarBytes = " \t\r\n#-+0123456789wt";

/// One mutant of `text`: 1-4 byte flips, a truncation, or a splice of a
/// run of its lines to another place (dropped, moved or repeated).
std::string mutate(const std::string& text, util::Rng& rng) {
  std::string out = text;
  switch (rng.uniform(3)) {
    case 0: {
      for (std::uint64_t i = 0, n = 1 + rng.uniform(4); i < n; ++i) {
        const std::size_t at = rng.uniform(out.size());
        out[at] = rng.uniform(2) == 0
                      ? kGrammarBytes[rng.uniform(kGrammarBytes.size())]
                      : static_cast<char>(rng.uniform(256));
      }
      break;
    }
    case 1:
      out.resize(rng.uniform(out.size()));
      break;
    default: {
      const std::vector<std::string> lines = split_lines(text);
      const std::size_t from = rng.uniform(lines.size());
      const std::size_t count = 1 + rng.uniform(3);
      const std::size_t to = rng.uniform(lines.size() + 1);
      const bool keep = rng.uniform(2) == 0;  // repeat, or move / drop
      std::vector<std::string> spliced;
      for (std::size_t i = 0; i <= lines.size(); ++i) {
        if (i == to) {
          for (std::size_t j = from; j < from + count && j < lines.size();
               ++j) {
            spliced.push_back(lines[j]);
          }
        }
        if (i == lines.size()) break;
        if (keep || i < from || i >= from + count) spliced.push_back(lines[i]);
      }
      out.clear();
      for (const std::string& line : spliced) out += line + "\n";
      break;
    }
  }
  return out;
}

class ParserFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* data = std::getenv("ORBIS_TEST_DATA_DIR");
    data_ = data != nullptr ? data : "tests/data";
    dir_ = fs::temp_directory_path() /
           ("orbis_parser_fuzz_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string fixture(const std::string& name) const {
    return slurp(data_ + "/" + name);
  }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Feeds kMutantsPerInput mutants of `golden` to `read`, seeded by
  /// `seed`; returns how many read as a value.
  int fuzz(const std::string& golden, std::uint64_t seed,
           const std::function<void(const std::string&)>& read) {
    util::Rng rng(seed);
    int accepted = 0;
    for (int i = 0; i < kMutantsPerInput; ++i) {
      const std::string mutant = mutate(golden, rng);
      try {
        read(mutant);
        ++accepted;
      } catch (const Error&) {
        // Rejected with a structured error: the contract.
      } catch (const std::exception& e) {
        ADD_FAILURE() << "mutant " << i << " (seed " << seed
                      << ") threw a non-orbis exception: " << e.what()
                      << "\n--- mutant ---\n"
                      << mutant;
      } catch (...) {
        ADD_FAILURE() << "mutant " << i << " (seed " << seed
                      << ") threw a non-exception\n--- mutant ---\n"
                      << mutant;
      }
    }
    return accepted;
  }

  std::string data_;
  fs::path dir_;
};

TEST_F(ParserFuzzTest, EdgeListMutantsReadOrThrowOrbisErrors) {
  const int accepted =
      fuzz(fixture("fixture.edges"), 1, [](const std::string& text) {
        std::istringstream in(text);
        io::read_edge_list(in);
      });
  // Most truncations and splices still read: the mutants reach past
  // the first check.
  EXPECT_GT(accepted, 0);
}

TEST_F(ParserFuzzTest, DkFileMutantsReadOrThrowOrbisErrors) {
  EXPECT_GT(fuzz(fixture("fixture.1k"), 2,
                 [](const std::string& text) {
                   std::istringstream in(text);
                   io::read_1k(in);
                 }),
            0);
  EXPECT_GT(fuzz(fixture("fixture.2k"), 3,
                 [](const std::string& text) {
                   std::istringstream in(text);
                   io::read_2k(in);
                 }),
            0);
  EXPECT_GT(fuzz(fixture("fixture.3k"), 4,
                 [](const std::string& text) {
                   std::istringstream in(text);
                   io::read_3k(in);
                 }),
            0);
}

TEST_F(ParserFuzzTest, CheckpointMutantsReadOrThrowOrbisErrors) {
  const Graph start =
      io::read_edge_list_file(data_ + "/fixture.edges").graph;
  gen::TargetingOptions options;
  options.attempts = 100;
  svc::RunContext ctx;
  ctx.chains = 2;
  util::Rng rng(5);
  io::write_checkpoint_file(path("golden.ck"),
                            gen::make_2k_run(start, options, 50, rng, ctx));
  const std::string golden = slurp(path("golden.ck"));
  io::read_checkpoint_file(path("golden.ck"));  // the golden file reads

  const std::string file = path("mutant.ck");
  const int accepted = fuzz(golden, 6, [&](const std::string& text) {
    std::ofstream(file, std::ios::binary | std::ios::trunc) << text;
    io::read_checkpoint_file(file);
  });
  EXPECT_GT(accepted, 0);
}

}  // namespace
}  // namespace orbis
