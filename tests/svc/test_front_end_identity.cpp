// One request, one graph, whatever the front end.  gen::generate_dk_random,
// `orbis_tool generate` (plain and --checkpoint) and `orbis_server`
// generate all drive gen::Pipeline, so on the same heavy-tailed target,
// with the same d, chain count and seed at the default budget, they must
// write byte-identical edge lists.  The checkpoint cadence is not part
// of the request's identity: the tool (--checkpoint-every) and the
// server ("checkpoint_every") run at the case's cadence, the library at
// its default one, and all must agree.  The server's output is also
// pinned by hash.
// Needs the example binaries (ORBIS_TOOL_BIN / ORBIS_SERVER_BIN); skipped
// when the examples are not built.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/series.hpp"
#include "gen/generate.hpp"
#include "gen/matching.hpp"
#include "io/dk_serialization.hpp"
#include "io/edge_list.hpp"
#include "svc/run_context.hpp"
#include "topo/as_level.hpp"
#include "util/rng.hpp"

namespace orbis {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kSeed = 5;

/// FNV-1a over the file bytes.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

struct Case {
  int d;
  std::size_t chains;
  std::uint64_t every;        // tool and server cadence; 0 = default
  std::uint64_t server_hash;  // orbis_server's output, pinned
};

class FrontEndIdentityTest : public ::testing::TestWithParam<Case> {
 protected:
  void SetUp() override {
    const char* tool = std::getenv("ORBIS_TOOL_BIN");
    const char* server = std::getenv("ORBIS_SERVER_BIN");
    if (tool == nullptr || server == nullptr || !fs::exists(tool) ||
        !fs::exists(server)) {
      GTEST_SKIP() << "ORBIS_TOOL_BIN / ORBIS_SERVER_BIN not set or "
                      "missing (examples not built)";
    }
    tool_ = tool;
    server_ = server;
    dir_ = fs::temp_directory_path() /
           ("orbis_front_end_test_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);

    // Heavy-tailed target: a power-law degree sequence (hubs of degree
    // up to ~40 among 150 nodes) wired by matching.
    topo::AsLevelOptions shape;
    shape.num_nodes = 150;
    shape.gamma = 2.1;
    shape.max_degree_cap = 40;
    util::Rng rng(3);
    const Graph source = gen::matching_1k(
        dk::DegreeDistribution::from_sequence(
            topo::power_law_degree_sequence(shape)),
        rng);
    target_ = dk::extract(source, 3);
    io::write_1k_file(path("t.1k"), target_.degree);
    io::write_2k_file(path("t.2k"), target_.joint);
    io::write_3k_file(path("t.3k"), target_.three_k);
  }

  void TearDown() override {
    if (!dir_.empty()) fs::remove_all(dir_);
  }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static std::string slurp(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  int shell(const std::string& cmd) {
    const int status = std::system(
        (cmd + " > /dev/null 2>> '" + path("stderr.log") + "'").c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  std::string library(const Case& c) {
    svc::RunContext ctx;
    ctx.seed = kSeed;
    ctx.chains = c.chains;
    gen::GenerateOptions options;
    options.method = gen::Method::targeting;
    const Graph g = gen::generate_dk_random(target_, c.d, options, ctx);
    io::write_edge_list_file(path("lib.edges"), g);
    return slurp(path("lib.edges"));
  }

  std::string tool(const Case& c, const std::string& extra,
                   const std::string& out) {
    const int code = shell(
        "'" + tool_ + "' generate --quiet --method targeting --d " +
        std::to_string(c.d) + " --from-1k '" + path("t.1k") +
        "' --from-2k '" + path("t.2k") + "' --from-3k '" + path("t.3k") +
        "' --seed " + std::to_string(kSeed) + " --chains " +
        std::to_string(c.chains) + cadence(c) + extra + " --out '" +
        path(out) + "'");
    EXPECT_EQ(code, 0) << slurp(path("stderr.log"));
    return slurp(path(out));
  }

  static std::string cadence(const Case& c) {
    return c.every > 0 ? " --checkpoint-every " + std::to_string(c.every)
                       : "";
  }

  std::string server(const Case& c) {
    {
      std::ofstream script(path("requests.jsonl"));
      script << R"({"op":"generate","target":")" << path("t")
             << R"(","out":")" << path("srv.edges") << R"(","d":)" << c.d
             << R"(,"seed":)" << kSeed << R"(,"chains":)" << c.chains
             << R"(,"checkpoint_every":)" << c.every
             << R"(,"workers":1})" << '\n'
             << R"({"op":"wait","job":1})" << '\n'
             << R"({"op":"shutdown"})" << '\n';
    }
    const int code = shell("'" + server_ + "' --cache-dir '" +
                           path("cache") + "' < '" +
                           path("requests.jsonl") + "'");
    EXPECT_EQ(code, 0) << slurp(path("stderr.log"));
    return slurp(path("srv.edges"));
  }

  std::string tool_;
  std::string server_;
  fs::path dir_;
  dk::DkDistributions target_;
};

TEST_P(FrontEndIdentityTest, AllFrontEndsWriteTheSameGraph) {
  const Case c = GetParam();
  const std::string from_server = server(c);
  ASSERT_FALSE(from_server.empty());
  EXPECT_EQ(fnv1a(from_server), c.server_hash)
      << "d=" << c.d << " chains=" << c.chains << " every=" << c.every
      << ": 0x" << std::hex
      << fnv1a(from_server);
  EXPECT_EQ(library(c), from_server);
  EXPECT_EQ(tool(c, "", "cli.edges"), from_server);
  EXPECT_EQ(tool(c, " --checkpoint '" + path("run.ck") + "'", "ck.edges"),
            from_server);
}

// One and two chains write the same graph here: every chain converges,
// ties go to chain 0, and chain 0's stream (master.stream(0)) does not
// depend on the chain count.  Nor does any cadence move it: 1024-attempt
// legs, or one leg for the whole budget.
constexpr std::uint64_t kOneLeg = std::uint64_t{1} << 40;
constexpr std::uint64_t kD2Hash = 0x1e00744f41d6b4e3ULL;
constexpr std::uint64_t kD3Hash = 0x9e7c08d513642edbULL;

INSTANTIATE_TEST_SUITE_P(
    DkChainsAndCadence, FrontEndIdentityTest,
    ::testing::Values(Case{2, 1, 0, kD2Hash}, Case{2, 2, 0, kD2Hash},
                      Case{3, 1, 0, kD3Hash}, Case{3, 2, 0, kD3Hash},
                      Case{2, 2, 1024, kD2Hash}, Case{3, 2, 1024, kD3Hash},
                      Case{3, 1, kOneLeg, kD3Hash}),
    [](const ::testing::TestParamInfo<Case>& info) {
      const std::uint64_t every = info.param.every;
      return "d" + std::to_string(info.param.d) + "_chains" +
             std::to_string(info.param.chains) + "_every" +
             (every == kOneLeg ? std::string("OneLeg")
                               : std::to_string(every));
    });

}  // namespace
}  // namespace orbis
