// End-to-end robustness of the orbis_tool binary: exit-code taxonomy,
// ORBIS_FAULT injection across a process boundary, and the
// checkpoint/kill/resume cycle through the real CLI.  Needs the example
// binary: CMake exports its path as ORBIS_TOOL_BIN; skipped when the
// examples are not built.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/series.hpp"
#include "graph/builders.hpp"
#include "io/dk_serialization.hpp"
#include "io/edge_list.hpp"
#include "util/rng.hpp"
#include "../obs/json_checker.hpp"

namespace orbis {
namespace {

namespace fs = std::filesystem;

class ToolCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* bin = std::getenv("ORBIS_TOOL_BIN");
    if (bin == nullptr || !fs::exists(bin)) {
      GTEST_SKIP() << "ORBIS_TOOL_BIN not set or missing (examples not "
                      "built)";
    }
    tool_ = bin;
    dir_ = fs::temp_directory_path() /
           ("orbis_cli_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);

    // A small test graph and its 2K file, written through the library.
    util::Rng rng(23);
    graph_ = builders::gnm(30, 60, rng);
    io::write_edge_list_file(path("g.edges"), graph_);
    const dk::DkDistributions dists = dk::extract(graph_, 3);
    io::write_2k_file(path("g.2k"), dists.joint);
    io::write_3k_file(path("g.3k"), dists.three_k);
  }
  void TearDown() override {
    if (!dir_.empty()) fs::remove_all(dir_);
  }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Runs the tool through /bin/sh, returns its exit code.  `env` is an
  /// optional VAR=value prefix (how ORBIS_FAULT reaches the child).
  int run(const std::string& args, const std::string& env = "") {
    const std::string cmd = env + (env.empty() ? "" : " ") + "'" + tool_ +
                            "' " + args + " > /dev/null 2>> '" +
                            path("stderr.log") + "'";
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  std::string stderr_log() {
    std::ifstream in(path("stderr.log"));
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  static std::string slurp(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  std::string tool_;
  fs::path dir_;
  Graph graph_;
};

TEST_F(ToolCliTest, SuccessIsZero) {
  EXPECT_EQ(run("analyze '" + path("g.edges") + "'"), 0);
}

TEST_F(ToolCliTest, MissingInputFileExitsIo) {
  EXPECT_EQ(run("analyze '" + path("missing.edges") + "'"), 3);
  EXPECT_NE(stderr_log().find("missing.edges"), std::string::npos);
}

TEST_F(ToolCliTest, MalformedInputExitsParseAndNamesLine) {
  std::ofstream(path("bad.edges")) << "0 1\nbroken line here\n";
  EXPECT_EQ(run("analyze '" + path("bad.edges") + "'"), 2);
  EXPECT_NE(stderr_log().find("line 2"), std::string::npos);
}

TEST_F(ToolCliTest, BadFlagValueExitsUsage) {
  EXPECT_EQ(run("generate --d 2 --method bogus --from-2k '" + path("g.2k") +
                "' --out '" + path("x.edges") + "'"),
            2);
}

TEST_F(ToolCliTest, WideOrNegativeIntegerFlagsExitUsageNamingTheFlag) {
  // --d 4294967298 once narrowed to 2 and ran; --nodes -5 wrapped to
  // 2^64-5 and died allocating.  Both are usage errors before any work.
  EXPECT_EQ(run("generate --d 4294967298 --from-2k '" + path("g.2k") +
                "' --out '" + path("wide.edges") + "'"),
            2);
  EXPECT_FALSE(fs::exists(path("wide.edges")));
  EXPECT_NE(stderr_log().find("--d must be in [0,3]"), std::string::npos);
  EXPECT_EQ(run("rescale --from-2k '" + path("g.2k") +
                "' --nodes -5 --out '" + path("r.2k") + "'"),
            2);
  EXPECT_FALSE(fs::exists(path("r.2k")));
  EXPECT_NE(stderr_log().find("--nodes must be >= 0"), std::string::npos);
}

TEST_F(ToolCliTest, OversizedChainCountsExitUsageNamingTheFlag) {
  // The same bound as the wire's "chains" (gen::kMaxChains): refused
  // before the pipeline allocates a slot.  Only refused values run.
  for (const std::string count : {"4294967296", "65"}) {
    EXPECT_EQ(run("generate --d 2 --method targeting --from-2k '" +
                  path("g.2k") + "' --chains " + count + " --out '" +
                  path("many.edges") + "'"),
              2)
        << count;
    EXPECT_FALSE(fs::exists(path("many.edges")));
    EXPECT_NE(stderr_log().find("--chains must be at most 64"),
              std::string::npos)
        << stderr_log();
  }
}

TEST_F(ToolCliTest, AttemptBudgetFlagsSetTheChainBudget) {
  // A d = 3 randomize budget, set outright and per edge (the test graph
  // has 60 edges); the report's randomize record counts the attempts.
  const auto randomize_attempts = [&](const std::string& flags,
                                      const std::string& report_file) {
    EXPECT_EQ(run("generate --d 3 --like '" + path("g.edges") + "' " +
                  flags + " --out '" + path("r.edges") + "' --report '" +
                  path(report_file) + "'"),
              0)
        << flags;
    const std::string report = slurp(path(report_file));
    const std::size_t at = report.find("\"randomize\"");
    const std::size_t end = report.find("duration_seconds", at);
    return at == std::string::npos || end == std::string::npos
               ? std::string()
               : report.substr(at, end - at);
  };
  EXPECT_TRUE(test_json::has_entry(
      randomize_attempts("--attempts 500", "outright.json"), "attempts",
      "500,"));
  EXPECT_TRUE(test_json::has_entry(
      randomize_attempts("--attempts-per-edge 3", "per_edge.json"),
      "attempts", "180,"));

  // 2^62 per edge times 60 edges wraps 64 bits: a usage error naming the
  // overflow, for randomizing and targeting alike, before any output.
  const std::string wrapping = " --attempts-per-edge 4611686018427387904";
  EXPECT_EQ(run("generate --d 3 --like '" + path("g.edges") + "'" +
                wrapping + " --out '" + path("w.edges") + "'"),
            2);
  EXPECT_EQ(run("generate --d 3 --from-2k '" + path("g.2k") +
                "' --from-3k '" + path("g.3k") + "'" + wrapping +
                " --out '" + path("w.edges") + "'"),
            2);
  EXPECT_FALSE(fs::exists(path("w.edges")));
  EXPECT_NE(stderr_log().find("overflows the 64-bit attempt budget"),
            std::string::npos)
      << stderr_log();

  // A construction with no rewiring chain has no budget to set.
  EXPECT_EQ(run("generate --d 2 --method matching --from-2k '" +
                path("g.2k") + "' --attempts 10 --out '" + path("w.edges") +
                "'"),
            2);
  EXPECT_FALSE(fs::exists(path("w.edges")));
  EXPECT_NE(stderr_log().find("--attempts/--attempts-per-edge apply to"),
            std::string::npos);
}

TEST_F(ToolCliTest, InjectedWriteFaultExitsIoAndLeavesNoOutput) {
  EXPECT_EQ(run("generate --d 2 --method matching --from-2k '" +
                    path("g.2k") + "' --out '" + path("fault.edges") + "'",
                "ORBIS_FAULT=write:err=ENOSPC"),
            3);
  EXPECT_FALSE(fs::exists(path("fault.edges")));
  EXPECT_NE(stderr_log().find("No space left"), std::string::npos);
}

TEST_F(ToolCliTest, InjectedFsyncFaultExitsIoAndKeepsOldFile) {
  std::ofstream(path("keep.1k")) << "precious\n";
  EXPECT_EQ(run("extract '" + path("g.edges") + "' '" + path("keep") + "'",
                "ORBIS_FAULT=fsync:err=EIO"),
            3);
  EXPECT_EQ(slurp(path("keep.1k")), "precious\n");
}

TEST_F(ToolCliTest, HostileDkLineExitsParseNamingFileAndLine) {
  std::ofstream(path("bad.1k")) << "1 2\n3 4 junk\n";
  EXPECT_EQ(run("generate --d 1 --from-1k '" + path("bad.1k") +
                "' --out '" + path("x.edges") + "'"),
            2);
  EXPECT_NE(stderr_log().find(path("bad.1k") + ": bad 1K line at line 2"),
            std::string::npos)
      << stderr_log();
  EXPECT_FALSE(fs::exists(path("x.edges")));
}

// Well-formed lines that describe no graph: the one line `1 2 3` puts
// three endpoints on degree 2, which no count of degree-2 nodes has.
TEST_F(ToolCliTest, InconsistentTwoKExitsParseNamingFileAndDegree) {
  std::ofstream(path("odd.2k")) << "1 2 3\n";
  EXPECT_EQ(run("generate --d 2 --method matching --from-2k '" +
                path("odd.2k") + "' --out '" + path("x.edges") + "'"),
            2);
  EXPECT_NE(stderr_log().find(path("odd.2k") + ": 2K degree 2 has 3 edge "
                                               "endpoints"),
            std::string::npos)
      << stderr_log();
  EXPECT_FALSE(fs::exists(path("x.edges")));
}

// Every file read goes through the fault seam: dK files and checkpoints
// as much as edge lists.
TEST_F(ToolCliTest, InjectedReadFaultOnADkFileExitsIo) {
  EXPECT_EQ(run("generate --d 2 --method matching --from-2k '" +
                    path("g.2k") + "' --out '" + path("x.edges") + "'",
                "ORBIS_FAULT=read:err=EIO"),
            3);
  EXPECT_NE(stderr_log().find(path("g.2k")), std::string::npos)
      << stderr_log();
  EXPECT_FALSE(fs::exists(path("x.edges")));
}

TEST_F(ToolCliTest, InjectedReadFaultOnResumeExitsIo) {
  const std::string common = "generate --d 2 --method targeting --from-2k '" +
                             path("g.2k") + "' --seed 11";
  ASSERT_EQ(run(common + " --checkpoint '" + path("part.ck") +
                "' --checkpoint-every 3000 --stop-after-checkpoints 1 "
                "--out '" + path("x.edges") + "'"),
            130);
  // g.2k takes two reads (its bytes, then the end of file); the
  // checkpoint's first read fails.
  EXPECT_EQ(run(common + " --resume '" + path("part.ck") + "' --out '" +
                    path("x.edges") + "'",
                "ORBIS_FAULT=read:after=2:err=EIO"),
            3);
  EXPECT_NE(stderr_log().find(path("part.ck")), std::string::npos)
      << stderr_log();
  EXPECT_FALSE(fs::exists(path("x.edges")));
}

TEST_F(ToolCliTest, TransientReadFaultIsAbsorbed) {
  EXPECT_EQ(run("extract '" + path("g.edges") + "' '" + path("t") + "'",
                "ORBIS_FAULT=read:err=EINTR:count=2"),
            0);
  EXPECT_TRUE(fs::exists(path("t.2k")));
}

TEST_F(ToolCliTest, CheckpointKillResumeIsBitIdentical) {
  const std::string common = "generate --d 2 --method targeting --from-2k '" +
                             path("g.2k") + "' --seed 11 --chains 2";
  // Uninterrupted checkpointed run.
  ASSERT_EQ(run(common + " --checkpoint '" + path("full.ck") +
                "' --checkpoint-every 3000 --out '" + path("full.edges") +
                "'"),
            0);
  // Same run, killed deterministically after the second checkpoint...
  ASSERT_EQ(run(common + " --checkpoint '" + path("part.ck") +
                "' --checkpoint-every 3000 --stop-after-checkpoints 2 "
                "--out '" + path("part.edges") + "'"),
            130);
  EXPECT_FALSE(fs::exists(path("part.edges")));  // no partial output
  // (A resume writes back to its file: keep a copy for the recut below.)
  fs::copy_file(path("part.ck"), path("part2.ck"));
  // ...and resumed from the file on disk.
  ASSERT_EQ(run(common + " --resume '" + path("part.ck") + "' --out '" +
                path("resumed.edges") + "'"),
            0);
  EXPECT_EQ(slurp(path("full.edges")), slurp(path("resumed.edges")));
  // The cadence is not part of the run: a resume may take another.
  ASSERT_EQ(run(common + " --resume '" + path("part2.ck") +
                "' --checkpoint '" + path("recut.ck") +
                "' --checkpoint-every 1024 --out '" + path("recut.edges") +
                "'"),
            0);
  EXPECT_EQ(slurp(path("full.edges")), slurp(path("recut.edges")));
  EXPECT_NE(slurp(path("recut.ck")).find("\nevery 1024\n"),
            std::string::npos);
}

TEST_F(ToolCliTest, D3KillAtStageBoundariesResumeIsBitIdentical) {
  // The checkpoint of a d = 3 run covers its 2K stage too: kill inside
  // the 2K stage, on the 2K -> 3K boundary and inside the 3K stage (8
  // legs per stage at this cadence), resume from disk, and require the
  // bytes of the uninterrupted run.
  const std::string common = "generate --d 3 --from-2k '" + path("g.2k") +
                             "' --from-3k '" + path("g.3k") +
                             "' --seed 13 --chains 2 --checkpoint-every 3000";
  ASSERT_EQ(run(common + " --checkpoint '" + path("d3full.ck") +
                "' --out '" + path("d3full.edges") + "'"),
            0);
  const std::string full = slurp(path("d3full.edges"));
  ASSERT_NE(full, "");
  for (const int kill_at : {2, 8, 11}) {
    const std::string tag = "d3k" + std::to_string(kill_at);
    ASSERT_EQ(run(common + " --checkpoint '" + path(tag + ".ck") +
                  "' --stop-after-checkpoints " + std::to_string(kill_at) +
                  " --out '" + path(tag + ".edges") + "'"),
              130);
    EXPECT_FALSE(fs::exists(path(tag + ".edges")));
    ASSERT_EQ(run(common + " --resume '" + path(tag + ".ck") + "' --out '" +
                  path(tag + "r.edges") + "'"),
              0);
    EXPECT_EQ(slurp(path(tag + "r.edges")), full) << "killed at " << kill_at;
  }
}

TEST_F(ToolCliTest, ImpossibleOptionsExitBeforeAnyStageRuns) {
  const auto refused_up_front = [&](const std::string& report_file) {
    const std::string report = slurp(path(report_file));
    EXPECT_TRUE(test_json::is_valid_json(report)) << report;
    EXPECT_TRUE(test_json::has_entry(report, "exit_code", "2"));
    EXPECT_TRUE(!test_json::has_key(report, "rewire.attempts") ||
                test_json::has_entry(report, "rewire.attempts", "0"))
        << report;
    EXPECT_FALSE(fs::exists(path("x.edges")));
  };
  // --workers is gone (each chain is serial): as an unknown flag it is
  // a usage error, never a silently dropped value.
  EXPECT_EQ(run("generate --d 3 --from-2k '" + path("g.2k") +
                "' --from-3k '" + path("g.3k") +
                "' --chains 1 --workers 2 --move mixed --out '" +
                path("x.edges") + "' --report '" + path("bad.json") + "'"),
            2);
  refused_up_front("bad.json");
  // Trades alone preserve the JDD, so 2K targeting on them could never
  // lower D2.
  EXPECT_EQ(run("generate --d 2 --method targeting --from-2k '" +
                path("g.2k") + "' --move trade --out '" + path("x.edges") +
                "' --report '" + path("trade.json") + "'"),
            2);
  refused_up_front("trade.json");
  // The same with the default swap moves.
  EXPECT_EQ(run("generate --d 3 --from-2k '" + path("g.2k") +
                "' --from-3k '" + path("g.3k") +
                "' --chains 1 --workers 2 --out '" + path("x.edges") +
                "' --report '" + path("workers.json") + "'"),
            2);
  refused_up_front("workers.json");
  // A misspelled flag is refused the same way, not ignored.
  EXPECT_EQ(run("generate --d 3 --from-2k '" + path("g.2k") +
                "' --from-3k '" + path("g.3k") +
                "' --chians 2 --out '" + path("x.edges") + "' --report '" +
                path("typo.json") + "'"),
            2);
  refused_up_front("typo.json");
  EXPECT_NE(slurp(path("typo.json")).find("unknown flag --chians"),
            std::string::npos);
}

TEST_F(ToolCliTest, MixedMoveKillResumeIsBitIdentical) {
  // Independent chains with the mixed proposal stream, through the real
  // CLI: kill after two checkpoints, resume from disk, and require the
  // bytes of the uninterrupted run.
  const std::string common = "generate --d 2 --method targeting --from-2k '" +
                             path("g.2k") +
                             "' --seed 11 --chains 3 --move mixed";
  ASSERT_EQ(run(common + " --checkpoint '" + path("lfull.ck") +
                "' --checkpoint-every 3000 --out '" + path("lfull.edges") +
                "'"),
            0);
  ASSERT_EQ(run(common + " --checkpoint '" + path("lpart.ck") +
                "' --checkpoint-every 3000 --stop-after-checkpoints 2 "
                "--out '" + path("lpart.edges") + "'"),
            130);
  EXPECT_FALSE(fs::exists(path("lpart.edges")));
  ASSERT_EQ(run(common + " --resume '" + path("lpart.ck") + "' --out '" +
                path("lresumed.edges") + "'"),
            0);
  EXPECT_EQ(slurp(path("lfull.edges")), slurp(path("lresumed.edges")));
  EXPECT_NE(slurp(path("lfull.edges")), "");
}

TEST_F(ToolCliTest, CorruptCheckpointExitsParse) {
  std::ofstream(path("corrupt.ck")) << "# orbis checkpoint v6\nd 9\n";
  EXPECT_EQ(run("generate --d 2 --method targeting --from-2k '" +
                path("g.2k") + "' --resume '" + path("corrupt.ck") +
                "' --out '" + path("x.edges") + "'"),
            2);
  EXPECT_NE(stderr_log().find("line 2"), std::string::npos);
  // An older format exits the same way, naming its version.
  std::ofstream(path("old.ck")) << "# orbis checkpoint v4\nd 2\n";
  EXPECT_EQ(run("generate --d 2 --method targeting --from-2k '" +
                path("g.2k") + "' --resume '" + path("old.ck") +
                "' --out '" + path("x.edges") + "'"),
            2);
  EXPECT_NE(stderr_log().find("version v4 is not supported"),
            std::string::npos);
}

TEST_F(ToolCliTest, CheckpointWithNonTargetingMethodExitsUsage) {
  EXPECT_EQ(run("generate --d 2 --method matching --from-2k '" +
                path("g.2k") + "' --checkpoint '" + path("x.ck") +
                "' --out '" + path("x.edges") + "'"),
            2);
}

TEST_F(ToolCliTest, ReportAndTraceAreValidJson) {
  ASSERT_EQ(run("generate --d 2 --method targeting --from-2k '" +
                path("g.2k") + "' --seed 5 --chains 2 --out '" +
                path("r.edges") + "' --report '" + path("run.json") +
                "' --trace '" + path("trace.json") + "'"),
            0);
  const std::string report = slurp(path("run.json"));
  EXPECT_TRUE(test_json::is_valid_json(report)) << report;
  EXPECT_TRUE(test_json::has_key(report, "schema_version"));
  EXPECT_TRUE(test_json::has_entry(report, "command", "\"generate\""));
  EXPECT_TRUE(test_json::has_entry(report, "seed", "5"));
  EXPECT_TRUE(test_json::has_entry(report, "exit_code", "0"));
  EXPECT_TRUE(test_json::has_key(report, "stages"));
  EXPECT_TRUE(test_json::has_key(report, "metrics"));
  EXPECT_TRUE(test_json::has_key(report, "trajectory"));
  EXPECT_NE(report.find("rewire.attempts"), std::string::npos);
  const std::string trace = slurp(path("trace.json"));
  EXPECT_TRUE(test_json::is_valid_json(trace)) << trace;
  EXPECT_TRUE(test_json::has_key(trace, "traceEvents"));
}

TEST_F(ToolCliTest, D3ReportHasOneRecordPerStage) {
  ASSERT_EQ(run("generate --d 3 --from-2k '" + path("g.2k") +
                "' --from-3k '" + path("g.3k") +
                "' --seed 5 --chains 2 --out '" + path("s.edges") +
                "' --report '" + path("stages.json") + "'"),
            0);
  const std::string report = slurp(path("stages.json"));
  ASSERT_TRUE(test_json::is_valid_json(report)) << report;
  EXPECT_EQ(report.find("\"generate.3k\""), std::string::npos);
  for (const std::string name : {"target.2k", "target.3k"}) {
    const std::size_t at = report.find("\"" + name + "\"");
    ASSERT_NE(at, std::string::npos) << name;
    // The record runs from its name to its last field.
    const std::size_t end = report.find("duration_seconds", at);
    ASSERT_NE(end, std::string::npos) << name;
    const std::string record = report.substr(at, end - at);
    EXPECT_TRUE(test_json::has_key(record, "final_distance")) << record;
    EXPECT_FALSE(test_json::has_entry(record, "final_distance", "null"))
        << record;
    EXPECT_TRUE(test_json::has_entry(record, "chains", "2")) << record;
    EXPECT_TRUE(test_json::has_key(record, "best_chain")) << record;
    EXPECT_TRUE(test_json::has_key(record, "attempts")) << record;
    EXPECT_FALSE(test_json::has_entry(record, "attempts", "0")) << record;
  }
  EXPECT_LT(report.find("\"target.2k\""), report.find("\"target.3k\""));
}

// The whole point of the observability layer: asking for telemetry must
// not change a single output byte.
TEST_F(ToolCliTest, TelemetryDoesNotPerturbOutput) {
  const std::string common = "generate --d 2 --method targeting --from-2k '" +
                             path("g.2k") + "' --seed 17 --chains 2 --out '";
  ASSERT_EQ(run(common + path("bare.edges") + "'"), 0);
  ASSERT_EQ(run(common + path("observed.edges") + "' --report '" +
                path("o.json") + "' --trace '" + path("o_trace.json") +
                "' --progress"),
            0);
  EXPECT_EQ(slurp(path("bare.edges")), slurp(path("observed.edges")));
}

TEST_F(ToolCliTest, QuietSilencesStatusButNotDataOrReport) {
  const int code = run("generate --d 2 --method targeting --from-2k '" +
                       path("g.2k") + "' --seed 5 --out '" +
                       path("q.edges") + "' --report '" + path("q.json") +
                       "' --quiet --progress");
  EXPECT_EQ(code, 0);
  EXPECT_EQ(stderr_log(), "");                 // no status chatter
  EXPECT_TRUE(fs::exists(path("q.edges")));    // data still written
  const std::string report = slurp(path("q.json"));
  EXPECT_TRUE(test_json::is_valid_json(report)) << report;  // report too
}

TEST_F(ToolCliTest, ReportIsWrittenOnFailure) {
  EXPECT_EQ(run("analyze '" + path("missing.edges") + "' --report '" +
                path("fail.json") + "'"),
            3);
  const std::string report = slurp(path("fail.json"));
  EXPECT_TRUE(test_json::is_valid_json(report)) << report;
  EXPECT_TRUE(test_json::has_entry(report, "exit_code", "3"));
  EXPECT_NE(report.find("missing.edges"), std::string::npos);  // the error
}

}  // namespace
}  // namespace orbis
