// End-to-end smoke of the orbis_server binary over its line-delimited
// JSON protocol: every emitted line is valid JSON, the extract
// miss/hit cycle produces artifacts byte-identical to `orbis_tool
// extract`, malformed lines answer with an error event without
// killing the session, and "shutdown" acks with "bye".  Needs the
// example binaries: CMake exports ORBIS_SERVER_BIN / ORBIS_TOOL_BIN;
// skipped when the examples are not built.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gen/rewiring.hpp"
#include "graph/builders.hpp"
#include "io/edge_list.hpp"
#include "svc/server.hpp"
#include "util/rng.hpp"
#include "../obs/json_checker.hpp"

namespace orbis {
namespace {

namespace fs = std::filesystem;

class ServerCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* server = std::getenv("ORBIS_SERVER_BIN");
    if (server == nullptr || !fs::exists(server)) {
      GTEST_SKIP() << "ORBIS_SERVER_BIN not set or missing (examples not "
                      "built)";
    }
    server_ = server;
    const char* tool = std::getenv("ORBIS_TOOL_BIN");
    tool_ = tool == nullptr ? "" : tool;
    dir_ = fs::temp_directory_path() /
           ("orbis_server_cli_test_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);

    util::Rng rng(29);
    io::write_edge_list_file(path("g.edges"), builders::gnm(30, 60, rng));
  }

  void TearDown() override {
    if (!dir_.empty()) fs::remove_all(dir_);
  }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Pipes `requests` (one JSON object per line) into orbis_server and
  /// returns its exit code; stdout lines land in `events`.
  int run_session(const std::vector<std::string>& requests,
                  std::vector<std::string>& events) {
    {
      std::ofstream script(path("requests.jsonl"));
      for (const std::string& request : requests) script << request << '\n';
    }
    const std::string cmd = "'" + server_ + "' --cache-dir '" +
                            path("cache") + "' < '" +
                            path("requests.jsonl") + "' > '" +
                            path("events.jsonl") + "' 2>> '" +
                            path("stderr.log") + "'";
    const int status = std::system(cmd.c_str());
    events.clear();
    std::ifstream in(path("events.jsonl"));
    for (std::string line; std::getline(in, line);) {
      if (!line.empty()) events.push_back(line);
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  static std::string slurp(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  static bool any_line_has(const std::vector<std::string>& events,
                           const std::string& key,
                           const std::string& value) {
    for (const std::string& line : events) {
      if (test_json::has_entry(line, key, value)) return true;
    }
    return false;
  }

  std::string server_;
  std::string tool_;
  fs::path dir_;
};

TEST_F(ServerCliTest, SessionSpeaksValidJsonAndExitsCleanly) {
  std::vector<std::string> events;
  const int exit_code = run_session(
      {R"({"op":"extract","path":")" + path("g.edges") +
           R"(","out":")" + path("a") + R"(","d":2,"tag":"e1"})",
       R"({"op":"wait","job":1})",
       R"({"op":"shutdown"})"},
      events);
  EXPECT_EQ(exit_code, 0);
  ASSERT_FALSE(events.empty());
  for (const std::string& line : events) {
    EXPECT_TRUE(test_json::is_valid_json(line)) << line;
  }
  EXPECT_TRUE(any_line_has(events, "tag", "\"e1\""));
  EXPECT_TRUE(any_line_has(events, "event", "\"done\""));
  EXPECT_TRUE(any_line_has(events, "event", "\"bye\""));
}

TEST_F(ServerCliTest, ExtractMissThenHitMatchesOrbisToolByteForByte) {
  if (tool_.empty() || !fs::exists(tool_)) {
    GTEST_SKIP() << "ORBIS_TOOL_BIN not set or missing";
  }
  // Ground truth straight from the CLI extractor (positional form;
  // always writes the full .1k/.2k/.3k set).
  const std::string tool_cmd = "'" + tool_ + "' extract '" +
                               path("g.edges") + "' '" + path("ref") +
                               "' > /dev/null 2>&1";
  ASSERT_EQ(std::system(tool_cmd.c_str()), 0);

  std::vector<std::string> events;
  const int exit_code = run_session(
      {R"({"op":"extract","path":")" + path("g.edges") +
           R"(","out":")" + path("m") + R"(","d":3})",
       R"({"op":"extract","path":")" + path("g.edges") +
           R"(","out":")" + path("h") + R"(","d":3})",
       R"({"op":"wait","job":1})",
       R"({"op":"wait","job":2})",
       R"({"op":"shutdown"})"},
      events);
  EXPECT_EQ(exit_code, 0);
  EXPECT_TRUE(any_line_has(events, "cache", "\"miss\""));
  EXPECT_TRUE(any_line_has(events, "cache", "\"hit\""));

  for (const char* suffix : {".1k", ".2k", ".3k"}) {
    const std::string reference = slurp(path("ref") + suffix);
    ASSERT_FALSE(reference.empty()) << suffix;
    EXPECT_EQ(slurp(path("m") + suffix), reference) << suffix;
    EXPECT_EQ(slurp(path("h") + suffix), reference) << suffix;
  }
}

TEST_F(ServerCliTest, GenerateRoundTripOverTheProtocol) {
  std::vector<std::string> events;
  const int exit_code = run_session(
      {R"({"op":"extract","path":")" + path("g.edges") +
           R"(","out":")" + path("dk") + R"(","d":2})",
       R"({"op":"wait","job":1})",
       R"({"op":"generate","target":")" + path("dk") +
           R"(","out":")" + path("out.edges") +
           R"(","d":2,"seed":7,"attempts":2000})",
       R"({"op":"wait","job":2})",
       R"({"op":"shutdown"})"},
      events);
  EXPECT_EQ(exit_code, 0);
  EXPECT_TRUE(any_line_has(events, "event", "\"leg\""));
  ASSERT_TRUE(fs::exists(path("out.edges")));
  EXPECT_EQ(io::read_edge_list_file(path("out.edges")).graph.num_edges(),
            60u);
}

TEST_F(ServerCliTest, WrappingAttemptBudgetFailsTheJobWithATypedError) {
  // attempts_per_edge passes the wire's int64 check, but times the
  // target's 60 edges it wraps 64 bits: the job must fail naming the
  // overflow, not run a wrapped budget to "done".
  std::vector<std::string> events;
  const int exit_code = run_session(
      {R"({"op":"extract","path":")" + path("g.edges") +
           R"(","out":")" + path("dk") + R"(","d":2})",
       R"({"op":"wait","job":1})",
       R"({"op":"generate","target":")" + path("dk") +
           R"(","out":")" + path("out.edges") +
           R"(","d":2,"attempts_per_edge":4611686018427387904})",
       R"({"op":"wait","job":2})",
       R"({"op":"shutdown"})"},
      events);
  EXPECT_EQ(exit_code, 0);
  std::vector<std::string> job2_done;
  for (const std::string& line : events) {
    EXPECT_TRUE(test_json::is_valid_json(line)) << line;
    if (test_json::has_entry(line, "event", "\"done\"") &&
        test_json::has_entry(line, "job", "2")) {
      job2_done.push_back(line);
    }
  }
  ASSERT_EQ(job2_done.size(), 1u);
  EXPECT_TRUE(test_json::has_entry(job2_done[0], "status", "\"failed\""))
      << job2_done[0];
  EXPECT_NE(job2_done[0].find("overflows the 64-bit attempt budget"),
            std::string::npos)
      << job2_done[0];
  EXPECT_FALSE(fs::exists(path("out.edges")));
}

TEST_F(ServerCliTest, MalformedLineAnswersErrorAndSessionContinues) {
  std::vector<std::string> events;
  const int exit_code = run_session(
      {"this is not json",
       R"({"op":"frobnicate"})",
       R"({"op":"metrics","path":")" + path("g.edges") +
           R"(","spectrum":false})",
       R"({"op":"wait","job":1})",
       R"({"op":"shutdown"})"},
      events);
  EXPECT_EQ(exit_code, 0);
  std::size_t errors = 0;
  bool saw_scalars = false;
  for (const std::string& line : events) {
    EXPECT_TRUE(test_json::is_valid_json(line)) << line;
    errors += test_json::has_entry(line, "event", "\"error\"");
    saw_scalars = saw_scalars || test_json::has_key(line, "gcc_nodes");
  }
  EXPECT_EQ(errors, 2u);  // bad JSON + unknown op
  EXPECT_TRUE(any_line_has(events, "event", "\"done\""));
  EXPECT_TRUE(saw_scalars);
}

TEST_F(ServerCliTest, NegativeCountsAreRejectedBeforeAcceptance) {
  // Counts would wrap to huge unsigned values (a 2^64-1 budget, a
  // vector of 2^64 chains), and "workers" other than 1 asks for the
  // removed speculative path; each must answer with an error line and
  // never reach the job table.
  const std::string generate = R"({"op":"generate","target":")" +
                               path("dk") + R"(","out":")" +
                               path("out.edges") + R"(","d":2,)";
  const std::vector<std::string> fields = {
      R"("chains":-1})",           R"("workers":-1})",
      R"("workers":2})",           R"("attempts":-5})",
      R"("attempts_per_edge":-1})", R"("checkpoint_every":-1})"};
  std::vector<std::string> requests;
  for (const std::string& field : fields) requests.push_back(generate + field);
  requests.push_back(R"({"op":"shutdown"})");

  std::vector<std::string> events;
  EXPECT_EQ(run_session(requests, events), 0);
  std::size_t errors = 0;
  bool named_workers = false;
  for (const std::string& line : events) {
    EXPECT_TRUE(test_json::is_valid_json(line)) << line;
    errors += test_json::has_entry(line, "event", "\"error\"");
    named_workers = named_workers ||
                    line.find("workers must be 1") != std::string::npos;
  }
  EXPECT_EQ(errors, fields.size());
  EXPECT_TRUE(named_workers);
  EXPECT_FALSE(any_line_has(events, "event", "\"accepted\""));
  EXPECT_TRUE(any_line_has(events, "event", "\"bye\""));
}

TEST_F(ServerCliTest, OversizedChainCountsAreRejectedBeforeAcceptance) {
  // Each chain copies the graph, so "chains" sizes memory: a count past
  // gen::kMaxChains answers with an error naming the field and never
  // reaches the job table.  Only refused values are sent.
  const std::string generate = R"({"op":"generate","target":")" +
                               path("dk") + R"(","out":")" +
                               path("out.edges") + R"(","d":2,"chains":)";
  const std::vector<std::string> counts = {
      "4294967296", std::to_string(gen::kMaxChains + 1)};
  std::vector<std::string> requests;
  for (const std::string& count : counts) {
    requests.push_back(generate + count + "}");
  }
  requests.push_back(R"({"op":"shutdown"})");

  std::vector<std::string> events;
  EXPECT_EQ(run_session(requests, events), 0);
  std::vector<std::string> errors;
  for (const std::string& line : events) {
    EXPECT_TRUE(test_json::is_valid_json(line)) << line;
    if (test_json::has_entry(line, "event", "\"error\"")) {
      errors.push_back(line);
    }
  }
  ASSERT_EQ(errors.size(), counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_NE(errors[i].find("field \\\"chains\\\" must be at most " +
                             std::to_string(gen::kMaxChains)),
              std::string::npos)
        << errors[i];
    EXPECT_NE(errors[i].find(counts[i]), std::string::npos) << errors[i];
  }
  EXPECT_FALSE(any_line_has(events, "event", "\"accepted\""));
  EXPECT_TRUE(any_line_has(events, "event", "\"bye\""));
}

TEST_F(ServerCliTest, OversizedAttemptBudgetsAreRejectedBeforeAcceptance) {
  // A budget past svc::kMaxAttempts fits 64 bits, so nothing else would
  // stop it: the job would run until cancelled.  The line answers with
  // an error naming the field and the bound, and no job is accepted.
  // Only refused values are sent.
  const std::string generate = R"({"op":"generate","target":")" +
                               path("dk") + R"(","out":")" +
                               path("out.edges") + R"(","d":2,"attempts":)";
  const std::vector<std::string> budgets = {
      "4611686018427387904", std::to_string(svc::kMaxAttempts + 1)};
  std::vector<std::string> requests;
  for (const std::string& budget : budgets) {
    requests.push_back(generate + budget + "}");
  }
  requests.push_back(R"({"op":"shutdown"})");

  std::vector<std::string> events;
  EXPECT_EQ(run_session(requests, events), 0);
  std::vector<std::string> errors;
  for (const std::string& line : events) {
    EXPECT_TRUE(test_json::is_valid_json(line)) << line;
    if (test_json::has_entry(line, "event", "\"error\"")) {
      errors.push_back(line);
    }
  }
  ASSERT_EQ(errors.size(), budgets.size());
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    EXPECT_NE(errors[i].find("field \\\"attempts\\\" must be at most " +
                             std::to_string(svc::kMaxAttempts)),
              std::string::npos)
        << errors[i];
    EXPECT_NE(errors[i].find(budgets[i]), std::string::npos) << errors[i];
  }
  EXPECT_FALSE(any_line_has(events, "event", "\"accepted\""));
  EXPECT_TRUE(any_line_has(events, "event", "\"bye\""));
}

TEST_F(ServerCliTest, UnknownRequestFieldsAreRejectedBeforeAcceptance) {
  // A retired field (memory_budget_mb) and a typo ("chain" for
  // "chains") each answer with an error naming the field; neither job
  // is accepted, so the job table stays empty (status of job 1 fails).
  const std::string generate = R"({"op":"generate","target":")" +
                               path("dk") + R"(","out":")" +
                               path("out.edges") + R"(","d":2,)";
  std::vector<std::string> events;
  EXPECT_EQ(run_session({generate + R"("memory_budget_mb":512})",
                         generate + R"("chain":2})",
                         R"({"op":"status","job":1})",
                         R"({"op":"shutdown"})"},
                        events),
            0);
  std::vector<std::string> errors;
  for (const std::string& line : events) {
    EXPECT_TRUE(test_json::is_valid_json(line)) << line;
    if (test_json::has_entry(line, "event", "\"error\"")) {
      errors.push_back(line);
    }
  }
  ASSERT_EQ(errors.size(), 3u);
  EXPECT_NE(errors[0].find("memory_budget_mb"), std::string::npos);
  EXPECT_NE(errors[1].find("\\\"chain\\\""), std::string::npos);
  EXPECT_NE(errors[2].find("unknown job id 1"), std::string::npos);
  EXPECT_FALSE(any_line_has(events, "event", "\"accepted\""));
  EXPECT_TRUE(any_line_has(events, "event", "\"bye\""));
}

TEST_F(ServerCliTest, NonIntegralOrWideNumbersAreRejectedBeforeAcceptance) {
  // Truncating casts once accepted d 4294967298 as d 2, d 2.9 as 2,
  // chains 0.5 as 0 (autotune fan-out), and read job 1.9 as job 1, so a
  // cancel with it stopped job 1.  Each line below must answer an
  // error, and job 1 must run to completion.
  const std::string generate = R"({"op":"generate","target":")" +
                               path("dk") + R"(","out":")" +
                               path("out.edges") + R"(",)";
  const std::vector<std::string> rejected = {
      R"({"op":"cancel","job":1.9})",
      R"({"op":"status","job":1.9})",
      generate + R"("d":4294967298})",
      generate + R"("d":2.9,"chains":0.5})",
      generate + R"("d":2,"chains":0.5})",
  };
  std::vector<std::string> requests = {
      R"({"op":"extract","path":")" + path("g.edges") + R"(","out":")" +
      path("dk") + R"(","d":2})"};
  requests.insert(requests.end(), rejected.begin(), rejected.end());
  requests.push_back(R"({"op":"wait","job":1})");
  requests.push_back(R"({"op":"shutdown"})");

  std::vector<std::string> events;
  EXPECT_EQ(run_session(requests, events), 0);
  std::size_t errors = 0;
  std::size_t accepted = 0;
  for (const std::string& line : events) {
    EXPECT_TRUE(test_json::is_valid_json(line)) << line;
    errors += test_json::has_entry(line, "event", "\"error\"");
    accepted += test_json::has_entry(line, "event", "\"accepted\"");
  }
  EXPECT_EQ(errors, rejected.size());
  EXPECT_EQ(accepted, 1u);  // the extract, job 1
  bool job_1_done = false;
  for (const std::string& line : events) {
    if (test_json::has_entry(line, "event", "\"status\"")) {
      EXPECT_TRUE(test_json::has_entry(line, "job", "1")) << line;
      job_1_done = test_json::has_entry(line, "state", "\"done\"");
    }
  }
  EXPECT_TRUE(job_1_done);
  EXPECT_TRUE(any_line_has(events, "event", "\"bye\""));
}

TEST_F(ServerCliTest, UnknownCommandLineFlagExitsUsage) {
  // A misspelled or retired flag is a usage error, never ignored.
  const std::string cmd = "'" + server_ + "' --cache-dir '" + path("cache") +
                          "' --wrokers 2 < /dev/null 2> '" +
                          path("usage.log") + "'";
  const int status = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);
  EXPECT_NE(slurp(path("usage.log")).find("unknown flag --wrokers"),
            std::string::npos);
}

TEST_F(ServerCliTest, EofWithoutShutdownIsACleanClose) {
  std::vector<std::string> events;
  EXPECT_EQ(run_session({}, events), 0);
  EXPECT_TRUE(events.empty());
}

}  // namespace
}  // namespace orbis
