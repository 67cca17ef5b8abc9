// Run-report golden schema (src/obs/report.hpp): the JSON document
// parses, carries every top-level section, and the RewiringStats
// serialization pins its exact field list — write_stats_json is THE
// serializer, so a field added to RewiringStats must show up here.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "gen/rewiring.hpp"
#include "obs/progress.hpp"
#include "obs/report.hpp"
#include "json_checker.hpp"

namespace orbis::obs {
namespace {

gen::RewiringStats sample_stats() {
  gen::RewiringStats stats;
  stats.attempts = 1000;
  stats.accepted = 400;
  stats.rejected_structural = 250;
  stats.rejected_constraint = 150;
  stats.rejected_objective = 200;
  return stats;
}

// The exact key set of a serialized RewiringStats.  This list is the
// contract: extending RewiringStats without updating write_stats_json
// (and this test) is a bug in the "everywhere or nowhere" sense.
TEST(RunReport, StatsSerializationPinsFieldList) {
  std::ostringstream out;
  json::Writer w(out);
  write_stats_json(w, sample_stats());
  const std::string doc = out.str();

  ASSERT_TRUE(test_json::is_valid_json(doc)) << doc;
  const char* expected_keys[] = {
      "attempts",           "accepted",           "rejected_structural",
      "rejected_constraint", "rejected_objective", "acceptance_rate"};
  for (const char* key : expected_keys) {
    EXPECT_TRUE(test_json::has_key(doc, key)) << "missing " << key;
  }
  // Exactly six fields — a new one must be added deliberately.
  std::size_t colons = 0;
  for (const char c : doc) colons += c == ':';
  EXPECT_EQ(colons, 6u);
  EXPECT_TRUE(test_json::has_entry(doc, "attempts", "1000"));
  EXPECT_TRUE(test_json::has_entry(doc, "accepted", "400"));
}

RunReport sample_report(const TrajectoryRecorder* trajectory) {
  RunReport report;
  report.command = "generate";
  report.argv = {"orbis_tool", "generate", "--d", "2"};
  report.config = {{"d", "2"}, {"method", "targeting"}};
  report.seed = 7;
  report.has_seed = true;

  StageRecord stage;
  stage.name = "target.2k";
  stage.stats = sample_stats();
  stage.final_distance = 12.0;
  stage.has_distance = true;
  stage.chains = 2;
  stage.best_chain = 1;
  stage.duration_seconds = 0.5;
  report.stages.push_back(stage);

  LegRecord leg;
  leg.leg = 1;
  leg.attempts_done = 3000;
  leg.best_distance = 40.0;
  leg.stats = sample_stats();
  leg.duration_seconds = 0.1;
  report.legs.push_back(leg);

  report.trajectory = trajectory;
  report.outputs = {"out.edges"};
  report.exit_code = 0;
  report.wall_seconds = 1.25;
  return report;
}

TEST(RunReport, GoldenSchema) {
  TrajectoryRecorder trajectory;
  ProgressSample sample;
  sample.attempts = 1024;
  sample.objective = 99.0;
  sample.has_objective = true;
  trajectory.report(0, sample);

  std::ostringstream out;
  write_run_report_json(out, sample_report(&trajectory));
  const std::string doc = out.str();

  ASSERT_TRUE(test_json::is_valid_json(doc)) << doc;
  const char* sections[] = {
      "schema_version", "tool",     "command",  "argv",
      "seed",           "config",   "host",     "stages",
      "legs",           "trajectory", "outputs", "metrics",
      "peak_rss_bytes", "wall_seconds", "interrupted",
      "exit_code",      "error"};
  for (const char* key : sections) {
    EXPECT_TRUE(test_json::has_key(doc, key)) << "missing " << key;
  }
  // Host context subsections and the metrics scrape envelope.
  EXPECT_TRUE(test_json::has_key(doc, "hardware_concurrency"));
  EXPECT_TRUE(test_json::has_key(doc, "available_workers"));
  EXPECT_TRUE(test_json::has_key(doc, "simd"));
  EXPECT_TRUE(test_json::has_key(doc, "compiler"));
  EXPECT_TRUE(test_json::has_key(doc, "counters"));
  EXPECT_TRUE(test_json::has_key(doc, "gauges"));
  EXPECT_TRUE(test_json::has_key(doc, "histograms"));
  // The stage and leg payloads.
  EXPECT_TRUE(test_json::has_entry(doc, "name", "\"target.2k\""));
  EXPECT_TRUE(test_json::has_entry(doc, "best_chain", "1"));
  EXPECT_TRUE(test_json::has_entry(doc, "attempts_done", "3000"));
  // The recorded trajectory point, inside a labeled lane object.
  EXPECT_TRUE(test_json::has_entry(doc, "objective", "99"));
  EXPECT_TRUE(test_json::has_entry(doc, "lane", "0"));
  EXPECT_TRUE(test_json::has_key(doc, "points"));
}

TEST(RunReport, LadderedTrajectoryLanesCarryReplicaTemperatures) {
  TrajectoryRecorder trajectory;
  ProgressSample sample;
  sample.attempts = 10;
  sample.objective = 5.0;
  sample.has_objective = true;
  trajectory.report(0, sample);
  trajectory.report(1, sample);

  RunReport report = sample_report(&trajectory);
  report.trajectory_lanes = {
      {.lane = 0, .temperature = 0.25, .has_temperature = true},
      {.lane = 1, .temperature = 1.5, .has_temperature = true},
  };
  std::ostringstream out;
  write_run_report_json(out, report);
  const std::string doc = out.str();

  ASSERT_TRUE(test_json::is_valid_json(doc)) << doc;
  EXPECT_TRUE(test_json::has_entry(doc, "lane", "1"));
  EXPECT_TRUE(test_json::has_entry(doc, "temperature", "0.25"));
  EXPECT_TRUE(test_json::has_entry(doc, "temperature", "1.5"));
}

TEST(RunReport, NonLadderedLanesOmitTemperature) {
  TrajectoryRecorder trajectory;
  ProgressSample sample;
  sample.attempts = 10;
  sample.objective = 5.0;
  sample.has_objective = true;
  trajectory.report(0, sample);

  RunReport report = sample_report(&trajectory);
  report.trajectory_lanes = {
      {.lane = 0, .temperature = 0.0, .has_temperature = false}};
  std::ostringstream out;
  write_run_report_json(out, report);
  const std::string doc = out.str();
  ASSERT_TRUE(test_json::is_valid_json(doc)) << doc;
  EXPECT_FALSE(test_json::has_key(doc, "temperature"));
}

TEST(RunReport, NoSeedAndNoTrajectorySerializeAsNull) {
  RunReport report = sample_report(nullptr);
  report.has_seed = false;
  std::ostringstream out;
  write_run_report_json(out, report);
  const std::string doc = out.str();
  ASSERT_TRUE(test_json::is_valid_json(doc)) << doc;
  EXPECT_TRUE(test_json::has_entry(doc, "seed", "null"));
  EXPECT_TRUE(test_json::has_entry(doc, "trajectory", "null"));
  EXPECT_TRUE(test_json::has_entry(doc, "error", "null"));
}

TEST(RunReport, ErrorAndInterruptAreRecorded) {
  RunReport report = sample_report(nullptr);
  report.exit_code = 130;
  report.interrupted = true;
  report.error = "caught signal 2";
  std::ostringstream out;
  write_run_report_json(out, report);
  const std::string doc = out.str();
  ASSERT_TRUE(test_json::is_valid_json(doc)) << doc;
  EXPECT_TRUE(test_json::has_entry(doc, "exit_code", "130"));
  EXPECT_TRUE(test_json::has_entry(doc, "interrupted", "true"));
  EXPECT_TRUE(test_json::has_entry(doc, "error", "\"caught signal 2\""));
}

TEST(RunReport, HostContextIsPopulated) {
  const HostContext host = collect_host_context();
  EXPECT_GE(host.available_workers, 1u);
  EXPECT_FALSE(host.compiler.empty());
  EXPECT_TRUE(host.simd == 0 || host.simd == 1);
}

}  // namespace
}  // namespace orbis::obs
