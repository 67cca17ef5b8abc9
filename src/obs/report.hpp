// Machine-readable run reports (docs/observability.md, "Report
// schema").
//
// A RunReport is the durable record of one tool invocation: what was
// asked (command, argv, resolved config, seed), on what (host context —
// cores, affinity-aware worker count, SIMD build, compiler), what
// happened (per-stage RewiringStats, checkpoint legs, objective
// trajectory, metrics scrape, peak RSS) and how it ended (exit code,
// interrupted flag, error).  write_run_report() publishes it through
// io::AtomicFileWriter, so a report file is never half-written even if
// the run is killed mid-flush.
//
// write_stats_json() is THE serializer for gen::RewiringStats — the
// report writer, orbis_tool summaries and the golden-schema tests all
// go through it, so a field added to RewiringStats shows up everywhere
// or nowhere (tests/obs/test_report.cpp pins the field list).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "gen/rewiring.hpp"
#include "obs/json.hpp"
#include "obs/progress.hpp"

namespace orbis::obs {

/// Where and how this process ran: enough to interpret (and re-run) the
/// numbers in the report.
struct HostContext {
  unsigned hardware_concurrency = 0;
  /// exec::resolve_workers(0): honors the process affinity mask, so in
  /// a container pinned to 2 of 64 cores this says 2.
  std::size_t available_workers = 0;
  int simd = 0;            ///< 1 iff FlatTable's grouped probe is compiled in
  std::string compiler;    ///< e.g. "gcc 12.2.0"
};

HostContext collect_host_context();

/// Peak resident set size of this process in bytes (getrusage); 0 when
/// unavailable.
std::uint64_t peak_rss_bytes();

/// Serializes a RewiringStats as a JSON object (attempts, accepted, the
/// rejection partition, acceptance_rate).
void write_stats_json(json::Writer& w, const gen::RewiringStats& stats);

/// One completed phase of the run: a targeting/randomize stage, with
/// its stats and (for targeting) final distance.
struct StageRecord {
  std::string name;  ///< "target.2k", "target.3k", "randomize", ...
  gen::RewiringStats stats;
  double final_distance = 0.0;
  bool has_distance = false;
  std::size_t chains = 1;
  std::size_t best_chain = 0;
  double duration_seconds = 0.0;
};

/// One checkpoint leg of a checkpointed run (gen/checkpoint.hpp):
/// recorded at the boundary, after the flush.
struct LegRecord {
  std::uint64_t leg = 0;
  std::uint64_t attempts_done = 0;  ///< per chain, cumulative
  double best_distance = 0.0;
  gen::RewiringStats stats;  ///< cumulative, summed over chains
  double duration_seconds = 0.0;
};

/// Identity of one trajectory lane (PR 9 follow-up): which replica the
/// points belong to, and — for laddered runs — the replica's FINAL
/// Metropolis temperature (the adaptive controller may have moved it
/// from its initial rung).  Lanes are matched to the recorder's lanes
/// by index; a missing entry serializes as the bare index.
struct TrajectoryLane {
  std::uint32_t lane = 0;
  double temperature = 0.0;
  bool has_temperature = false;  ///< false for non-laddered runs
};

struct RunReport {
  std::string tool = "orbis_tool";
  std::string command;
  std::vector<std::string> argv;
  /// Resolved configuration, in insertion order (values pre-rendered to
  /// strings by the caller — the report records what the run USED, not
  /// what was typed).
  std::vector<std::pair<std::string, std::string>> config;
  std::uint64_t seed = 0;
  bool has_seed = false;

  std::vector<StageRecord> stages;
  std::vector<LegRecord> legs;
  /// Borrowed; may be null.  Serialized as one labeled object per lane
  /// ({"lane", "temperature"?, "points"}), enriched from
  /// `trajectory_lanes` below.
  const TrajectoryRecorder* trajectory = nullptr;
  /// Per-lane identity for the trajectory (replica index + ladder
  /// temperature); may be shorter than the recorder's lane count.
  std::vector<TrajectoryLane> trajectory_lanes;
  /// Files the run published (graphs, distributions, checkpoints).
  std::vector<std::string> outputs;

  int exit_code = 0;
  bool interrupted = false;
  std::string error;  ///< non-empty iff the run failed
  double wall_seconds = 0.0;
};

/// Serializes the report plus everything sampled at write time: host
/// context, the global metrics scrape and peak RSS.
void write_run_report_json(std::ostream& out, const RunReport& report);

/// Same, atomically to `path` (io::AtomicFileWriter protocol).
void write_run_report(const std::string& path, const RunReport& report);

}  // namespace orbis::obs
