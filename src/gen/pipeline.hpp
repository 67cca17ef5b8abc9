// The paper's §5.1 construction as ONE resumable stage machine: a 1K
// seed, then 2K targeting legs, then (d = 3) 3K targeting legs, all on
// the leg driver of gen/checkpoint.hpp with one chain set (independent
// chains or a replica ladder).  generate_dk_random, `orbis_tool
// generate` and svc::Server (one step() per slice) all drive it, so one
// request gives one graph:
//
//   * Rng order: the seeding Rng draws matching_1k, then one next() for
//     the 2K chain master, then (d = 3) one next() for the 3K master;
//     chain i is seeded master.stream(i), also for a single chain.
//   * Cadence: checkpoint_every, or max(budget / 8, 1) when it is 0.  It
//     is only how often the state is published (gen/checkpoint.hpp):
//     every cadence gives the same graph.
//   * The 3K stage starts from the 2K stage's best chain and inherits
//     its chain count, budget, cadence, move kind and ladder.
//
// The run's svc::RunContext is fixed at construction: ctx.chains chains
// per stage (0 = autotune) and ctx.stop / ctx.progress for every leg.
// Its seed is not read: the caller passes the Rng.
//
// The RunCheckpoint covers every stage (`d` is the current stage,
// `final_d` the run's, `pipeline_rng` the seeding Rng), so a d = 3 run
// killed inside its 2K stage resumes bit-identically.
#pragma once

#include <cstdint>
#include <vector>

#include "core/series.hpp"
#include "gen/anneal.hpp"
#include "gen/checkpoint.hpp"
#include "svc/run_context.hpp"
#include "util/rng.hpp"

namespace orbis::gen {

struct PipelineOptions {
  int d = 2;  ///< the run's final series level: 2 or 3
  /// Chain parameters for every stage: budget, temperature, move mix.
  TargetingOptions targeting{};
  /// replicas >= 2 runs every stage as a replica-exchange ladder
  /// instead of independent chains (ctx.chains must then be 0); 0 = no
  /// ladder.
  LadderOptions ladder{};
  /// 0 = max(budget / 8, 1) on a fresh run, the file's on a resume.
  std::uint64_t checkpoint_every = 0;
};

/// One completed targeting stage (result.graph is left empty).
struct PipelineStage {
  int d = 2;
  std::size_t chains = 0;
  double seconds = 0.0;  ///< wall time spent in this process
  CheckpointedResult result;
};

class Pipeline {
 public:
  /// Fresh run: rejects option combinations that cannot work
  /// (std::invalid_argument) before any stage runs, then draws the 1K
  /// seed from `rng` and sets up the 2K stage.  `target` is borrowed.
  Pipeline(const dk::DkDistributions& target, PipelineOptions options,
           util::Rng rng, const svc::RunContext& ctx = {});

  /// Resume from a checkpoint of any stage.  `options` must be the ones
  /// the run started with; chains, move and ladder come from the
  /// checkpoint, and so does the cadence unless options.checkpoint_every
  /// is set.
  Pipeline(const dk::DkDistributions& target, PipelineOptions options,
           RunCheckpoint checkpoint, const svc::RunContext& ctx = {});

  /// Runs one leg, moving on to the next stage when this one ends.
  bool step(const CheckpointOptions& checkpointing);
  /// Runs to the end or to a stop request.  Both return finished().
  bool run(const CheckpointOptions& checkpointing);

  bool finished() const noexcept {
    return !stages_.empty() && stages_.back().d == run_.final_d;
  }
  /// The current stage's state, always at a leg boundary.
  const RunCheckpoint& checkpoint() const noexcept { return run_; }
  /// Stages completed by this object, in order.
  const std::vector<PipelineStage>& stages() const noexcept {
    return stages_;
  }
  /// The leg driver's result of the last call (best chain, distance,
  /// stats, `interrupted`).  Its graph is left empty: see graph().
  const CheckpointedResult& result() const noexcept { return last_; }
  /// The best chain's graph at the last leg boundary; the final graph
  /// once finished().
  const Graph& graph() const noexcept {
    return run_.chains[last_.best_chain].graph;
  }
  /// The seeding Rng after every draw so far (throws if the checkpoint
  /// was not made by a Pipeline).
  util::Rng rng() const {
    return util::Rng::from_state_words(run_.pipeline_rng);
  }

 private:
  void advance(const CheckpointOptions& checkpointing);

  const dk::DkDistributions& target_;
  PipelineOptions options_;
  svc::RunContext ctx_;
  RunCheckpoint run_;
  /// The current stage's engines, carried across advance() calls so a
  /// one-leg step() builds no engine (gen/checkpoint.hpp).
  ChainEngines engines_;
  CheckpointedResult last_;
  double stage_seconds_ = 0.0;
  std::vector<PipelineStage> stages_;
};

}  // namespace orbis::gen
