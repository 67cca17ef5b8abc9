// Checkpoint/resume for long targeting runs (docs/robustness.md).
//
// A checkpointed run is structured as LEGS of `checkpoint_every`
// attempts.  At every leg boundary each chain's state is its canonical
// form — the graph's adjacency ROWS (Graph::from_rows keeps them
// verbatim), the Rng's four state words, the cumulative RewiringStats
// and the attempt count.  That form is complete: every proposal draw
// reads only the rows and the Rng (graph/edge_index.hpp), and every
// other piece of chain state (the ΔD2 matrix, the 3K residual and D3)
// is a function of the edge set and the target.  So an engine rebuilt
// from a boundary's rows continues exactly as the live one would, and
//
//   one leg  ==  any number of legs  ==  kill at ANY boundary + resume,
//
// bit-identical final graph, distance and stats.  `checkpoint_every` is
// therefore only how often the state is published (and written to
// disk), not part of the run: a resume may use any cadence.
//
// Each chain's engine (2K or 3K) is carried from leg to leg
// (ChainEngines), which saves its rebuild and nothing else.  A leg that
// is discarded by a stop drops the carried engines, a ladder exchange
// that trades configurations between replicas moves them with the
// graphs, and a finished stage frees them.
//
// Execution context: the driver takes the run's svc::RunContext.  It
// polls ctx.stop between legs and passes it into the leg bodies; chain
// i's legs get a copy of the context whose progress sink reports on
// lane i (obs::ProgressLane).  A stop mid-leg discards that leg's
// partial work — the RunCheckpoint snaps back to the last completed
// boundary — so an interrupt can never publish mid-leg state.
//
// File format and I/O live in io/checkpoint_io.hpp; this header is the
// in-memory model and the leg driver.  gen/pipeline.hpp strings the
// legs of the 2K and 3K stages into the paper's one 1K->2K->3K run.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "core/joint_degree_distribution.hpp"
#include "core/three_k_profile.hpp"
#include "gen/rewiring.hpp"
#include "gen/rewiring_engine.hpp"
#include "graph/graph.hpp"
#include "svc/run_context.hpp"
#include "util/rng.hpp"

namespace orbis::exec {
class ThreadPool;
}

namespace orbis::gen {

/// Canonical state of one chain at a leg boundary.
struct ChainCheckpoint {
  std::uint64_t attempts_done = 0;
  std::array<std::uint64_t, 4> rng_state{};  // util::Rng::state_words
  RewiringStats stats;                       // cumulative over all legs
  /// Exact integer D_d after the last completed leg; the max sentinel
  /// marks a chain that has not run yet (the objective rebuild computes
  /// the true distance on first contact).
  std::int64_t distance = std::numeric_limits<std::int64_t>::max();
  /// Laddered (replica-exchange) runs only: this replica's CURRENT
  /// Metropolis temperature — run state, because the adaptive controller
  /// moves it between epochs (docs/annealing.md).  Non-laddered runs
  /// keep using TargetingOptions::temperature and ignore this field.
  double temperature = 0.0;
  Graph graph;
};

/// Everything a resume needs, minus the target distribution (which the
/// caller re-reads from its own file — targets are inputs, not state).
struct RunCheckpoint {
  static constexpr std::uint32_t kVersion = 5;

  int d = 2;        // current stage's series level: 2 | 3
  int final_d = 2;  // the run's (gen::Pipeline); make_*_run sets it to d
  /// gen::Pipeline's seeding Rng after its draws so far; the next stage
  /// draws its chain master from it.  All-zero outside a Pipeline.
  std::array<std::uint64_t, 4> pipeline_rng{};
  std::uint64_t budget = 0;           // total attempts per chain
  /// Leg length, i.e. how often the state is published; 0 = one single
  /// leg.  Not part of the run: any cadence walks the same chains.
  std::uint64_t checkpoint_every = 0;
  /// Proposal move mix, pinned at run start: the move stream is part of
  /// the chains' identity, so a resume must replay it.
  MoveKind move = MoveKind::swap;
  /// Replica-exchange ladder (gen/anneal.hpp): epoch length in attempts
  /// between exchange passes; 0 = independent chains (no ladder).  The
  /// epoch IS part of the run.  When set, `checkpoint_every` is a
  /// multiple of it, so checkpoint boundaries always land on epoch
  /// boundaries and a resume never needs mid-epoch controller state.
  std::uint64_t exchange_every = 0;
  bool adaptive = false;  ///< acceptance-band temperature controller on?
  /// Dedicated exchange-decision Rng (stream kExchangeStreamId of chain
  /// 0's seed state): advanced ONLY by exchange passes, so replica
  /// streams are untouched by ladder size or exchange cadence.
  std::array<std::uint64_t, 4> exchange_rng{};
  std::uint64_t exchange_attempted = 0;  // cumulative, all epochs
  std::uint64_t exchange_accepted = 0;
  std::vector<ChainCheckpoint> chains;

  bool laddered() const noexcept { return exchange_every > 0; }

  /// True once every chain has consumed the full budget.
  bool finished() const noexcept {
    for (const auto& chain : chains) {
      if (chain.attempts_done < budget) return false;
    }
    return !chains.empty();
  }
};

struct CheckpointOptions {
  /// Invoked with the updated RunCheckpoint after every completed leg
  /// (typically: write it to disk via io::write_checkpoint_file).
  std::function<void(const RunCheckpoint&)> on_checkpoint;
  /// Pool the chain legs run on; null = exec::shared_pool().  A test
  /// seam: results are a pure function of the RunCheckpoint, so any
  /// pool (any size) must produce bit-identical runs.
  exec::ThreadPool* pool = nullptr;
  /// Return after this many checkpoint boundaries (0 = run the budget
  /// out).  gen::Pipeline::step uses 1: one leg per call.
  std::size_t max_legs = 0;
};

/// The live engines of one run's chains, carried from one leg to the
/// next: chain i's engine, or null when the next leg must build it (from
/// the chain's rows, which draws exactly as the carried one would).
/// Holds one stage's engines at a time; move-only.
struct ChainEngines {
  /// Frees every engine (the next leg of each chain rebuilds).
  void clear() noexcept {
    target = nullptr;
    two_k.clear();
    three_k.clear();
  }

  /// The stage target the engines run against (the JDD of a 2K stage,
  /// the 3K profile of a 3K stage): another target clears them.
  const void* target = nullptr;
  std::vector<std::unique_ptr<RewiringEngine>> two_k;
  std::vector<std::unique_ptr<ThreeKRewirer>> three_k;
};

struct CheckpointedResult {
  Graph graph;  // best chain's graph at the point the run ended
  std::size_t best_chain = 0;
  double best_distance = 0.0;
  RewiringStats total_stats;  // summed over chains
  bool interrupted = false;   // stopped before the budget ran out
  std::uint64_t attempts_done = 0;  // per chain, at the returned state
};

/// Builds the leg-0 RunCheckpoint for a fresh 2K targeting run: resolves
/// the chain count (ctx.chains, 0 = default_chain_count()) and budget
/// (TargetingOptions), seeds chain i with Rng(rng.next()).stream(i) —
/// one draw from `rng` whatever the chain count — and pins the move
/// mix.  `start` must already have the target's degree sequence.
RunCheckpoint make_2k_run(const Graph& start, const TargetingOptions& options,
                          std::uint64_t checkpoint_every, util::Rng& rng,
                          const svc::RunContext& ctx = {});

/// Same for a 3K targeting run.  `start` must already have the target's
/// JDD.
RunCheckpoint make_3k_run(const Graph& start, const TargetingOptions& options,
                          std::uint64_t checkpoint_every, util::Rng& rng,
                          const svc::RunContext& ctx = {});

/// Runs `state` to completion (or interruption, or `max_legs`
/// boundaries), leg by leg, chains in parallel on the shared pool; the
/// best chain is the lowest distance, ties to the lowest id.  `state`
/// is updated in place and is always left at a leg boundary.  Fresh
/// runs and resumes call the SAME function — a resume is
/// indistinguishable from the uninterrupted run reaching that boundary.
/// `options` must carry the same chain parameters (temperature,
/// stop_distance, move, ...) the run was started with;
/// attempts/attempts_per_edge and move are taken from `state`,
/// which is authoritative.  Each chain's engine is carried from leg to
/// leg: for the length of this call when `engines` is null, across
/// calls when the caller keeps them (gen::Pipeline does, so its one-leg
/// step() builds no engine).  Chains are bit-identical either way.
CheckpointedResult run_checkpointed_2k(
    RunCheckpoint& state, const dk::JointDegreeDistribution& target,
    const TargetingOptions& options, const CheckpointOptions& checkpointing,
    const svc::RunContext& ctx = {}, ChainEngines* engines = nullptr);

/// Same for 3K.
CheckpointedResult run_checkpointed_3k(RunCheckpoint& state,
                                       const dk::ThreeKProfile& target,
                                       const TargetingOptions& options,
                                       const CheckpointOptions& checkpointing,
                                       const svc::RunContext& ctx = {},
                                       ChainEngines* engines = nullptr);

}  // namespace orbis::gen
