// The rewiring engine: high-throughput double-edge-swap machinery built
// on the flat EdgeIndex (O(1) half-edge draws from the CSR rows, O(1)
// duplicate lookup) and the incremental objectives in objective.hpp.
//
// Layering:
//   * RewiringEngine      — 1K-frozen fast paths that never touch a
//                           DkState: randomizing at d=1/2, 2K-targeting
//                           with integer ΔD2, and S exploration.  All
//                           graph state lives in the EdgeIndex.
//   * ThreeKRewirer       — 3K paths that need wedge/triangle
//                           bookkeeping: ONE EdgeIndex holds the
//                           adjacency; DkState binds to it for the
//                           histogram bookkeeping (delta-journal API)
//                           while the engine draws 2K-preserving swap
//                           candidates from the same index's rows
//                           instead of rejection sampling.
//   * randomize_0k        — the one chain on a plain Graph.
//
// Every chain method runs the same attempt loop (rewiring_engine.cpp,
// docs/rewiring.md "The attempt loop"); a mode is only its step, which
// draws one proposal and returns its outcome, and its acceptance rule.
// The loop owns the budget, the early stop, the stop poll and progress
// report every 1024 attempts, the edge guard and the stats tally.
//
// An engine built from graph() continues exactly as the live one would
// (gen/checkpoint.hpp says why).
//
// The public entry points in rewiring.hpp are thin wrappers over these;
// multi-chain runs are the leg driver's job.
#pragma once

#include <cstdint>
#include <vector>

#include "core/dk_state.hpp"
#include "gen/objective.hpp"
#include "gen/rewiring.hpp"
#include "graph/edge_index.hpp"
#include "svc/run_context.hpp"
#include "util/rng.hpp"

namespace orbis::gen {

/// A candidate double-edge swap: (a,b),(c,d) -> (a,d),(c,b).
struct Swap {
  NodeId a = 0, b = 0, c = 0, d = 0;
};

class RewiringEngine {
 public:
  explicit RewiringEngine(const Graph& start) : index_(start) {}

  const EdgeIndex& index() const noexcept { return index_; }
  Graph graph() const { return index_.to_graph(); }

  /// dK-randomizing rewiring at options.d = 1 or 2 (degree-preserving
  /// swaps; at d = 2 the partner half-edge is drawn from the right
  /// degree class, so every structurally valid proposal already
  /// preserves the JDD).
  /// options.move selects the proposal mix (rewiring.hpp): Curveball
  /// trades are JDD-preserving by construction and the mixed-mode
  /// selector draw only happens when move == mixed, so swap-mode streams
  /// are untouched.
  void randomize(const RandomizeOptions& options, std::size_t budget,
                 util::Rng& rng, RewiringStats* stats,
                 const svc::RunContext& ctx = {});

  /// 2K-targeting 1K-preserving Metropolis rewiring, priced by a
  /// JddObjective built for the call.  Returns the exact integer D2
  /// after the run.
  std::int64_t target_2k(const dk::JointDegreeDistribution& target,
                         const TargetingOptions& options, std::size_t budget,
                         util::Rng& rng, RewiringStats* stats,
                         const svc::RunContext& ctx = {});

  /// 1K-preserving greedy exploration of the likelihood S.  `stop_at`
  /// is NaN to run the budget out.
  void explore_s(bool maximize, std::size_t budget, double stop_at,
                 util::Rng& rng, RewiringStats* stats);

  /// Current S = Σ_edges k_u k_v over frozen degrees.
  double likelihood_s() const noexcept;

 private:
  bool propose_guided(const JddObjective& objective, util::Rng& rng,
                      Swap& swap) const;

  EdgeIndex index_;
};

/// 0K randomization: keeps only the edge count, so unlike the engines it
/// moves edges of a plain Graph (one random edge to a random node pair).
Graph randomize_0k(const Graph& g, std::size_t budget, util::Rng& rng,
                   RewiringStats* stats, const svc::RunContext& ctx = {});

/// Progress report at a stop-poll boundary, on lane 0 (the leg driver's
/// obs::ProgressLane tags the chain).  Sinks only READ the sample, so a
/// chain runs bit-identically with or without one.
inline void report_progress(const svc::RunContext& ctx,
                            const RewiringStats& stats, std::uint64_t budget,
                            double objective, bool has_objective) {
  if (ctx.progress == nullptr) return;
  ctx.progress->report(0, {.attempts = stats.attempts,
                           .accepted = stats.accepted,
                           .budget = budget,
                           .objective = objective,
                           .has_objective = has_objective});
}

/// s_v = Σ_{y ∈ N(v)} k_y for every node of `index`: one O(m) pass.
std::vector<std::int64_t> neighbor_degree_sums(const EdgeIndex& index);

/// True when the 2K-preserving swap (a,b),(c,d) -> (a,d),(c,b) provably
/// changes the 3K profile, read in O(1) off `sums` (the argument is at
/// the definition).  False decides nothing: the journal must.
bool changes_two_paths(const EdgeIndex& index,
                       const std::vector<std::int64_t>& sums,
                       const Swap& swap);

/// Moves `sums` across `swap`.  Degrees are frozen, so only the four
/// endpoints' sums change, and the call may come before or after the
/// swap is committed.
void apply_swap_to_sums(const EdgeIndex& index, const Swap& swap,
                        std::vector<std::int64_t>& sums);

/// 3K machinery: one EdgeIndex for adjacency + candidate draws, with a
/// DkState bound to it for the wedge/triangle bookkeeping.
class ThreeKRewirer {
 public:
  /// The level is what the modes read: randomize reads only the
  /// journal and exploration only the S2/C̄ deltas, so both build at
  /// swap_journal, which skips the 3K count that dominates construction
  /// on hub graphs (full_three_k works too).
  explicit ThreeKRewirer(
      const Graph& start,
      dk::TrackLevel level = dk::TrackLevel::full_three_k);
  /// The targeting engine: full_three_k, with the residual taken
  /// against `target`, which must outlive the engine.
  ThreeKRewirer(const Graph& start, const dk::ThreeKProfile& target);

  // The bound DkState holds a pointer into index_, so the pair must
  // stay at a stable address (DkState already suppresses copy/move).

  /// 3K-preserving randomization over 2K-preserving candidates.  One
  /// that `changes_two_paths` proves 3K-changing is rejected in O(1);
  /// every other one is verified exactly against the wedge/triangle
  /// delta journal.  The sums it reads are built once per call.
  void randomize(std::size_t budget, util::Rng& rng, RewiringStats* stats,
                 const svc::RunContext& ctx = {});

  /// 3K-targeting 2K-preserving Metropolis rewiring toward the target
  /// the engine was built with; returns exact integer D3 after the run.
  std::int64_t target(const TargetingOptions& options, std::size_t budget,
                      util::Rng& rng, RewiringStats* stats,
                      const svc::RunContext& ctx = {});

  /// 2K-preserving greedy exploration (S2 or C̄).
  void explore(ExploreObjective objective, std::size_t budget,
               double stop_at, util::Rng& rng, RewiringStats* stats);

  Graph graph() const { return state_.to_graph(); }
  const EdgeIndex& index() const noexcept { return index_; }
  const dk::DkState& state() const noexcept { return state_; }

 private:
  bool draw_candidate(util::Rng& rng, Swap& swap) const;

  EdgeIndex index_;     // the ONLY adjacency structure for all 3K modes
  dk::DkState state_;   // bound to index_; declared after it
};

}  // namespace orbis::gen
