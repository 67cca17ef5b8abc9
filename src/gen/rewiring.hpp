// dK-preserving rewiring processes (paper §4.1.4 and §4.3).
//
//   * randomizing rewiring:  dK-preserving double-edge swaps, the paper's
//     preferred construction when an original graph is available;
//   * targeting rewiring:    dK-targeting d'K-preserving rewiring
//     ("Metropolis dynamics"): swaps preserve P_{d'} and are accepted iff
//     they shrink the squared distance D_d to a target dK-distribution,
//     or — at temperature T > 0 — with probability e^{-ΔD/T} otherwise
//     (simulated annealing; T→0 greedy, T→∞ pure randomizing);
//   * exploration rewiring:  §4.3 — drive a scalar defined by P_{d+1} but
//     not P_d (S for d=1; S2 or C̄ for d=2) to its extremes.
//
// Double-edge swap convention: pick random edges (a,b), (c,d) with all
// four endpoints distinct, replace with (a,d), (c,b).  This preserves
// every degree (1K); it additionally preserves the JDD (2K) iff
// deg(b)=deg(d) or deg(a)=deg(c); it preserves the 3K profile iff the
// wedge and triangle histograms are unchanged, which we verify exactly
// with incremental bookkeeping (perform, inspect the delta journal,
// revert on violation).
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "core/dk_state.hpp"
#include "core/joint_degree_distribution.hpp"
#include "core/three_k_profile.hpp"
#include "graph/graph.hpp"
#include "svc/run_context.hpp"
#include "util/only_one.hpp"
#include "util/rng.hpp"

namespace orbis::gen {

struct RewiringStats {
  std::uint64_t attempts = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected_structural = 0;  // loops/duplicates/no-ops
  std::uint64_t rejected_constraint = 0;  // would break P_{d'}
  std::uint64_t rejected_objective = 0;   // distance/objective worsened

  double acceptance_rate() const {
    return attempts > 0
               ? static_cast<double>(accepted) / static_cast<double>(attempts)
               : 0.0;
  }

  /// Field-wise accumulation — THE way chain/leg stats are summed
  /// (checkpoint legs, pipeline stages, tool summaries), so a new
  /// counter added here is aggregated everywhere or nowhere.
  RewiringStats& operator+=(const RewiringStats& other) {
    attempts += other.attempts;
    accepted += other.accepted;
    rejected_structural += other.rejected_structural;
    rejected_constraint += other.rejected_constraint;
    rejected_objective += other.rejected_objective;
    return *this;
  }

  /// Field-wise difference of two cumulative snapshots (later - earlier):
  /// how the checkpoint driver turns per-leg boundaries into per-leg
  /// deltas for metrics and reports.
  RewiringStats delta_since(const RewiringStats& earlier) const {
    RewiringStats d;
    d.attempts = attempts - earlier.attempts;
    d.accepted = accepted - earlier.accepted;
    d.rejected_structural = rejected_structural - earlier.rejected_structural;
    d.rejected_constraint = rejected_constraint - earlier.rejected_constraint;
    d.rejected_objective = rejected_objective - earlier.rejected_objective;
    return d;
  }

  friend bool operator==(const RewiringStats&, const RewiringStats&) = default;
};

/// Adds `delta` into the global metrics registry's rewire.* counters
/// (obs/metrics.hpp).  Called once per engine run / checkpoint leg —
/// never from the attempt hot path.
void publish_rewiring_metrics(const RewiringStats& delta);

// ---------------------------------------------------------------------------
// Move kinds.
// ---------------------------------------------------------------------------

/// Proposal move for rewiring chains (docs/annealing.md):
///   * swap  — classic double-edge swap, the paper's §4.1.4 move;
///   * trade — Curveball-style global trade: two nodes re-deal their
///     exclusive neighborhoods, moving many edges at once.  At d = 1 the
///     two nodes are any pair (degree-preserving); at d >= 2 they share
///     a degree class, so every traded edge keeps its degree-class pair
///     and trades preserve the JDD (2K) by construction; for 3K
///     targeting the trade is priced exactly as a sequence of
///     2K-preserving sub-swaps and Metropolis-accepted on the total ΔD3.
///   * mixed — per attempt, trade with probability 0.25, else swap.
///     The extra selector draw happens ONLY in mixed mode, so `swap`
///     chains consume exactly the streams they always did.
enum class MoveKind { swap, trade, mixed };

/// "swap" / "trade" / "mixed".
const char* to_string(MoveKind move) noexcept;

/// Inverse of to_string; throws std::invalid_argument on anything else.
MoveKind parse_move_kind(const std::string& name);

// ---------------------------------------------------------------------------
// Randomizing rewiring.
// ---------------------------------------------------------------------------

struct RandomizeOptions {
  int d = 2;                           // series level to preserve, 0..3
  std::size_t attempts_per_edge = 10;  // attempt budget = this * m
  std::size_t attempts = 0;            // explicit budget (overrides if > 0)
  /// Kept only because the frozen benchmark (pipebench/) assigns it 1;
  /// deleted with its next revision.  Other values throw (OnlyOne).
  util::OnlyOne workers{};
  /// Proposal move mix (MoveKind above).  Trades engage at d = 1/2;
  /// d = 3 randomizing rejects non-swap moves (trade 3K-preservation is
  /// not verified there) and d = 0 ignores the field.
  MoveKind move = MoveKind::swap;
};

/// dK-randomizing rewiring: returns a random graph with exactly the same
/// dK-distribution as g (same k̄/1K/2K/3K depending on d), polling
/// ctx.stop and reporting to ctx.progress; gen::dk_random_like is the
/// form seeded from ctx.seed.
Graph randomize(const Graph& g, const RandomizeOptions& options,
                util::Rng& rng, RewiringStats* stats = nullptr,
                const svc::RunContext& ctx = {});

// ---------------------------------------------------------------------------
// Targeting rewiring.
// ---------------------------------------------------------------------------

struct TargetingOptions {
  double temperature = 0.0;             // Metropolis T; 0 = greedy descent
  std::size_t attempts_per_edge = 400;  // attempt budget = this * m
  std::size_t attempts = 0;             // explicit budget (overrides if > 0)
  double stop_distance = 0.0;           // stop once D_d <= this
  /// Kept only because the frozen benchmark (pipebench/) assigns it 1;
  /// deleted with its next revision.  Other values throw (OnlyOne).
  util::OnlyOne workers{};
  /// Proposal move mix (MoveKind above).  In 2K targeting a trade is
  /// D2-neutral (pure mixing, useful against plateau stalls), so 2K
  /// targeting takes `mixed` but rejects `trade` alone; in 3K targeting
  /// a trade is priced exactly and Metropolis-accepted on the total ΔD3.
  MoveKind move = MoveKind::swap;
};

/// A Curveball trade preserves the JDD by construction, so a 2K
/// targeting chain of trades alone can never lower D2: every function
/// that runs 2K targeting rejects move == trade with an
/// std::invalid_argument naming the option.
void expect_2k_targeting_move(MoveKind move, const char* caller);

/// 2K-targeting 1K-preserving rewiring.  `start` must already have the
/// target's degree sequence (e.g. from matching_1k); returns a graph
/// moved toward the target JDD, reporting the final D2 if requested.
/// target_2k/target_3k run under a default context; the leg driver
/// (gen/checkpoint.hpp) is the context-taking form.
Graph target_2k(const Graph& start, const dk::JointDegreeDistribution& target,
                const TargetingOptions& options, util::Rng& rng,
                RewiringStats* stats = nullptr,
                double* final_distance = nullptr);

/// 3K-targeting 2K-preserving rewiring.  `start` must already have the
/// target's JDD (e.g. from matching_2k or target_2k output).
Graph target_3k(const Graph& start, const dk::ThreeKProfile& target,
                const TargetingOptions& options, util::Rng& rng,
                RewiringStats* stats = nullptr,
                double* final_distance = nullptr);

/// Annealing chains to run for `requested` (0 = autotune): one chain per
/// AVAILABLE core — exec::resolve_workers(0), which honors the process
/// affinity mask before consulting hardware_concurrency() — clamped to
/// [1, 8]: past ~8 chains the best-of-K improvement flattens while
/// every chain still burns a full budget.
std::size_t default_chain_count(std::size_t requested = 0) noexcept;

/// The most chains one run may ask for: each chain copies the graph, so
/// the count sizes memory.  Autotuning stays at 8 or fewer.
inline constexpr std::size_t kMaxChains = 64;

/// `requested` if it is at most kMaxChains, else std::invalid_argument
/// naming `field`: the front ends and gen::Pipeline check every chain
/// count before anything is allocated.
std::size_t check_chain_count(std::uint64_t requested,
                              const std::string& field);

/// A chain's attempt budget on an m-edge graph: `attempts` if non-zero,
/// else attempts_per_edge × m.  Throws std::invalid_argument when that
/// product does not fit in 64 bits (a wrapped budget would silently run
/// a tiny chain); every entry point computes it before building one.
std::uint64_t attempt_budget(std::uint64_t attempts,
                             std::uint64_t attempts_per_edge,
                             std::uint64_t m);

// ---------------------------------------------------------------------------
// dK-space exploration (§4.3).
// ---------------------------------------------------------------------------

enum class ExploreObjective {
  maximize_s,           // 1K-preserving, drives likelihood S up
  minimize_s,           //                ... down
  maximize_s2,          // 2K-preserving, second-order likelihood S2 up
  minimize_s2,          //                ... down
  maximize_clustering,  // 2K-preserving, mean clustering C̄ up
  minimize_clustering,  //                ... down
};

struct ExploreOptions {
  std::size_t attempts_per_edge = 50;
  std::size_t attempts = 0;  // explicit budget (overrides if > 0)
  /// Optional early stop: halt once the objective reaches this value
  /// (>= when maximizing, <= when minimizing).  NaN = run the budget out.
  double stop_at_value = std::numeric_limits<double>::quiet_NaN();
};

/// Greedy exploration toward extreme dK-graphs: accepts a P_{d'}-
/// preserving swap only if it strictly improves the objective.
Graph explore(const Graph& g, ExploreObjective objective,
              const ExploreOptions& options, util::Rng& rng,
              RewiringStats* stats = nullptr);

/// The objective value a given graph has for an exploration target
/// (S, S2 or C̄) — convenience for benches.
double objective_value(const Graph& g, ExploreObjective objective);

}  // namespace orbis::gen
