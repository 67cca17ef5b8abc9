// Replica exchange (parallel tempering) for the targeting chains
// (docs/annealing.md).
//
// The leg driver (gen/checkpoint.hpp) runs K chains in lockstep legs.  A LADDERED run gives each chain — now a replica —
// its own Metropolis temperature, replica 0 coldest, and at every
// exchange EPOCH (a fixed number of attempts, part of run identity like
// the seed) pauses to let adjacent replicas propose configuration
// swaps under the standard Metropolis exchange rule:
//
//   accept (i, j) with probability min(1, e^{(1/Ti - 1/Tj)(Di - Dj)})
//
// so a cold replica inherits a basin whenever the hot one found a
// strictly better configuration, and occasionally takes an uphill
// trade.  Only the configurations (graph + distance) swap; each
// slot keeps its temperature, Rng stream and stats.
//
// Between epochs an optional acceptance-band controller retunes each
// hot replica's temperature multiplicatively from its measured
// per-epoch acceptance rate; replica 0 is pinned at the caller's
// temperature so the cold end of the ladder keeps the semantics of a
// plain targeting run.
//
// Determinism: exchange decisions come from a DEDICATED Rng stream
// (kExchangeStreamId) serialized in the RunCheckpoint and advanced only
// by exchange passes; replica streams are derived exactly as in any
// multi-chain run.  The final graph is therefore a pure function of
// (seed, ladder, move mix, exchange epoch) — bit-identical at any
// thread-pool size, and across checkpoint kill/resume.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "gen/checkpoint.hpp"
#include "gen/rewiring.hpp"
#include "util/rng.hpp"

namespace orbis::gen {

/// Stream id of the exchange-decision Rng, derived from chain 0's seed
/// state (which every run has, whatever the ladder size).  Chain
/// streams use ids 0..K-1, so this huge constant cannot collide.
inline constexpr std::uint64_t kExchangeStreamId = 0x616e6e65616cULL;

struct LadderOptions {
  /// Replicas in the ladder; 0 = default_chain_count().  A ladder of 1
  /// degenerates to a plain single-chain checkpointed run.
  std::size_t replicas = 0;
  /// Attempts per exchange epoch; 0 = budget / 16 (at least 1).  Part
  /// of run identity: the same seed with a different epoch walks
  /// different chains.
  std::uint64_t exchange_every = 0;
  /// Initial temperature of the HOTTEST replica; the initial ladder is
  /// geometric between the caller's TargetingOptions::temperature
  /// (replica 0) and this.
  double top_temperature = 1e4;
  /// Acceptance-band feedback controller on hot replicas (see
  /// adapt_temperature).  Off = the initial ladder stays fixed.
  bool adaptive = true;
};

/// Initial temperature of replica `replica` in a ladder of `replicas`:
/// `base` for replica 0, else geometric down from `top_temperature`
/// (one kLadderRatio step per rung).
double ladder_temperature(const LadderOptions& ladder, double base,
                          std::size_t replica, std::size_t replicas);

/// The Metropolis replica-exchange rule between a replica at (t_i, d_i)
/// and a hotter-slot replica at (t_j, d_j): accept with probability
/// min(1, e^{(1/t_i - 1/t_j)(d_i - d_j)}).  T = 0 is the greedy limit
/// (infinite beta): a cold greedy replica accepts only d_j <= d_i.  The
/// uniform is drawn from `rng` LAZILY — certain accepts/rejects consume
/// no randomness — which keeps the pass a pure function of the inputs.
bool exchange_accepts(double t_i, double t_j, double d_i, double d_j,
                      util::Rng& rng);

/// One controller step for replica `replica` of `replicas` after an
/// epoch with `attempts` proposals of which `accepted` passed: nudges
/// the temperature multiplicatively toward a per-replica acceptance
/// target (interpolated across the ladder), clamped to a fixed range.
/// Replica 0 and zero-temperature replicas are never adapted.
/// Deterministic and Rng-free, so it adds no serialized state beyond
/// the temperature itself.
double adapt_temperature(double temperature, std::uint64_t attempts,
                         std::uint64_t accepted, std::size_t replica,
                         std::size_t replicas);

/// The serial between-epoch pass the checkpoint driver runs at every
/// epoch boundary: an exchange sweep over alternating adjacent pairs —
/// (0,1),(2,3),... on even `epoch_index`, (1,2),(3,4),... on odd — then
/// (if state.adaptive) the controller step, fed by each replica's stats
/// delta since `epoch_start_stats` (per-chain snapshots taken when the
/// epoch began).  Mutates chains' graph/distance/temperature, the
/// exchange Rng state and the cumulative exchange counters in place.
/// `on_exchange(i)`, if set, is called when replicas i and i+1 trade
/// configurations, so the caller can move per-configuration state (the
/// carried engines of gen/checkpoint.hpp) with them.
void run_ladder_epoch_pass(
    RunCheckpoint& state, std::uint64_t epoch_index,
    const std::vector<RewiringStats>& epoch_start_stats,
    const std::function<void(std::size_t)>& on_exchange = nullptr);

/// `checkpoint_every` snapped UP onto the grid of `exchange_every`-attempt
/// epochs (0 stays 0, as does any cadence without a ladder): every pause
/// point is then an epoch boundary, so no mid-epoch controller state
/// ever needs serializing.
std::uint64_t snap_to_epoch_grid(std::uint64_t checkpoint_every,
                                 std::uint64_t exchange_every);

/// Builds the leg-0 RunCheckpoint for a laddered 2K targeting run: a
/// make_2k_run checkpoint plus the ladder fields — per-replica initial
/// temperatures, the exchange epoch (checkpoint_every is rounded UP to
/// a multiple of it so every checkpoint boundary is an epoch boundary)
/// and the exchange Rng stream.  The chain count is ladder.replicas;
/// ctx.chains is not read.
RunCheckpoint make_2k_ladder_run(const Graph& start,
                                 const TargetingOptions& options,
                                 const LadderOptions& ladder,
                                 std::uint64_t checkpoint_every,
                                 util::Rng& rng,
                                 const svc::RunContext& ctx = {});

/// Same for a laddered 3K targeting run.
RunCheckpoint make_3k_ladder_run(const Graph& start,
                                 const TargetingOptions& options,
                                 const LadderOptions& ladder,
                                 std::uint64_t checkpoint_every,
                                 util::Rng& rng,
                                 const svc::RunContext& ctx = {});

}  // namespace orbis::gen
