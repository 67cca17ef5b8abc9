// Optimistic intra-chain batched rewiring for the 3K paths
// (ThreeKRewirer::randomize_parallel / target_parallel).
//
// The speculative evaluate_swap / commit_swap split guarantees a rejected
// proposal mutates nothing, which makes optimistic concurrency natural:
//
//   draw    (serial)   one Rng draws a round of `batch` candidates (and,
//                      in targeting mode, one acceptance uniform each);
//   evaluate (parallel) worker tasks score disjoint slices against the
//                      round-start state — DkState::evaluate_swap is
//                      const and keeps no scratch;
//   commit  (serial)   proposals resolve in draw order.  A swap's
//                      evaluation reads the rows of two of its endpoints
//                      and edge-hash entries (x, e) with e one of its
//                      endpoints (and, for ΔD3, the histogram bins its
//                      journal touches).  A commit changes only rows of
//                      its own endpoints and pairs of them, so either
//                      read goes stale only when a committed swap shares
//                      an endpoint with this one (see the pricing note
//                      in core/dk_state.cpp); such proposals are
//                      re-evaluated in-line against the live state.
//
// Conflict detection is therefore two-tier:
//   * endpoint conflict — a committed swap this round shares a node:
//     adjacency rows changed, so journal AND verdict are stale; redo the
//     structural check and the full evaluation.
//   * bin conflict (targeting only) — endpoints are disjoint (journal
//     still exact) but a committed journal moved a wedge/triangle bin
//     this proposal prices: ΔD3 is stale; re-price the journal against
//     the live histograms and re-apply the Metropolis rule.
//
// Every resolved proposal is thus decided exactly as a serial chain
// processing the same proposal stream would decide it, and nothing in
// the protocol observes worker count, pool size or thread scheduling:
// results are bit-identical for a fixed (seed, batch) at ANY thread
// count.  See docs/parallel.md.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "exec/thread_pool.hpp"
#include "gen/rewiring_engine.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace orbis::gen {

namespace {

/// One slot of a speculation round.  The SwapDelta keeps its buffer
/// capacity across rounds, so steady-state rounds are allocation-free.
struct PendingSwap {
  Swap swap;
  double accept_uniform = 0.0;       // pre-drawn (targeting mode)
  std::int64_t objective_delta = 0;  // ΔD3 (targeting mode)
  bool accepted = false;
  dk::SwapDelta delta;
};

// Acceptance uses the shared gen::metropolis_accepts (objective.hpp):
// the committer's conflict re-pricing must apply exactly the rule the
// serial chains do, whichever objective backend priced the proposal.

// Wedge and triangle keys share the uint64 space, so dirty bins are
// tagged by kind in the low bit (keys occupy 63 bits, util/keys.hpp).
std::uint64_t dirty_wedge(std::uint64_t key) { return key << 1; }
std::uint64_t dirty_triangle(std::uint64_t key) { return (key << 1) | 1; }

bool journal_touches(const std::unordered_set<std::uint64_t>& dirty,
                     const dk::DeltaJournal& journal) {
  for (const auto& [key, net] : journal.wedge) {
    if (dirty.count(dirty_wedge(key)) > 0) return true;
  }
  for (const auto& [key, net] : journal.triangle) {
    if (dirty.count(dirty_triangle(key)) > 0) return true;
  }
  return false;
}

}  // namespace

void ThreeKRewirer::randomize_parallel(const RandomizeOptions& options,
                                       std::size_t budget, util::Rng& rng,
                                       exec::ThreadPool& pool,
                                       RewiringStats* stats,
                                       const svc::RunContext& ctx) {
  util::expects(state_.level() == dk::TrackLevel::full_three_k,
                "ThreeKRewirer::randomize_parallel: needs full_three_k");
  expect_context_workers(options.workers,
                         "ThreeKRewirer::randomize_parallel");
  run_speculative(nullptr, 0.0, 0.0, options.batch, budget, rng, pool, stats,
                  ctx);
}

std::int64_t ThreeKRewirer::target_parallel(
    const dk::ThreeKProfile& target, const TargetingOptions& options,
    std::size_t budget, util::Rng& rng, exec::ThreadPool& pool,
    RewiringStats* stats, const svc::RunContext& ctx) {
  util::expects(state_.level() == dk::TrackLevel::full_three_k,
                "ThreeKRewirer::target_parallel: needs full_three_k");
  expect_context_workers(options.workers, "ThreeKRewirer::target_parallel");
  return run_speculative(&target, options.temperature, options.stop_distance,
                         options.batch, budget, rng, pool, stats, ctx);
}

std::int64_t ThreeKRewirer::run_speculative(
    const dk::ThreeKProfile* target, double temperature, double stop_distance,
    std::size_t batch_size, std::size_t budget, util::Rng& rng,
    exec::ThreadPool& pool, RewiringStats* stats,
    const svc::RunContext& ctx) {
  const bool targeting = target != nullptr;
  std::optional<ThreeKObjective> objective;
  if (targeting) objective.emplace(state_, *target);

  // Count into a local when the caller passed no stats sink, so the
  // between-round progress reports always carry attempt/accept totals
  // (observably identical — nothing below reads the counts).
  RewiringStats local_stats;
  if (stats == nullptr) stats = &local_stats;

  const std::size_t batch = batch_size > 0 ? batch_size : 1;
  const std::size_t partitions =
      ctx.workers > 0 ? ctx.workers : std::max<std::size_t>(pool.size(), 1);

  std::vector<PendingSwap> pending(batch);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(partitions);

  // Round-stamped endpoint marks + kind-tagged dirty histogram bins of
  // the swaps committed so far THIS round (both empty between rounds).
  std::vector<std::uint32_t> node_round(index_.num_nodes(), 0);
  std::uint32_t round_id = 0;
  std::unordered_set<std::uint64_t> dirty_bins;

  const auto reached_stop = [&]() {
    return targeting &&
           static_cast<double>(objective->distance()) <= stop_distance;
  };

  std::size_t drawn = 0;  // budget consumed (= serial attempt count)
  while (drawn < budget && !reached_stop() && index_.num_edges() >= 2) {
    // Cooperative cancellation at round granularity: the committer is
    // the only mutator, so between rounds is the one place a bail-out
    // leaves the state consistent (never mid-commit).  Progress reports
    // share the boundary (observers only — see docs/observability.md).
    if (ctx.stop.stop_requested()) break;
    report_progress(ctx, *stats, budget,
                    targeting ? static_cast<double>(objective->distance())
                              : 0.0,
                    targeting);
    const obs::Span round_span("3k.spec.round");
    ++round_id;
    dirty_bins.clear();

    // ---- draw (serial): candidates come off one Rng in a fixed order,
    // so the proposal stream is independent of everything parallel.
    // Structurally invalid draws resolve immediately, as in the serial
    // chain; valid ones fill the round.
    std::size_t count = 0;
    while (count < batch && drawn < budget) {
      ++drawn;
      Swap swap{};
      if (!draw_candidate(rng, swap)) {
        if (stats != nullptr) {
          ++stats->attempts;
          ++stats->rejected_structural;
        }
        continue;
      }
      PendingSwap& slot = pending[count++];
      slot.swap = swap;
      // A filled lane will not be read again until the evaluate phase —
      // a whole batch of draws away — so start pulling its endpoints'
      // CSR rows toward the cache now (docs/parallel.md,
      // "Prefetch-batched proposal evaluation").  Hints only: the Rng
      // stream and every verdict are unchanged.
      index_.prefetch_node(swap.a);
      index_.prefetch_node(swap.b);
      index_.prefetch_node(swap.c);
      index_.prefetch_node(swap.d);
      // Greedy descent (T = 0) never consults the uniform, so skipping
      // the draw keeps the Rng stream identical to the serial chain's —
      // with batch = 1 the two are then bit-for-bit the same process.
      if (targeting && temperature > 0.0) {
        slot.accept_uniform = rng.uniform_real();
      }
    }
    if (count == 0) continue;

    // ---- evaluate (parallel): disjoint contiguous slices.  Everything
    // read here is const until the commit phase.
    tasks.clear();
    const std::size_t parts = partitions < count ? partitions : count;
    for (std::size_t part = 0; part < parts; ++part) {
      const std::size_t begin = count * part / parts;
      const std::size_t end = count * (part + 1) / parts;
      tasks.emplace_back([this, &pending, &objective, temperature, targeting,
                          begin, end]() {
        for (std::size_t i = begin; i < end; ++i) {
          // Prefetch the NEXT lane's endpoint rows before scoring this
          // one, so lane i+1's misses overlap lane i's wedge/triangle
          // walk (advisory only — verdicts are unaffected).
          if (i + 1 < end) {
            const Swap& next = pending[i + 1].swap;
            index_.prefetch_node(next.a);
            index_.prefetch_node(next.b);
            index_.prefetch_node(next.c);
            index_.prefetch_node(next.d);
          }
          PendingSwap& slot = pending[i];
          state_.evaluate_swap(slot.swap.a, slot.swap.b, slot.swap.c,
                               slot.swap.d, slot.delta);
          if (targeting) {
            slot.objective_delta =
                objective->delta_if_applied(state_, slot.delta.journal);
            slot.accepted =
                metropolis_accepts(slot.objective_delta, temperature,
                                   slot.accept_uniform);
          } else {
            slot.accepted = slot.delta.journal.all_zero();
          }
        }
      });
    }
    pool.run_tasks(tasks);

    // ---- commit (serial, draw order).
    for (std::size_t i = 0; i < count; ++i) {
      PendingSwap& slot = pending[i];
      if (stats != nullptr) ++stats->attempts;
      const Swap& s = slot.swap;

      const bool endpoint_conflict =
          node_round[s.a] == round_id || node_round[s.b] == round_id ||
          node_round[s.c] == round_id || node_round[s.d] == round_id;
      if (endpoint_conflict) {
        if (stats != nullptr) ++stats->conflict_reevaluations;
        // An earlier commit rewired one of this swap's endpoints: its
        // edges may be gone or its replacements taken, and the journal
        // is stale either way.  Redo exactly what a serial chain would
        // check at this point.
        if (!index_.has_edge(s.a, s.b) || !index_.has_edge(s.c, s.d) ||
            index_.has_edge(s.a, s.d) || index_.has_edge(s.c, s.b)) {
          if (stats != nullptr) ++stats->rejected_structural;
          continue;
        }
        state_.evaluate_swap(s.a, s.b, s.c, s.d, slot.delta);
        if (targeting) {
          slot.objective_delta =
              objective->delta_if_applied(state_, slot.delta.journal);
          slot.accepted =
              metropolis_accepts(slot.objective_delta, temperature,
                                 slot.accept_uniform);
        } else {
          slot.accepted = slot.delta.journal.all_zero();
        }
      } else if (targeting && !dirty_bins.empty() &&
                 journal_touches(dirty_bins, slot.delta.journal)) {
        // Journal still exact (endpoints untouched), but an earlier
        // commit moved a bin it prices: ΔD3 must be re-priced against
        // the live histograms.
        if (stats != nullptr) ++stats->conflict_reevaluations;
        slot.objective_delta =
            objective->delta_if_applied(state_, slot.delta.journal);
        slot.accepted =
            metropolis_accepts(slot.objective_delta, temperature,
                               slot.accept_uniform);
      }

      if (!slot.accepted) {
        if (stats != nullptr) {
          if (targeting) {
            ++stats->rejected_objective;
          } else {
            ++stats->rejected_constraint;
          }
        }
        continue;
      }

      state_.commit_swap(slot.delta);
      if (targeting) objective->commit(slot.objective_delta);
      if (stats != nullptr) ++stats->accepted;
      node_round[s.a] = node_round[s.b] = node_round[s.c] =
          node_round[s.d] = round_id;
      if (targeting) {
        // Randomizing commits have all-zero journals, so only targeting
        // mode ever dirties bins.
        for (const auto& [key, net] : slot.delta.journal.wedge) {
          dirty_bins.insert(dirty_wedge(key));
        }
        for (const auto& [key, net] : slot.delta.journal.triangle) {
          dirty_bins.insert(dirty_triangle(key));
        }
      }
      // Stop exactly where the serial chain would: once the target is
      // reached, the round's unresolved tail is dropped (those drawn
      // proposals consumed budget but resolve nowhere).
      if (reached_stop()) break;
    }
  }
  return targeting ? objective->distance() : 0;
}

}  // namespace orbis::gen
