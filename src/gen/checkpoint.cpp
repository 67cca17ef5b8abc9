#include "gen/checkpoint.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace orbis::gen {

namespace {

RunCheckpoint make_run(int d, const Graph& start,
                       const TargetingOptions& options,
                       std::uint64_t checkpoint_every, util::Rng& rng,
                       const svc::RunContext& ctx) {
  RunCheckpoint state;
  state.d = d;
  state.final_d = d;
  state.budget = attempt_budget(options.attempts, options.attempts_per_edge,
                                start.num_edges());
  state.checkpoint_every = checkpoint_every;
  state.move = options.move;  // pinned: the move stream is run identity

  // One draw from the caller's Rng forms the master and chain i gets
  // master.stream(i): every chain stream is a pure function of
  // (caller Rng state, i), whatever the chain count or pool size.
  const std::size_t chains = default_chain_count(ctx.chains);
  const util::Rng master(rng.next());
  state.chains.resize(chains);
  for (std::size_t chain = 0; chain < chains; ++chain) {
    state.chains[chain].rng_state = master.stream(chain).state_words();
    state.chains[chain].graph = start;
  }
  return state;
}

/// Cumulative stats over all chains — the between-leg snapshot the
/// metrics publication diffs against.
RewiringStats sum_chain_stats(const RunCheckpoint& state) {
  RewiringStats total;
  for (const auto& chain : state.chains) total += chain.stats;
  return total;
}

/// The leg loop shared by the 2K and 3K drivers.
/// `run_leg(chain, i, leg, chain_ctx)` advances chain i by `leg`
/// attempts and publishes its canonical state; `chain_ctx` is ctx with
/// its progress sink tagging the chain's lane.  `engines` are the
/// carried engines, dropped when a stop discards a leg.
template <typename RunLeg>
CheckpointedResult run_legs(RunCheckpoint& state,
                            const CheckpointOptions& checkpointing,
                            const svc::RunContext& ctx, double stop_distance,
                            ChainEngines& engines, RunLeg run_leg) {
  util::expects(!state.chains.empty(),
                "run_checkpointed: checkpoint has no chains");
  for (const auto& chain : state.chains) {
    util::expects(chain.attempts_done == state.chains[0].attempts_done,
                  "run_checkpointed: chains out of step (corrupt state?)");
  }

  static obs::Counter& legs_completed =
      obs::Registry::global().counter("checkpoint.legs_completed");
  static obs::Counter& flushes =
      obs::Registry::global().counter("checkpoint.flushes");

  CheckpointedResult result;
  const std::uint64_t every =
      state.checkpoint_every > 0 ? state.checkpoint_every : state.budget;
  exec::ThreadPool& pool = checkpointing.pool != nullptr
                               ? *checkpointing.pool
                               : exec::shared_pool();

  // Metrics publish per-leg DELTAS against these baselines, so a
  // resumed run never re-counts work a previous process already ran.
  RewiringStats published = sum_chain_stats(state);
  std::size_t legs = 0;

  while (state.chains[0].attempts_done < state.budget) {
    if (checkpointing.max_legs > 0 && legs >= checkpointing.max_legs) break;
    if (ctx.stop.stop_requested()) {
      result.interrupted = true;
      break;
    }
    const std::uint64_t done = state.chains[0].attempts_done;
    const std::uint64_t leg =
        std::min(every - done % every, state.budget - done);

    // Mid-leg interrupts discard the leg: keep the boundary state so a
    // stop observed below can snap back to it.  Without a stop token no
    // interrupt can happen, so skip the copies.
    std::vector<ChainCheckpoint> boundary;
    if (ctx.stop.stop_possible()) boundary = state.chains;

    std::vector<std::function<void()>> tasks;
    tasks.reserve(state.chains.size());
    for (std::size_t i = 0; i < state.chains.size(); ++i) {
      ChainCheckpoint& chain = state.chains[i];
      tasks.emplace_back([&chain, &run_leg, &ctx, leg, stop_distance, i]() {
        // A converged chain idles through remaining legs: target_* would
        // return immediately without touching the Rng, so skip the leg
        // entirely.  attempts_done still advances — leg cadence is
        // uniform across chains by construction.
        if (static_cast<double>(chain.distance) > stop_distance) {
          obs::ProgressLane lane(ctx.progress, static_cast<std::uint32_t>(i));
          svc::RunContext chain_ctx = ctx;
          if (ctx.progress != nullptr) chain_ctx.progress = &lane;
          run_leg(chain, i, leg, chain_ctx);
        }
        chain.attempts_done += leg;
      });
    }
    {
      const obs::Span leg_span("checkpoint.leg");
      pool.run_tasks(tasks);
    }

    if (ctx.stop.stop_requested()) {
      // The leg bodies bailed early (or ran to completion — either way
      // the cadence is broken): revert to the boundary, report
      // interrupted.  The caller's last on_checkpoint write is still the
      // truth on disk.
      if (!boundary.empty()) state.chains = std::move(boundary);
      // The engines hold the discarded legs' graphs.
      engines.clear();
      result.interrupted = true;
      break;
    }
    const RewiringStats now = sum_chain_stats(state);
    publish_rewiring_metrics(now.delta_since(published));
    published = now;
    legs_completed.add(1);
    ++legs;
    if (checkpointing.on_checkpoint) {
      const obs::Span flush_span("checkpoint.flush");
      checkpointing.on_checkpoint(state);
      flushes.add(1);
    }
  }

  // Best chain: lowest distance, ties to the lowest id, so the winner is
  // scheduling-independent.
  std::size_t best = 0;
  for (std::size_t chain = 1; chain < state.chains.size(); ++chain) {
    if (state.chains[chain].distance < state.chains[best].distance) {
      best = chain;
    }
  }
  result.best_chain = best;
  result.best_distance = static_cast<double>(state.chains[best].distance);
  result.graph = state.chains[best].graph;
  result.attempts_done = state.chains[0].attempts_done;
  result.total_stats = sum_chain_stats(state);
  return result;
}

/// One stage's legs, for either engine: chain i walks engines[i] from
/// `stage` (built from the chain's rows by `build` when missing) with
/// `walk(engine, options, attempts, rng, stats, ctx)`, which returns the
/// chain's exact distance.  Engines taken against another target are
/// freed first, and a finished stage frees its own.
template <typename Engine, typename Build, typename Walk>
CheckpointedResult run_stage(
    RunCheckpoint& state, const void* target,
    std::vector<std::unique_ptr<Engine>> ChainEngines::*stage,
    const TargetingOptions& options, const CheckpointOptions& checkpointing,
    const svc::RunContext& ctx, ChainEngines* engines, Build build,
    Walk walk) {
  TargetingOptions leg_options = options;
  leg_options.move = state.move;  // pinned: part of run identity
  ChainEngines call_engines;
  ChainEngines& carried = engines != nullptr ? *engines : call_engines;
  if (carried.target != target) carried.clear();
  carried.target = target;
  std::vector<std::unique_ptr<Engine>>& mine = carried.*stage;
  mine.resize(state.chains.size());
  CheckpointedResult result = run_legs(
      state, checkpointing, ctx, options.stop_distance, carried,
      [&](ChainCheckpoint& chain, std::size_t i, std::uint64_t leg,
          const svc::RunContext& chain_ctx) {
        util::Rng rng = util::Rng::from_state_words(chain.rng_state);
        if (mine[i] == nullptr) mine[i] = build(chain.graph);
        chain.distance = walk(*mine[i], leg_options, leg, rng, &chain.stats,
                              chain_ctx);
        chain.graph = mine[i]->graph();
        chain.rng_state = rng.state_words();
      });
  if (state.finished()) carried.clear();
  return result;
}

}  // namespace

RunCheckpoint make_2k_run(const Graph& start, const TargetingOptions& options,
                          std::uint64_t checkpoint_every, util::Rng& rng,
                          const svc::RunContext& ctx) {
  return make_run(2, start, options, checkpoint_every, rng, ctx);
}

RunCheckpoint make_3k_run(const Graph& start, const TargetingOptions& options,
                          std::uint64_t checkpoint_every, util::Rng& rng,
                          const svc::RunContext& ctx) {
  return make_run(3, start, options, checkpoint_every, rng, ctx);
}

CheckpointedResult run_checkpointed_2k(
    RunCheckpoint& state, const dk::JointDegreeDistribution& target,
    const TargetingOptions& options, const CheckpointOptions& checkpointing,
    const svc::RunContext& ctx, ChainEngines* engines) {
  util::expects(state.d == 2, "run_checkpointed_2k: checkpoint is not a "
                              "2K run");
  return run_stage(
      state, &target, &ChainEngines::two_k, options, checkpointing, ctx,
      engines,
      [](const Graph& g) { return std::make_unique<RewiringEngine>(g); },
      [&target](RewiringEngine& engine, auto&&... leg) {
        return engine.target_2k(target, leg...);
      });
}

CheckpointedResult run_checkpointed_3k(RunCheckpoint& state,
                                       const dk::ThreeKProfile& target,
                                       const TargetingOptions& options,
                                       const CheckpointOptions& checkpointing,
                                       const svc::RunContext& ctx,
                                       ChainEngines* engines) {
  util::expects(state.d == 3, "run_checkpointed_3k: checkpoint is not a "
                              "3K run");
  return run_stage(
      state, &target, &ChainEngines::three_k, options, checkpointing, ctx,
      engines,
      [&target](const Graph& g) {
        return std::make_unique<ThreeKRewirer>(g, target);
      },
      [](ThreeKRewirer& rewirer, auto&&... leg) {
        return rewirer.target(leg...);
      });
}

}  // namespace orbis::gen
