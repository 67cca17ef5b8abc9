#include "gen/rewiring.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/three_k_count.hpp"
#include "exec/thread_pool.hpp"
#include "gen/rewiring_engine.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"

// Public rewiring entry points.  All dK-preserving swap machinery lives
// in the RewiringEngine subsystem (rewiring_engine / edge_index /
// objective); this file only dispatches modes and resolves budgets.

namespace orbis::gen {

namespace {

/// How a chain ends: its graph and, for targeting, its exact distance.
struct ChainEnd {
  Graph graph;
  std::int64_t distance = 0;
};

/// The frame of every public chain call on `g`: resolve the budget,
/// count into the caller's stats (a local when none was passed), run
/// `chain(budget, stats)`, publish this call's counts once (`before`
/// handles callers that accumulate across calls into one struct) and
/// report the final distance if asked.
template <typename Chain>
Graph run_call(const Graph& g, std::size_t attempts,
               std::size_t attempts_per_edge, RewiringStats* stats,
               double* final_distance, Chain chain) {
  const std::size_t budget =
      attempt_budget(attempts, attempts_per_edge, g.num_edges());
  RewiringStats local_stats;
  RewiringStats& counted = stats == nullptr ? local_stats : *stats;
  const RewiringStats before = counted;
  ChainEnd end = chain(budget, counted);
  publish_rewiring_metrics(counted.delta_since(before));
  if (final_distance != nullptr) {
    *final_distance = static_cast<double>(end.distance);
  }
  return std::move(end.graph);
}

}  // namespace

void publish_rewiring_metrics(const RewiringStats& delta) {
  if (delta == RewiringStats{}) return;
  // Name resolution happens ONCE per process (function-local statics);
  // afterwards a publish is five relaxed fetch_adds.
  auto& registry = obs::Registry::global();
  static obs::Counter& attempts = registry.counter("rewire.attempts");
  static obs::Counter& accepted = registry.counter("rewire.accepted");
  static obs::Counter& rejected_structural =
      registry.counter("rewire.rejected_structural");
  static obs::Counter& rejected_constraint =
      registry.counter("rewire.rejected_constraint");
  static obs::Counter& rejected_objective =
      registry.counter("rewire.rejected_objective");
  attempts.add(delta.attempts);
  accepted.add(delta.accepted);
  rejected_structural.add(delta.rejected_structural);
  rejected_constraint.add(delta.rejected_constraint);
  rejected_objective.add(delta.rejected_objective);
}

const char* to_string(MoveKind move) noexcept {
  switch (move) {
    case MoveKind::swap:
      return "swap";
    case MoveKind::trade:
      return "trade";
    default:
      return "mixed";
  }
}

MoveKind parse_move_kind(const std::string& name) {
  if (name == "swap") return MoveKind::swap;
  if (name == "trade") return MoveKind::trade;
  if (name == "mixed") return MoveKind::mixed;
  throw std::invalid_argument("unknown move kind '" + name +
                              "' (expected swap, trade or mixed)");
}

void expect_2k_targeting_move(MoveKind move, const char* caller) {
  if (move == MoveKind::trade) {
    throw std::invalid_argument(
        std::string(caller) +
        ": 2K targeting cannot run on --move trade alone: a trade "
        "preserves the JDD, so D2 never falls (use swap or mixed)");
  }
}

std::size_t default_chain_count(std::size_t requested) noexcept {
  if (requested > 0) return requested;
  return std::clamp<std::size_t>(exec::resolve_workers(0), 1, 8);
}

std::size_t check_chain_count(std::uint64_t requested,
                              const std::string& field) {
  if (requested > kMaxChains) {
    throw std::invalid_argument(
        field + " must be at most " + std::to_string(kMaxChains) +
        " (chains per run), got " + std::to_string(requested));
  }
  return static_cast<std::size_t>(requested);
}

std::uint64_t attempt_budget(std::uint64_t attempts,
                             std::uint64_t attempts_per_edge,
                             std::uint64_t m) {
  if (attempts > 0) return attempts;
  if (m > 0 &&
      attempts_per_edge > std::numeric_limits<std::uint64_t>::max() / m) {
    throw std::invalid_argument(
        "attempts_per_edge " + std::to_string(attempts_per_edge) + " x " +
        std::to_string(m) + " edges overflows the 64-bit attempt budget");
  }
  return attempts_per_edge * m;
}

Graph randomize(const Graph& g, const RandomizeOptions& options,
                util::Rng& rng, RewiringStats* stats,
                const svc::RunContext& ctx) {
  util::expects(options.d >= 0 && options.d <= 3,
                "randomize: d must be in [0,3]");
  return run_call(
      g, options.attempts, options.attempts_per_edge, stats, nullptr,
      [&](std::size_t budget, RewiringStats& counted) {
        switch (options.d) {
          case 0:
            return ChainEnd{randomize_0k(g, budget, rng, &counted, ctx)};
          case 1:
          case 2: {
            RewiringEngine engine(g);
            engine.randomize(options, budget, rng, &counted, ctx);
            return ChainEnd{engine.graph()};
          }
          default: {
            util::expects(options.move == MoveKind::swap,
                          "randomize: d = 3 supports only --move swap");
            // Randomizing reads only the swap journal: no histogram build.
            ThreeKRewirer rewirer(g, dk::TrackLevel::swap_journal);
            rewirer.randomize(budget, rng, &counted, ctx);
            return ChainEnd{rewirer.graph()};
          }
        }
      });
}

Graph target_2k(const Graph& start, const dk::JointDegreeDistribution& target,
                const TargetingOptions& options, util::Rng& rng,
                RewiringStats* stats, double* final_distance) {
  expect_2k_targeting_move(options.move, "target_2k");
  return run_call(start, options.attempts, options.attempts_per_edge, stats,
                  final_distance,
                  [&](std::size_t budget, RewiringStats& counted) {
                    RewiringEngine engine(start);
                    const std::int64_t d2 = engine.target_2k(
                        target, options, budget, rng, &counted);
                    return ChainEnd{engine.graph(), d2};
                  });
}

Graph target_3k(const Graph& start, const dk::ThreeKProfile& target,
                const TargetingOptions& options, util::Rng& rng,
                RewiringStats* stats, double* final_distance) {
  return run_call(start, options.attempts, options.attempts_per_edge, stats,
                  final_distance,
                  [&](std::size_t budget, RewiringStats& counted) {
                    ThreeKRewirer rewirer(start, target);
                    const std::int64_t d3 =
                        rewirer.target(options, budget, rng, &counted);
                    return ChainEnd{rewirer.graph(), d3};
                  });
}

Graph explore(const Graph& g, ExploreObjective objective,
              const ExploreOptions& options, util::Rng& rng,
              RewiringStats* stats) {
  return run_call(
      g, options.attempts, options.attempts_per_edge, stats, nullptr,
      [&](std::size_t budget, RewiringStats& counted) {
        if (objective == ExploreObjective::maximize_s ||
            objective == ExploreObjective::minimize_s) {
          RewiringEngine engine(g);
          engine.explore_s(objective == ExploreObjective::maximize_s, budget,
                           options.stop_at_value, rng, &counted);
          return ChainEnd{engine.graph()};
        }
        // Exploration follows only the scalar deltas, so skip the (hub-
        // expensive) 3K count.
        ThreeKRewirer rewirer(g, dk::TrackLevel::swap_journal);
        rewirer.explore(objective, budget, options.stop_at_value, rng,
                        &counted);
        return ChainEnd{rewirer.graph()};
      });
}

double objective_value(const Graph& g, ExploreObjective objective) {
  switch (objective) {
    case ExploreObjective::maximize_s:
    case ExploreObjective::minimize_s: {
      RewiringEngine engine(g);
      return engine.likelihood_s();
    }
    case ExploreObjective::maximize_s2:
    case ExploreObjective::minimize_s2: {
      return dk::second_order_likelihood(g);
    }
    default:
      return dk::three_k_sums(EdgeIndex(g)).mean_clustering();
  }
}

}  // namespace orbis::gen
