#include "gen/anneal.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.hpp"

namespace orbis::gen {

namespace {

/// Per-rung cooling factor of the initial geometric ladder.
constexpr double kLadderRatio = 0.1;

// Controller constants (code, not run state — only the temperatures
// they produce are serialized).  Hot replicas target acceptance rates
// interpolated across [kAcceptCold, kAcceptHot] and move by at most one
// kAdaptStep factor per epoch, clamped to [kMinTemperature,
// kMaxTemperature] so a noisy epoch cannot fling a replica to extremes.
constexpr double kAcceptCold = 0.02;
constexpr double kAcceptHot = 0.40;
constexpr double kAdaptStep = 1.25;
constexpr double kMinTemperature = 1e-6;
constexpr double kMaxTemperature = 1e9;

}  // namespace

double ladder_temperature(const LadderOptions& ladder, double base,
                          std::size_t replica, std::size_t replicas) {
  if (replica == 0 || replicas <= 1) return base;
  const auto steps = static_cast<double>(replicas - 1 - replica);
  return ladder.top_temperature * std::pow(kLadderRatio, steps);
}

bool exchange_accepts(double t_i, double t_j, double d_i, double d_j,
                      util::Rng& rng) {
  const double dd = d_i - d_j;
  // T = 0 means infinite beta; resolve those limits branchily rather
  // than risk inf - inf.  Both greedy: swapping is only ever neutral or
  // an improvement for the cold slot when d_j <= d_i.
  if (t_i <= 0.0 && t_j <= 0.0) return dd >= 0.0;
  if (t_i <= 0.0) return dd >= 0.0;  // beta_i - beta_j = +inf
  if (t_j <= 0.0) return dd <= 0.0;  // beta_i - beta_j = -inf
  const double exponent = (1.0 / t_i - 1.0 / t_j) * dd;
  if (exponent >= 0.0) return true;
  return rng.uniform_real() < std::exp(exponent);
}

double adapt_temperature(double temperature, std::uint64_t attempts,
                         std::uint64_t accepted, std::size_t replica,
                         std::size_t replicas) {
  if (replica == 0 || replicas <= 1) return temperature;
  if (temperature <= 0.0 || attempts == 0) return temperature;
  const double spread = static_cast<double>(replica) /
                        static_cast<double>(replicas - 1);
  const double target = kAcceptCold + (kAcceptHot - kAcceptCold) * spread;
  const double rate = static_cast<double>(accepted) /
                      static_cast<double>(attempts);
  double adapted = temperature;
  if (rate < target) {
    adapted *= kAdaptStep;  // too cold: almost everything rejects
  } else if (rate > target) {
    adapted /= kAdaptStep;  // too hot: the replica is pure noise
  }
  return std::clamp(adapted, kMinTemperature, kMaxTemperature);
}

void run_ladder_epoch_pass(
    RunCheckpoint& state, std::uint64_t epoch_index,
    const std::vector<RewiringStats>& epoch_start_stats,
    const std::function<void(std::size_t)>& on_exchange) {
  const std::size_t replicas = state.chains.size();
  if (replicas >= 2) {
    util::Rng rng = util::Rng::from_state_words(state.exchange_rng);
    // Alternating pair parity covers every adjacent rung every two
    // epochs while keeping each pass conflict-free.
    for (std::size_t i = epoch_index % 2 == 0 ? 0 : 1; i + 1 < replicas;
         i += 2) {
      ChainCheckpoint& cold = state.chains[i];
      ChainCheckpoint& hot = state.chains[i + 1];
      ++state.exchange_attempted;
      if (exchange_accepts(cold.temperature, hot.temperature,
                           static_cast<double>(cold.distance),
                           static_cast<double>(hot.distance), rng)) {
        // Only the configurations move: temperatures, Rng streams and
        // stats stay with their slots.
        std::swap(cold.graph, hot.graph);
        std::swap(cold.distance, hot.distance);
        if (on_exchange) on_exchange(i);
        ++state.exchange_accepted;
      }
    }
    state.exchange_rng = rng.state_words();
  }
  if (state.adaptive) {
    for (std::size_t i = 1; i < replicas; ++i) {
      const RewiringStats delta =
          i < epoch_start_stats.size()
              ? state.chains[i].stats.delta_since(epoch_start_stats[i])
              : state.chains[i].stats;
      state.chains[i].temperature =
          adapt_temperature(state.chains[i].temperature, delta.attempts,
                            delta.accepted, i, replicas);
    }
  }
}

std::uint64_t snap_to_epoch_grid(std::uint64_t checkpoint_every,
                                 std::uint64_t exchange_every) {
  if (checkpoint_every == 0 || exchange_every == 0) return checkpoint_every;
  return (checkpoint_every + exchange_every - 1) / exchange_every *
         exchange_every;
}

namespace {

/// Shared ladder setup on top of a freshly made run checkpoint.
void apply_ladder(RunCheckpoint& state, const TargetingOptions& options,
                  const LadderOptions& ladder) {
  state.exchange_every = ladder.exchange_every > 0
                             ? ladder.exchange_every
                             : std::max<std::uint64_t>(state.budget / 16, 1);
  state.checkpoint_every =
      snap_to_epoch_grid(state.checkpoint_every, state.exchange_every);
  state.adaptive = ladder.adaptive;
  const std::size_t replicas = state.chains.size();
  for (std::size_t i = 0; i < replicas; ++i) {
    state.chains[i].temperature =
        ladder_temperature(ladder, options.temperature, i, replicas);
  }
  // The exchange stream derives from chain 0's seed state — a pure
  // function of the master seed that exists at every ladder size — so
  // replica streams stay byte-identical with or without a ladder.
  state.exchange_rng = util::Rng::from_state_words(state.chains[0].rng_state)
                           .stream(kExchangeStreamId)
                           .state_words();
}

}  // namespace

RunCheckpoint make_2k_ladder_run(const Graph& start,
                                 const TargetingOptions& options,
                                 const LadderOptions& ladder,
                                 std::uint64_t checkpoint_every,
                                 util::Rng& rng, const svc::RunContext& ctx) {
  svc::RunContext replicas = ctx;  // the ladder size is the chain count
  replicas.chains = ladder.replicas;
  RunCheckpoint state =
      make_2k_run(start, options, checkpoint_every, rng, replicas);
  apply_ladder(state, options, ladder);
  return state;
}

RunCheckpoint make_3k_ladder_run(const Graph& start,
                                 const TargetingOptions& options,
                                 const LadderOptions& ladder,
                                 std::uint64_t checkpoint_every,
                                 util::Rng& rng, const svc::RunContext& ctx) {
  svc::RunContext replicas = ctx;  // the ladder size is the chain count
  replicas.chains = ladder.replicas;
  RunCheckpoint state =
      make_3k_run(start, options, checkpoint_every, rng, replicas);
  apply_ladder(state, options, ladder);
  return state;
}

}  // namespace orbis::gen
