#include "gen/rewiring_engine.hpp"

#include <optional>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace orbis::gen {

namespace {

/// Stop-poll cadence of the attempt loop: one relaxed atomic load every
/// 1024 attempts keeps cancellation latency in the microseconds while
/// adding nothing measurable to the per-swap hot path.
constexpr std::size_t kStopPollMask = 1023;

/// What one attempt did; the attempt loop tallies it into RewiringStats.
enum class Outcome : std::uint8_t {
  accepted,
  rejected_structural,  // a loop, a duplicate or a no-op draw
  rejected_constraint,  // would break the preserved P_{d'}
  rejected_objective,   // the acceptance rule said no
};

/// The counter each Outcome is tallied in, in Outcome order.
constexpr std::uint64_t RewiringStats::*kTally[] = {
    &RewiringStats::accepted, &RewiringStats::rejected_structural,
    &RewiringStats::rejected_constraint, &RewiringStats::rejected_objective};

/// The fixed inputs of one chain's attempt loop.
struct ChainLoop {
  std::size_t budget;
  std::size_t edges;          // m: no move changes it
  RewiringStats* stats;       // null: count into a local
  const svc::RunContext& ctx;
  std::size_t min_edges = 2;  // fewer and no move can be drawn
};

/// The context of a chain that takes none: never stops, reports nothing.
const svc::RunContext kSilent{};

/// `keep_going` of a chain that runs its budget out.
constexpr auto run_out = [] { return true; };

/// `objective` of a chain whose progress samples carry none.
constexpr auto no_objective = [] { return std::optional<double>(); };

/// The one attempt loop of every rewiring chain (docs/rewiring.md, "The
/// attempt loop").  While the budget lasts and `keep_going()` holds,
/// each attempt does, in this order:
///   1. poll: every kStopPollMask + 1 attempts (attempt 0 included), end
///      on a stop request, else report progress with `objective()`;
///   2. guard: a chain on fewer than `min_edges` edges ends;
///   3. count the attempt;
///   4. draw: `step()` draws and judges one proposal and returns its
///      Outcome, which is tallied.
/// The step is a template parameter so that it inlines into the loop.
template <typename KeepGoing, typename Objective, typename Step>
void run_attempts(const ChainLoop& chain, KeepGoing keep_going,
                  Objective objective, Step step) {
  // A local tally when the caller passed none, so progress always has
  // attempt/accept totals (the chain never reads the counts).
  RewiringStats local_stats;
  RewiringStats& stats = chain.stats == nullptr ? local_stats : *chain.stats;
  // Locals, so the tally's stores cannot force reloads of the inputs.
  const std::size_t budget = chain.budget;
  const bool movable = chain.edges >= chain.min_edges;
  for (std::size_t attempt = 0; attempt < budget && keep_going(); ++attempt) {
    if ((attempt & kStopPollMask) == 0) {
      if (chain.ctx.stop.stop_requested()) break;
      const std::optional<double> value = objective();
      report_progress(chain.ctx, stats, budget, value.value_or(0.0),
                      value.has_value());
    }
    if (!movable) break;
    ++stats.attempts;
    ++(stats.*kTally[static_cast<std::size_t>(step())]);
  }
}

/// The targeting chains' rule, standard Metropolis: always accept
/// downhill AND neutral moves (plateau diffusion is what lets greedy
/// descent reach D = 0); uphill moves pass with probability e^{-ΔD/T}.
/// The uniform is drawn only for uphill moves at T > 0.
Outcome metropolis(std::int64_t delta, double temperature, util::Rng& rng) {
  const bool accept =
      delta <= 0 || (temperature > 0.0 &&
                     metropolis_accepts(delta, temperature,
                                        rng.uniform_real()));
  return accept ? Outcome::accepted : Outcome::rejected_objective;
}

/// The exploring chains' rule: accept only a strict improvement.
Outcome greedy(double delta, bool maximize) {
  const bool improved = maximize ? delta > 0.0 : delta < 0.0;
  return improved ? Outcome::accepted : Outcome::rejected_objective;
}

/// Whether an exploring chain's `value` is still short of `stop_at`
/// (>= ends a maximizing chain, <= a minimizing one; NaN never does).
bool short_of(double value, double stop_at, bool maximize) {
  return !(maximize ? value >= stop_at : value <= stop_at);
}

/// Uniform candidate: two independent uniform half-edges (a,b), (c,d),
/// each a uniform cell of the rows.  Both edges and both orientations
/// are random, so the reverse swap is drawn with the same probability;
/// drawing the same edge twice is a structural rejection.
Swap draw_uniform_from(const EdgeIndex& index, util::Rng& rng) {
  const Edge ab = index.sample_half_edge(rng);
  const Edge cd = index.sample_half_edge(rng);
  return Swap{ab.u, ab.v, cd.u, cd.v};
}

/// 2K-preserving candidate: after a uniform half-edge (a,b), the partner
/// is a half-edge anchored in class(b), read as (d,c) so that
/// deg(d) = deg(b), or one anchored in class(a), read as (c,d) so that
/// deg(c) = deg(a) — the two branches of the JDD-preservation condition
/// — so no proposal is ever rejected for breaking the JDD.
Swap draw_jdd_preserving_from(const EdgeIndex& index, util::Rng& rng) {
  const Edge ab = index.sample_half_edge(rng);
  if (rng.bernoulli(0.5)) {
    const Edge dc = index.sample_class_half_edge(index.node_class(ab.v), rng);
    return Swap{ab.u, ab.v, dc.v, dc.u};
  }
  const Edge cd = index.sample_class_half_edge(index.node_class(ab.u), rng);
  return Swap{ab.u, ab.v, cd.u, cd.v};
}

bool structurally_valid_in(const EdgeIndex& index, const Swap& s) {
  if (s.a == s.c || s.a == s.d || s.b == s.c || s.b == s.d) return false;
  return !index.has_edge(s.a, s.d) && !index.has_edge(s.c, s.b);
}

/// A drawn Curveball trade between nodes u and v: the union of their
/// EXCLUSIVE neighborhoods (neighbors of exactly one of the two,
/// excluding u and v themselves) is re-dealt uniformly at random, u
/// keeping a set of its original size.  `to_v` lists the nodes moving
/// u -> v and `to_u` those moving v -> u; the two lists always have
/// equal length, so both endpoint degrees are unchanged — and when
/// class(u) == class(v), every moved edge keeps its degree-class pair
/// and the JDD is preserved exactly (docs/annealing.md).
struct TradeScratch {
  NodeId u = 0;
  NodeId v = 0;
  std::vector<std::pair<NodeId, bool>> pool;  // (node, currently u's side)
  std::vector<NodeId> to_u;
  std::vector<NodeId> to_v;
};

/// Draws a trade: a random half-edge picks u, and v is a uniform peer of
/// u's degree class (`same_class`, JDD-preserving) or the endpoint of an
/// independent random half-edge (d = 1: P(u,v) = k_u·k_v/(2m)² is
/// symmetric, so the chain is uniform over the whole 1K class).  The
/// exclusive-neighborhood pool is then shuffled into the new split.
/// False (a structural rejection) when u == v, the exclusive sets are
/// empty on either side, or the shuffle re-deals the original partition.
bool draw_trade_from(const EdgeIndex& index, bool same_class, util::Rng& rng,
                     TradeScratch& trade) {
  const NodeId u = index.sample_half_edge(rng).u;
  NodeId v = u;
  if (same_class) {
    const auto& peers = index.nodes_in_class(index.node_class(u));
    if (peers.size() < 2) return false;
    v = peers[rng.uniform(peers.size())];
  } else {
    v = index.sample_half_edge(rng).u;
  }
  if (v == u) return false;

  trade.u = u;
  trade.v = v;
  trade.pool.clear();
  for (const NodeId x : index.neighbors(u)) {
    if (x != v && !index.has_edge(v, x)) trade.pool.emplace_back(x, true);
  }
  const std::size_t u_share = trade.pool.size();
  for (const NodeId x : index.neighbors(v)) {
    if (x != u && !index.has_edge(u, x)) trade.pool.emplace_back(x, false);
  }
  if (u_share == 0 || trade.pool.size() == u_share) return false;

  rng.shuffle(trade.pool);
  // The first u_share entries form u's new exclusive set; a pool entry
  // that changed sides becomes a moved edge.  Counting gives
  // |to_u| == |to_v| automatically.
  trade.to_u.clear();
  trade.to_v.clear();
  for (std::size_t i = 0; i < trade.pool.size(); ++i) {
    const auto& [node, was_u] = trade.pool[i];
    const bool now_u = i < u_share;
    if (was_u && !now_u) {
      trade.to_v.push_back(node);
    } else if (!was_u && now_u) {
      trade.to_u.push_back(node);
    }
  }
  return !trade.to_v.empty();
}

/// Accepts a drawn trade that changes no objective: applies it to the
/// index.  Removals first: every insertion is then degree-restoring,
/// which is the EdgeIndex add_edge contract.
Outcome accept_trade(EdgeIndex& index, const TradeScratch& trade) {
  for (const NodeId x : trade.to_v) index.remove_edge(trade.u, x);
  for (const NodeId x : trade.to_u) index.remove_edge(trade.v, x);
  for (const NodeId x : trade.to_v) index.add_edge(trade.v, x);
  for (const NodeId x : trade.to_u) index.add_edge(trade.u, x);
  return Outcome::accepted;
}

/// P(trade) per attempt in MoveKind::mixed.
constexpr double kTradeFraction = 0.25;

/// Whether this attempt proposes a trade.  The mixed-mode selector is
/// the ONLY extra Rng draw the move option introduces: pure swap chains
/// consume exactly the streams they always did.
inline bool propose_trade(MoveKind move, util::Rng& rng) {
  if (move == MoveKind::swap) return false;
  return move == MoveKind::trade || rng.bernoulli(kTradeFraction);
}

/// One attempt of a chain with a move mix: when propose_trade picks a
/// trade, draw it into `trade` (a failed draw is a structural rejection)
/// and return `judge_trade()`; otherwise return `swap_step()`.
template <typename JudgeTrade, typename SwapStep>
Outcome trade_or_swap(MoveKind move, const EdgeIndex& index, bool same_class,
                      util::Rng& rng, TradeScratch& trade,
                      JudgeTrade judge_trade, SwapStep swap_step) {
  if (!propose_trade(move, rng)) return swap_step();
  if (!draw_trade_from(index, same_class, rng, trade)) {
    return Outcome::rejected_structural;
  }
  return judge_trade();
}

/// Fraction of 2K targeting proposals drawn GUIDED: pick a bin where the
/// current histogram deviates from the target and construct a swap that
/// directly creates (deficit) or destroys (surplus) an edge of that
/// degree class.  Uniform proposals alone take the chain to small D2
/// quickly but almost never hit the last few +-1 bins on large graphs;
/// guided proposals fix the endgame.
constexpr double kGuidedFraction = 0.5;

}  // namespace

// ---------------------------------------------------------------------------
// RewiringEngine: 1K-frozen fast paths.
// ---------------------------------------------------------------------------

void RewiringEngine::randomize(const RandomizeOptions& options,
                               std::size_t budget, util::Rng& rng,
                               RewiringStats* stats,
                               const svc::RunContext& ctx) {
  const int d = options.d;
  util::expects(d == 1 || d == 2, "RewiringEngine::randomize: d must be 1|2");
  TradeScratch trade;
  // Trades preserve degrees by construction, and the JDD too when both
  // nodes share a degree class, which d = 2 requires; d = 1 trades across
  // classes.  Either way they are always accepted.
  run_attempts(
      {budget, index_.num_edges(), stats, ctx}, run_out, no_objective, [&] {
        return trade_or_swap(
            options.move, index_, /*same_class=*/d == 2, rng, trade,
            [&] { return accept_trade(index_, trade); },
            [&] {
              const Swap swap = d == 2 ? draw_jdd_preserving_from(index_, rng)
                                       : draw_uniform_from(index_, rng);
              if (!structurally_valid_in(index_, swap)) {
                return Outcome::rejected_structural;
              }
              index_.apply_swap(swap.a, swap.b, swap.c, swap.d);
              return Outcome::accepted;
            });
      });
}

bool RewiringEngine::propose_guided(const JddObjective& objective,
                                    util::Rng& rng, Swap& swap) const {
  if (!objective.has_deviating_bin()) return false;
  const auto bin = objective.sample_deviating_bin(rng);

  const auto& candidates1 = index_.nodes_in_class(bin.c1);
  const NodeId u = candidates1[rng.uniform(candidates1.size())];
  if (bin.deficit) {
    // Create a (k1,k2) edge (u,v): remove (u,b),(c,v), add (u,v),(c,b).
    const auto& candidates2 = index_.nodes_in_class(bin.c2);
    const NodeId v = candidates2[rng.uniform(candidates2.size())];
    if (u == v || index_.has_edge(u, v)) return false;
    if (index_.degree(u) == 0 || index_.degree(v) == 0) return false;
    const auto u_nbrs = index_.neighbors(u);
    const auto v_nbrs = index_.neighbors(v);
    const NodeId b = u_nbrs[rng.uniform(u_nbrs.size())];
    const NodeId c = v_nbrs[rng.uniform(v_nbrs.size())];
    swap = Swap{u, b, c, v};
    return true;
  }
  // Destroy a (k1,k2) edge (u,v): reservoir-pick a class-c2 neighbor of
  // u and swap the edge against a uniformly random partner.
  NodeId v = u;
  std::size_t matches = 0;
  for (const NodeId w : index_.neighbors(u)) {
    if (index_.node_class(w) == bin.c2) {
      ++matches;
      if (rng.uniform(matches) == 0) v = w;
    }
  }
  if (v == u) return false;  // no matching neighbor
  const Edge other = index_.sample_half_edge(rng);
  swap = Swap{u, v, other.u, other.v};
  return true;
}

std::int64_t RewiringEngine::target_2k(
    const dk::JointDegreeDistribution& target,
    const TargetingOptions& options, std::size_t budget, util::Rng& rng,
    RewiringStats* stats, const svc::RunContext& ctx) {
  expect_2k_targeting_move(options.move, "RewiringEngine::target_2k");
  JddObjective objective(index_, target);
  const auto distance = [&] {
    return static_cast<double>(objective.distance());
  };
  TradeScratch trade;
  run_attempts(
      {budget, index_.num_edges(), stats, ctx},
      [&] { return distance() > options.stop_distance; },
      [&] { return std::optional<double>(distance()); },
      [&] {
        // A trade keeps every edge's degree-class pair, so ΔD2 = 0: it is
        // pure plateau diffusion — the objective tables need no update —
        // and is accepted whenever it is structurally drawable.
        return trade_or_swap(
            options.move, index_, /*same_class=*/true, rng, trade,
            [&] { return accept_trade(index_, trade); },
            [&] {
              Swap swap{};
              if (!(rng.bernoulli(kGuidedFraction) &&
                    propose_guided(objective, rng, swap))) {
                swap = draw_uniform_from(index_, rng);
              }

              // Prefetch pipeline (docs/parallel.md, "Prefetching in the
              // proposal loops"): a drawn proposal names every cold line
              // the checks below will touch — the two replacement-edge
              // probe groups and the objective's four class-pair bins —
              // so issue those prefetches first and let the misses
              // overlap the work in between.  Hints only: the Rng stream
              // and all results are unchanged.
              index_.prefetch_edge_key(swap.a, swap.d);
              index_.prefetch_edge_key(swap.c, swap.b);
              const std::uint32_t ca = index_.node_class(swap.a);
              const std::uint32_t cb = index_.node_class(swap.b);
              const std::uint32_t cc = index_.node_class(swap.c);
              const std::uint32_t cd = index_.node_class(swap.d);
              objective.prefetch(ca, cb, cc, cd);

              if (!structurally_valid_in(index_, swap)) {
                return Outcome::rejected_structural;
              }
              const Outcome outcome = metropolis(
                  objective.apply(ca, cb, cc, cd), options.temperature, rng);
              if (outcome == Outcome::accepted) {
                index_.apply_swap(swap.a, swap.b, swap.c, swap.d);
                objective.commit(ca, cb, cc, cd);
              } else {
                objective.revert(ca, cb, cc, cd);
              }
              return outcome;
            });
      });
  return objective.distance();
}

double RewiringEngine::likelihood_s() const noexcept {
  double s = 0.0;
  index_.for_each_edge([&](NodeId u, NodeId v) {
    s += static_cast<double>(index_.degree(u)) *
         static_cast<double>(index_.degree(v));
  });
  return s;
}

void RewiringEngine::explore_s(bool maximize, std::size_t budget,
                               double stop_at, util::Rng& rng,
                               RewiringStats* stats) {
  double s = likelihood_s();
  run_attempts(
      {budget, index_.num_edges(), stats, kSilent},
      [&] { return short_of(s, stop_at, maximize); }, no_objective, [&] {
        const Swap swap = draw_uniform_from(index_, rng);
        if (!structurally_valid_in(index_, swap)) {
          return Outcome::rejected_structural;
        }
        const double da = static_cast<double>(index_.degree(swap.a));
        const double db = static_cast<double>(index_.degree(swap.b));
        const double dc = static_cast<double>(index_.degree(swap.c));
        const double dd = static_cast<double>(index_.degree(swap.d));
        // ΔS of (a,b),(c,d) -> (a,d),(c,b) over frozen degrees.
        const double delta = (da - dc) * (dd - db);
        const Outcome outcome = greedy(delta, maximize);
        if (outcome == Outcome::accepted) {
          index_.apply_swap(swap.a, swap.b, swap.c, swap.d);
          s += delta;
        }
        return outcome;
      });
}

Graph randomize_0k(const Graph& g, std::size_t budget, util::Rng& rng,
                   RewiringStats* stats, const svc::RunContext& ctx) {
  Graph work = g;
  const NodeId n = work.num_nodes();
  // One edge is enough to move (a graph on fewer than 2 nodes has none).
  run_attempts(
      {budget, work.num_edges(), stats, ctx, /*min_edges=*/1}, run_out,
      no_objective, [&] {
        const Edge old_edge = work.edge_at(rng.uniform(work.num_edges()));
        const auto u = static_cast<NodeId>(rng.uniform(n));
        const auto v = static_cast<NodeId>(rng.uniform(n));
        if (u == v || work.has_edge(u, v)) {
          return Outcome::rejected_structural;
        }
        work.remove_edge(old_edge.u, old_edge.v);
        work.add_edge(u, v);
        return Outcome::accepted;
      });
  return work;
}

// ---------------------------------------------------------------------------
// The 3K randomizing chain's prefilter.
// ---------------------------------------------------------------------------

std::vector<std::int64_t> neighbor_degree_sums(const EdgeIndex& index) {
  std::vector<std::int64_t> sums(index.num_nodes(), 0);
  for (NodeId v = 0; v < index.num_nodes(); ++v) {
    std::int64_t sum = 0;
    for (const NodeId y : index.neighbors(v)) sum += index.degree(y);
    sums[v] = sum;
  }
  return sums;
}

// Why a differing neighbour-degree sum proves the 3K profile changes.
// Count 2-paths x-y-z (open or closed) by key (k_y; {k_x, k_z}).  An open
// wedge is one 2-path and a triangle is three, one per centre, so this
// histogram is a linear image of the 3K profile: if it moves, the
// wedge/triangle journal cannot be empty.
//
// Take k_b = k_d = k.  A 2-path moves only if it holds a removed or an
// added edge, and only by its centre's neighbour multiset:
//   * centred at a, a's neighbour degrees trade k_b for k_d, and at c,
//     k_d for k_b: the same multisets, so nothing moves;
//   * centred at b, the neighbour a (degree k_a) becomes c (k_c), and at
//     d, c becomes a.  With M_b, M_d the degree multisets of N(b)∖{a}
//     and N(d)∖{c}, the histogram moves by
//       Σ_m (M_b(m) − M_d(m)) · ((k; {k_c, m}) − (k; {k_a, m})).
// With k_a ≠ k_c this is zero iff M_b = M_d: the only keys two terms
// share are (k; {k_c, m}) = (k; {k_a, m'}) with m = k_a, m' = k_c, and
// even then (k; {k_c, k_c}) carries M_b(k_c) − M_d(k_c) alone and
// (k; {k_a, k_a}) carries M_d(k_a) − M_b(k_a) alone.  Equal multisets
// have equal sums, s_b − k_a and s_d − k_c, so unequal sums prove a
// change; equal ones prove nothing and fall through to the journal.
// The k_a = k_c branch is the same swap read as (b,a,d,c).
bool changes_two_paths(const EdgeIndex& index,
                       const std::vector<std::int64_t>& sums,
                       const Swap& swap) {
  const std::int64_t ka = index.degree(swap.a);
  const std::int64_t kb = index.degree(swap.b);
  const std::int64_t kc = index.degree(swap.c);
  const std::int64_t kd = index.degree(swap.d);
  if (kb == kd && ka != kc) return sums[swap.b] - ka != sums[swap.d] - kc;
  if (ka == kc && kb != kd) return sums[swap.a] - kb != sums[swap.c] - kd;
  return false;
}

void apply_swap_to_sums(const EdgeIndex& index, const Swap& swap,
                        std::vector<std::int64_t>& sums) {
  const std::int64_t ka = index.degree(swap.a);
  const std::int64_t kb = index.degree(swap.b);
  const std::int64_t kc = index.degree(swap.c);
  const std::int64_t kd = index.degree(swap.d);
  sums[swap.a] += kd - kb;
  sums[swap.b] += kc - ka;
  sums[swap.c] += kb - kd;
  sums[swap.d] += ka - kc;
}

// ---------------------------------------------------------------------------
// ThreeKRewirer: one EdgeIndex, with DkState bound to it for the residual.
// ---------------------------------------------------------------------------

ThreeKRewirer::ThreeKRewirer(const Graph& start, dk::TrackLevel level)
    : index_(start), state_(index_, level) {}

ThreeKRewirer::ThreeKRewirer(const Graph& start,
                             const dk::ThreeKProfile& target)
    : index_(start),
      state_(index_, dk::TrackLevel::full_three_k, &target) {}

bool ThreeKRewirer::draw_candidate(util::Rng& rng, Swap& swap) const {
  swap = draw_jdd_preserving_from(index_, rng);
  return structurally_valid_in(index_, swap);
}

void ThreeKRewirer::randomize(std::size_t budget, util::Rng& rng,
                              RewiringStats* stats,
                              const svc::RunContext& ctx) {
  dk::SwapDelta delta;
  std::vector<std::int64_t> sums = neighbor_degree_sums(index_);
  run_attempts(
      {budget, index_.num_edges(), stats, ctx}, run_out, no_objective, [&] {
        Swap swap{};
        if (!draw_candidate(rng, swap)) return Outcome::rejected_structural;
        // Candidates preserve the JDD by construction.  Most that break
        // the 3K profile are caught in O(1) by the sums; the rest are
        // verified exactly against the speculative delta journal —
        // nothing is mutated yet, so rejections cost nothing to undo.
        if (changes_two_paths(index_, sums, swap)) {
          return Outcome::rejected_constraint;
        }
        state_.evaluate_swap(swap.a, swap.b, swap.c, swap.d, delta);
        if (!delta.journal.all_zero()) return Outcome::rejected_constraint;
        state_.commit_swap(delta);
        apply_swap_to_sums(index_, swap, sums);
        return Outcome::accepted;
      });
}

std::int64_t ThreeKRewirer::target(const TargetingOptions& options,
                                   std::size_t budget, util::Rng& rng,
                                   RewiringStats* stats,
                                   const svc::RunContext& ctx) {
  util::expects(state_.level() == dk::TrackLevel::full_three_k &&
                    state_.target() != nullptr,
                "ThreeKRewirer::target: needs an engine built with a "
                "target");
  const dk::ThreeKResidual& residual = state_.residual();
  const auto distance = [&] {
    return static_cast<double>(residual.distance());
  };
  dk::SwapDelta swap_delta;
  TradeScratch trade;

  // A Curveball trade between u and v decomposes into |to_v| sub-swaps
  // (u, to_v[i]), (v, to_u[i]) -> (u, to_u[i]), (v, to_v[i]): the moved
  // sets are disjoint and each node moves exactly once, so every
  // sub-swap is structurally valid at its turn.  Each one satisfies
  // class(u) == class(v) (2K-preserving), is priced exactly against the
  // live journal and committed; the Metropolis rule then judges the
  // summed ΔD3, and a rejection replays the inverse sub-swaps (the
  // moved edges are pairwise distinct, so any order is valid) —
  // integer-exact residual bookkeeping makes the forward and reverse
  // deltas telescope to zero.
  const auto commit_trade_legs = [&](const std::vector<NodeId>& from_u,
                                     const std::vector<NodeId>& from_v) {
    const std::int64_t before = residual.distance();
    for (std::size_t i = 0; i < from_u.size(); ++i) {
      state_.evaluate_swap(trade.u, from_u[i], trade.v, from_v[i],
                           swap_delta);
      state_.commit_swap(swap_delta);
    }
    return residual.distance() - before;
  };

  run_attempts(
      {budget, index_.num_edges(), stats, ctx},
      [&] { return distance() > options.stop_distance; },
      [&] { return std::optional<double>(distance()); },
      [&] {
        return trade_or_swap(
            options.move, index_, /*same_class=*/true, rng, trade,
            [&] {
              const Outcome outcome =
                  metropolis(commit_trade_legs(trade.to_v, trade.to_u),
                             options.temperature, rng);
              if (outcome != Outcome::accepted) {
                commit_trade_legs(trade.to_u, trade.to_v);  // exact inverse
              }
              return outcome;
            },
            [&] {
              Swap swap{};
              if (!draw_candidate(rng, swap)) {
                return Outcome::rejected_structural;
              }
              // ΔD3 is evaluated against the speculative journal BEFORE
              // anything mutates: a rejected proposal ends here, with no
              // state to restore.
              state_.evaluate_swap(swap.a, swap.b, swap.c, swap.d,
                                   swap_delta);
              const Outcome outcome =
                  metropolis(residual.delta_if_applied(swap_delta.journal),
                             options.temperature, rng);
              if (outcome == Outcome::accepted) state_.commit_swap(swap_delta);
              return outcome;
            });
      });
  return residual.distance();
}

void ThreeKRewirer::explore(ExploreObjective objective, std::size_t budget,
                            double stop_at, util::Rng& rng,
                            RewiringStats* stats) {
  const bool s2_objective = objective == ExploreObjective::maximize_s2 ||
                            objective == ExploreObjective::minimize_s2;
  // DkState stores no scalars: the chain sums the committed deltas.
  dk::ThreeKSums sums = dk::three_k_sums(index_);
  const auto current = [&]() -> double {
    return s2_objective ? sums.s2 : sums.mean_clustering();
  };
  const bool maximize = objective == ExploreObjective::maximize_s2 ||
                        objective == ExploreObjective::maximize_clustering;

  dk::SwapDelta delta;
  run_attempts(
      {budget, index_.num_edges(), stats, kSilent},
      [&] { return short_of(current(), stop_at, maximize); }, no_objective,
      [&] {
        Swap swap{};
        if (!draw_candidate(rng, swap)) return Outcome::rejected_structural;
        // Both exploration objectives fall out of the speculative deltas:
        // ΔS2 directly, and ΔC̄ as Δ(clustering sum) / n (same sign).
        state_.evaluate_swap(swap.a, swap.b, swap.c, swap.d, delta);
        const Outcome outcome = greedy(
            s2_objective ? delta.s2_delta : delta.clustering_delta, maximize);
        if (outcome == Outcome::accepted) {
          state_.commit_swap(delta);
          sums.s2 += delta.s2_delta;
          sums.clustering_sum += delta.clustering_delta;
        }
        return outcome;
      });
}

}  // namespace orbis::gen
