#include "core/dk_state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "core/series.hpp"
#include "core/three_k_count.hpp"
#include "gen/matching.hpp"
#include "graph/builders.hpp"
#include "metrics/clustering.hpp"
#include "metrics/scalar.hpp"
#include "topo/as_level.hpp"
#include "util/rng.hpp"

namespace orbis::dk {

/// The generation stamp behind DeltaJournal's scratch table, which a
/// chain of 2^32 swaps wraps.
struct DeltaJournalAudit {
  static std::uint32_t stamp(const DeltaJournal& journal) {
    return journal.stamp_;
  }
  static void set_stamp(DeltaJournal& journal, std::uint32_t stamp) {
    journal.stamp_ = stamp;
  }
  static std::size_t slots(const DeltaJournal& journal) {
    return journal.slots_.size();
  }
  /// Grows the table to at least `slots`, so no later swap resizes it.
  static void reserve(DeltaJournal& journal, std::size_t slots) {
    while (journal.slots_.size() < slots) journal.grow();
  }
};

namespace {

/// Small power-law graph whose hubs reach ten times the mean degree or
/// more (checked by the tests that rely on it), wired by matching_1k.
Graph hub_graph(std::uint64_t seed) {
  topo::AsLevelOptions options;
  options.num_nodes = 300;
  options.gamma = 1.7;
  options.max_degree_cap = 100;
  const auto degrees = topo::power_law_degree_sequence(options);
  util::Rng rng(seed);
  return gen::matching_1k(DegreeDistribution::from_sequence(degrees), rng);
}

bool hub_heavy(const Graph& g) {
  const double mean = 2.0 * static_cast<double>(g.num_edges()) /
                      static_cast<double>(g.num_nodes());
  return static_cast<double>(g.max_degree()) >= 10.0 * mean;
}

/// `r` against the profile `now` of the graph it tracks and `target`
/// (null: the empty profile), bin for bin: every bin where the two
/// differ holds their difference, no other bin is stored, and the
/// tracked D3 is distance_3k.
void expect_residual(const ThreeKResidual& r, const ThreeKProfile& now,
                     const ThreeKProfile* target) {
  static const ThreeKProfile empty;
  const ThreeKProfile& want = target != nullptr ? *target : empty;
  std::size_t differing = 0;
  SortedBins::merge(now.wedges(), want.wedges(),
                    [&](std::uint64_t key, std::int64_t a, std::int64_t b) {
                      differing += a != b;
                      EXPECT_EQ(r.wedge(key), a - b) << "wedge " << key;
                    });
  SortedBins::merge(now.triangles(), want.triangles(),
                    [&](std::uint64_t key, std::int64_t a, std::int64_t b) {
                      differing += a != b;
                      EXPECT_EQ(r.triangle(key), a - b) << "triangle " << key;
                    });
  EXPECT_EQ(r.num_bins(), differing);
  EXPECT_EQ(static_cast<double>(r.distance()), distance_3k(now, want));
}

void expect_residual_matches_recount(const DkState& state,
                                     const ThreeKProfile* target) {
  expect_residual(state.residual(),
                  ThreeKProfile::from_graph(state.to_graph()), target);
}

/// S2, the clustering sum Σ_v t_v · 2/(k_v(k_v-1)) and t_v as the swap
/// deltas say they have become: DkState stores none of them, so a
/// chain that follows them adds up what evaluate_swap reports.
struct Followed {
  double s2 = 0.0;
  double clustering_sum = 0.0;
  std::vector<std::int64_t> triangles;
};

/// Applies `count` random JDD-preserving double-edge swaps through
/// evaluate_swap/commit_swap (the only way DkState moves), adding each
/// one's deltas to what a recount of the start gives.
Followed churn(DkState& state, std::size_t count, util::Rng& rng) {
  const ThreeKSums start = three_k_sums(state.index());
  Followed followed{start.s2, start.clustering_sum,
                    triangles_per_node(state.to_graph())};
  SwapDelta delta;
  std::size_t done = 0;
  std::size_t guard = 0;
  while (done < count && guard++ < count * 200) {
    const auto& index = state.index();
    if (index.num_edges() < 2) break;
    const Edge e1 = index.sample_half_edge(rng);
    const Edge e2 = index.sample_half_edge(rng);
    const NodeId a = e1.u, b = e1.v, c = e2.u, d = e2.v;
    if (a == c || a == d || b == c || b == d) continue;
    if (index.has_edge(a, d) || index.has_edge(c, b)) continue;
    if (index.degree(b) != index.degree(d) &&
        index.degree(a) != index.degree(c)) {
      continue;
    }
    state.evaluate_swap(a, b, c, d, delta);
    state.commit_swap(delta);
    followed.s2 += delta.s2_delta;
    followed.clustering_sum += delta.clustering_delta;
    for (const auto& [node, net] : delta.triangle_nodes) {
      followed.triangles[node] += net;
    }
    ++done;
  }
  EXPECT_EQ(done, count);
  return followed;
}

/// The churned graph against the start and against what churn followed:
/// the JDD and S are the start's (every swap preserves the JDD), and S2,
/// C̄ and every t_v match a recount.
void expect_matches_recount(const DkState& state, const Graph& start,
                            const Followed& followed) {
  const Graph now = state.to_graph();
  EXPECT_EQ(JointDegreeDistribution::from_graph(now),
            JointDegreeDistribution::from_graph(start));
  EXPECT_NEAR(metrics::likelihood_s(now), metrics::likelihood_s(start),
              1e-6);
  const double fresh_s2 = second_order_likelihood(now);
  EXPECT_NEAR(followed.s2, fresh_s2, 1e-9 * (1.0 + fresh_s2));
  EXPECT_NEAR(followed.clustering_sum / static_cast<double>(now.num_nodes()),
              metrics::mean_clustering(now), 1e-9);
  ASSERT_EQ(followed.triangles.size(), now.num_nodes());
  for (NodeId v = 0; v < now.num_nodes(); ++v) {
    ASSERT_EQ(followed.triangles[v], metrics::triangles_through(now, v))
        << "node " << v;
  }
}

TEST(DkState, InitialStateMatchesExtraction) {
  util::Rng rng(5);
  const auto g = builders::gnm(30, 70, rng);
  DkState state(g, TrackLevel::full_three_k);
  expect_residual_matches_recount(state, nullptr);
  const ThreeKSums sums = three_k_sums(state.index());
  EXPECT_EQ(sums.s2, second_order_likelihood(g));
  EXPECT_NEAR(sums.mean_clustering(), metrics::mean_clustering(g), 1e-12);
  EXPECT_TRUE(state.to_graph() == g);
}

TEST(DkState, SwapChurnStaysConsistentLevel3) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    util::Rng rng(seed);
    const auto g = builders::gnm(25, 60, rng);
    DkState state(g, TrackLevel::full_three_k);
    const Followed followed = churn(state, 200, rng);
    ASSERT_NO_THROW(state.verify_consistency());
    expect_matches_recount(state, g, followed);
  }
}

// Property sweep for the CSR-backed state: a LONG random swap sequence
// must keep the incrementally maintained histograms exactly equal to a
// from-scratch recount, across seeds and tracking levels, and the
// summed scalar deltas must land on the recounted S2, C̄ and t_v.
TEST(DkState, LongChurnMatchesRecountAcrossSeedsAndLevels) {
  for (const TrackLevel level :
       {TrackLevel::full_three_k, TrackLevel::swap_journal}) {
    for (const std::uint64_t seed : {11ull, 23ull, 47ull}) {
      // A flat G(n,m) graph and a hub-heavy power-law one.
      for (const bool hubs : {false, true}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed << " level "
                                        << static_cast<int>(level)
                                        << " hubs " << hubs);
        util::Rng rng(seed);
        const auto g = hubs ? hub_graph(seed) : builders::gnm(60, 180, rng);
        if (hubs) {
          ASSERT_TRUE(hub_heavy(g));
        }
        DkState state(g, level);
        const Followed followed = churn(state, 1500, rng);
        ASSERT_NO_THROW(state.verify_consistency());
        if (level == TrackLevel::full_three_k) {
          // The residual must match an independent full extraction.
          expect_residual_matches_recount(state, nullptr);
        } else {
          EXPECT_EQ(state.residual().num_bins(), 0u);
        }
        expect_matches_recount(state, g, followed);
      }
    }
  }
}

// The shared-index constructor must mutate the caller's EdgeIndex in
// lockstep with the histograms: after churn, the index IS the graph.
TEST(DkState, SharedIndexStaysEquivalentToReplayedGraph) {
  for (const bool hubs : {false, true}) {
    SCOPED_TRACE(testing::Message() << "hubs " << hubs);
    util::Rng rng(31);
    const auto g = hubs ? hub_graph(31) : builders::gnm(40, 100, rng);
    if (hubs) {
      ASSERT_TRUE(hub_heavy(g));
    }
    EdgeIndex index(g);
    DkState state(index, TrackLevel::full_three_k);
    EXPECT_EQ(&state.index(), &index);

    // Replay the same swaps against a plain Graph and compare.
    // commit_swap mutates the index through EdgeIndex::apply_swap.
    Graph replay = g;
    SwapDelta delta;
    std::size_t done = 0;
    std::size_t guard = 0;
    while (done < 400 && guard++ < 400 * 200) {
      Edge e1 = index.sample_half_edge(rng);
      Edge e2 = index.sample_half_edge(rng);
      if (rng.bernoulli(0.5)) std::swap(e2.u, e2.v);
      const NodeId a = e1.u, b = e1.v, c = e2.u, d = e2.v;
      if (a == c || a == d || b == c || b == d) continue;
      if (index.has_edge(a, d) || index.has_edge(c, b)) continue;
      if (index.degree(b) != index.degree(d) &&
          index.degree(a) != index.degree(c)) {
        continue;
      }
      state.evaluate_swap(a, b, c, d, delta);
      state.commit_swap(delta);
      ASSERT_TRUE(replay.remove_edge(a, b));
      ASSERT_TRUE(replay.remove_edge(c, d));
      ASSERT_TRUE(replay.add_edge(a, d));
      ASSERT_TRUE(replay.add_edge(c, b));
      ++done;
    }
    ASSERT_EQ(done, 400u);
    EXPECT_TRUE(state.to_graph() == replay);
    for (NodeId v = 0; v < replay.num_nodes(); ++v) {
      EXPECT_EQ(index.current_degree(v), replay.degree(v));
    }
    ASSERT_NO_THROW(state.verify_consistency());
    EXPECT_TRUE(state.residual() ==
                ThreeKResidual(ThreeKProfile::from_graph(replay),
                               ThreeKProfile{}));
  }
}

// ---------------------------------------------------------------------------
// evaluate_swap against a brute-force oracle.
// ---------------------------------------------------------------------------

/// Everything a swap can change, recounted from scratch.
struct Recount {
  ThreeKProfile profile;
  std::vector<std::int64_t> triangles;  // per node
};

Recount recount(const Graph& g) {
  Recount out{ThreeKProfile::from_graph(g), {}};
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    out.triangles.push_back(metrics::triangles_through(g, v));
  }
  return out;
}

using BinDeltas = std::map<std::uint64_t, std::int64_t>;

BinDeltas histogram_difference(const SortedBins& after,
                               const SortedBins& before) {
  BinDeltas out;
  for (const auto& [key, count] : after) out[key] += count;
  for (const auto& [key, count] : before) out[key] -= count;
  std::erase_if(out, [](const auto& entry) { return entry.second == 0; });
  return out;
}

BinDeltas journal_bins(const DeltaJournal::Map& map) {
  BinDeltas out;
  for (const auto& [key, net] : map) {
    EXPECT_TRUE(out.emplace(key, net).second) << "duplicate journal key";
    EXPECT_NE(net, 0) << "zero journal entry";
  }
  return out;
}

double clustering_weight(std::uint32_t degree) {
  return degree < 2 ? 0.0
                    : 2.0 / (static_cast<double>(degree) *
                             static_cast<double>(degree - 1));
}

/// Walks a DkState through JDD-preserving swaps, checking every
/// evaluate_swap against the recount of the swapped copy and committing
/// the swaps it is asked to.  After every proposal, committed or not,
/// the residual against `target` must be the recount minus the target.
class SwapOracle {
 public:
  explicit SwapOracle(const Graph& g, const ThreeKProfile* target = nullptr)
      : state_(g, TrackLevel::full_three_k, target),
        target_(target),
        graph_(g),
        now_(recount(g)) {}

  const DkState& state() const { return state_; }
  const EdgeIndex& index() const { return state_.index(); }

  /// True when (a,b),(c,d) -> (a,d),(c,b) is a valid JDD-preserving swap.
  bool valid(NodeId a, NodeId b, NodeId c, NodeId d) const {
    const EdgeIndex& idx = index();
    if (a == b || a == c || a == d || b == c || b == d || c == d) {
      return false;
    }
    return idx.has_edge(a, b) && idx.has_edge(c, d) && !idx.has_edge(a, d) &&
           !idx.has_edge(c, b) &&
           (idx.degree(b) == idx.degree(d) || idx.degree(a) == idx.degree(c));
  }

  /// The SwapDelta every check reuses, as a chain does.
  SwapDelta& delta() { return delta_; }

  /// Checks the swap's SwapDelta against the recount; commits it when
  /// `commit`.  Returns whether the swap moved any node's triangles.
  bool check(NodeId a, NodeId b, NodeId c, NodeId d, bool commit) {
    SwapDelta& delta = delta_;
    state_.evaluate_swap(a, b, c, d, delta);
    EXPECT_EQ(delta.a, a);
    EXPECT_EQ(delta.b, b);
    EXPECT_EQ(delta.c, c);
    EXPECT_EQ(delta.d, d);

    Graph after = graph_;
    EXPECT_TRUE(after.remove_edge(a, b));
    EXPECT_TRUE(after.remove_edge(c, d));
    EXPECT_TRUE(after.add_edge(a, d));
    EXPECT_TRUE(after.add_edge(c, b));
    Recount then = recount(after);

    EXPECT_EQ(journal_bins(delta.journal.wedge),
              histogram_difference(then.profile.wedges(),
                                   now_.profile.wedges()));
    EXPECT_EQ(journal_bins(delta.journal.triangle),
              histogram_difference(then.profile.triangles(),
                                   now_.profile.triangles()));
    EXPECT_EQ(delta.s2_delta, then.profile.second_order_likelihood() -
                                  now_.profile.second_order_likelihood());

    std::map<NodeId, std::int64_t> nets;
    for (const auto& [node, net] : delta.triangle_nodes) {
      EXPECT_TRUE(nets.emplace(node, net).second) << "duplicate node entry";
      EXPECT_NE(net, 0) << "zero node entry";
    }
    double expected_clustering = 0.0;
    bool moved = false;
    for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
      const std::int64_t net = then.triangles[v] - now_.triangles[v];
      const auto it = nets.find(v);
      EXPECT_EQ(it == nets.end() ? 0 : it->second, net) << "node " << v;
      expected_clustering +=
          static_cast<double>(net) * clustering_weight(graph_.degree(v));
      moved = moved || net != 0;
    }
    // Exactly zero — not a rounding residue — when no count moves.
    if (!moved) {
      EXPECT_EQ(delta.clustering_delta, 0.0);
    }
    EXPECT_NEAR(delta.clustering_delta, expected_clustering, 1e-12);

    if (commit) {
      state_.commit_swap(delta);
      graph_ = std::move(after);
      now_ = std::move(then);
    }
    expect_residual(state_.residual(), now_.profile, target_);
    return moved;
  }

 private:
  DkState state_;
  const ThreeKProfile* target_;
  Graph graph_;
  Recount now_;
  SwapDelta delta_;
};

/// Proposes random JDD-preserving swaps until `count` were checked,
/// committing about a third of them.
void walk(SwapOracle& oracle, std::size_t count, util::Rng& rng) {
  std::size_t checked = 0;
  for (std::size_t guard = 0; checked < count && guard < 1000 * count;
       ++guard) {
    const auto& index = oracle.index();
    Edge e1 = index.sample_half_edge(rng);
    Edge e2 = index.sample_half_edge(rng);
    if (rng.bernoulli(0.5)) std::swap(e1.u, e1.v);
    if (rng.bernoulli(0.5)) std::swap(e2.u, e2.v);
    if (!oracle.valid(e1.u, e1.v, e2.u, e2.v)) continue;
    oracle.check(e1.u, e1.v, e2.u, e2.v, /*commit=*/rng.bernoulli(0.3));
    ++checked;
  }
  EXPECT_EQ(checked, count);
}

TEST(DkStateSwapOracle, EverySwapDeltaMatchesTheRecountOnAHubGraph) {
  const Graph g = hub_graph(3);
  ASSERT_TRUE(hub_heavy(g));
  // Another wiring of the same degree sequence: many shared bins.
  const ThreeKProfile target = ThreeKProfile::from_graph(hub_graph(4));
  SwapOracle oracle(g, &target);
  util::Rng rng(17);
  const double mean = 2.0 * static_cast<double>(g.num_edges()) /
                      static_cast<double>(g.num_nodes());

  // Random proposals, oriented both ways: each JDD branch, the both-hold
  // case and hub endpoints must all be seen, so the walk runs past 400
  // checks until they have been.
  std::size_t bd_only = 0, ac_only = 0, both = 0, hub = 0, checked = 0;
  const auto covered = [&] {
    return checked >= 400 && bd_only > 0 && ac_only > 0 && both > 0 &&
           hub > 0;
  };
  for (std::size_t guard = 0; !covered() && guard < 200000; ++guard) {
    const auto& index = oracle.index();
    Edge e1 = index.sample_half_edge(rng);
    Edge e2 = index.sample_half_edge(rng);
    if (rng.bernoulli(0.5)) std::swap(e1.u, e1.v);
    if (rng.bernoulli(0.5)) std::swap(e2.u, e2.v);
    const NodeId a = e1.u, b = e1.v, c = e2.u, d = e2.v;
    if (!oracle.valid(a, b, c, d)) continue;
    const bool bd = index.degree(b) == index.degree(d);
    const bool ac = index.degree(a) == index.degree(c);
    bd_only += bd && !ac;
    ac_only += ac && !bd;
    both += ac && bd;
    const std::uint32_t top = std::max({index.degree(a), index.degree(b),
                                        index.degree(c), index.degree(d)});
    hub += static_cast<double>(top) >= 10.0 * mean;
    oracle.check(a, b, c, d, /*commit=*/rng.bernoulli(0.3));
    ++checked;
  }
  EXPECT_GE(checked, 400u);
  EXPECT_GT(bd_only, 0u);
  EXPECT_GT(ac_only, 0u);
  EXPECT_GT(both, 0u);
  EXPECT_GT(hub, 0u);
  EXPECT_NO_THROW(oracle.state().verify_consistency());
}

// One SwapDelta serves a whole chain, and its journal's scratch table is
// cleared by bumping a 32-bit stamp, which a long chain wraps.  Slots
// stamped by early swaps must not read as live when the stamp comes
// round again: swaps on either side of the wrap must still journal
// exactly the recount's deltas, with no duplicate and no zero entry.
TEST(DkStateSwapOracle, JournalStampWrapsWithoutStaleSlots) {
  const Graph g = hub_graph(5);
  ASSERT_TRUE(hub_heavy(g));
  SwapOracle oracle(g);
  util::Rng rng(23);
  DeltaJournal& journal = oracle.delta().journal;
  // Larger than any journal here, so no swap resizes (and so re-stamps)
  // the table; then stamp its slots with low generations.
  DeltaJournalAudit::reserve(journal, 1 << 14);
  const std::size_t slots = DeltaJournalAudit::slots(journal);
  walk(oracle, 150, rng);
  ASSERT_LT(DeltaJournalAudit::stamp(journal), 1000u);

  DeltaJournalAudit::set_stamp(journal, ~std::uint32_t{0} - 60);
  walk(oracle, 300, rng);
  const std::uint32_t after = DeltaJournalAudit::stamp(journal);
  EXPECT_GE(after, 1u);
  EXPECT_LT(after, 1000u) << "the stamp did not wrap";
  EXPECT_EQ(DeltaJournalAudit::slots(journal), slots);
  EXPECT_NO_THROW(oracle.state().verify_consistency());
}

TEST(DkStateSwapOracle, ForcedAdjacencyInsideTheFourEndpoints) {
  // a~c and b~d are the only pairs among the endpoints the swap leaves
  // alone; random proposals rarely have them, so build such swaps from
  // an edge (a,c) (resp. (b,d)) and one neighbor on each side.
  const Graph g = hub_graph(5);
  const ThreeKProfile target = ThreeKProfile::from_graph(hub_graph(6));
  SwapOracle oracle(g, &target);
  util::Rng rng(23);
  std::size_t ac_adjacent = 0, bd_adjacent = 0;
  for (std::size_t guard = 0;
       (ac_adjacent < 150 || bd_adjacent < 150) && guard < 400000; ++guard) {
    const auto& index = oracle.index();
    Edge e = index.sample_half_edge(rng);
    if (rng.bernoulli(0.5)) std::swap(e.u, e.v);
    const auto pick = [&](NodeId v) {
      const auto row = index.neighbors(v);
      return row[rng.uniform(row.size())];
    };
    const bool force_ac = rng.bernoulli(0.5);
    NodeId a, b, c, d;
    if (force_ac) {
      a = e.u;
      c = e.v;
      b = pick(a);
      d = pick(c);
    } else {
      b = e.u;
      d = e.v;
      a = pick(b);
      c = pick(d);
    }
    if (!oracle.valid(a, b, c, d)) continue;
    (force_ac ? ac_adjacent : bd_adjacent) += 1;
    oracle.check(a, b, c, d, /*commit=*/rng.bernoulli(0.3));
  }
  EXPECT_GE(ac_adjacent, 150u);
  EXPECT_GE(bd_adjacent, 150u);
  EXPECT_NO_THROW(oracle.state().verify_consistency());
}

TEST(DkStateSwapOracle, CurveballTradeLegsMatchTheRecount) {
  // A Curveball trade between same-degree u and v moves exclusive
  // neighbors across in legs (u,x),(v,y) -> (u,y),(v,x): deg a = deg c
  // swaps, each priced against the state the previous legs left.  Pairs
  // with u~v are included (forced a~c adjacency on every leg).
  const Graph g = hub_graph(7);
  const ThreeKProfile target = ThreeKProfile::from_graph(hub_graph(8));
  SwapOracle oracle(g, &target);
  util::Rng rng(29);
  std::size_t legs = 0, adjacent_pairs = 0, rolled_back = 0;
  for (std::size_t guard = 0;
       (legs < 300 || adjacent_pairs < 10) && guard < 100000; ++guard) {
    const auto& index = oracle.index();
    // Half the pairs come off an edge, so that u~v pairs occur.
    NodeId u, v;
    if (rng.bernoulli(0.5)) {
      const Edge e = index.sample_half_edge(rng);
      u = e.u;
      v = e.v;
    } else {
      u = static_cast<NodeId>(rng.uniform(index.num_nodes()));
      const auto& peers = index.nodes_in_class(index.node_class(u));
      v = peers[rng.uniform(peers.size())];
    }
    if (u == v || index.degree(u) != index.degree(v)) continue;
    std::vector<NodeId> only_u, only_v;
    for (const NodeId x : index.neighbors(u)) {
      if (x != v && !index.has_edge(v, x)) only_u.push_back(x);
    }
    for (const NodeId y : index.neighbors(v)) {
      if (y != u && !index.has_edge(u, y)) only_v.push_back(y);
    }
    const bool adjacent = index.has_edge(u, v);
    if (legs >= 300 && !adjacent) continue;
    const std::size_t moved =
        std::min({only_u.size(), only_v.size(), std::size_t{8}});
    if (moved == 0) continue;
    adjacent_pairs += adjacent;
    const ThreeKResidual before = oracle.state().residual();
    for (std::size_t i = 0; i < moved; ++i) {
      ASSERT_TRUE(oracle.valid(u, only_u[i], v, only_v[i]));
      oracle.check(u, only_u[i], v, only_v[i], /*commit=*/true);
      ++legs;
    }
    // A rejected trade replays the inverse legs, as the targeting chain
    // does: the residual and D3 must come back exactly.
    if (rng.bernoulli(0.5)) {
      for (std::size_t i = 0; i < moved; ++i) {
        ASSERT_TRUE(oracle.valid(u, only_v[i], v, only_u[i]));
        oracle.check(u, only_v[i], v, only_u[i], /*commit=*/true);
      }
      EXPECT_TRUE(oracle.state().residual() == before);
      ++rolled_back;
    }
  }
  EXPECT_GE(legs, 300u);
  EXPECT_GE(adjacent_pairs, 10u);
  EXPECT_GT(rolled_back, 0u);
  EXPECT_NO_THROW(oracle.state().verify_consistency());
}

TEST(DkStateSwapOracle, VerifyConsistencyRecountsTheResidual) {
  // verify_consistency recounts the profile and takes the residual
  // against the target anew: a target that changes behind the state's
  // back no longer matches the stored residual.
  const Graph g = hub_graph(9);
  ThreeKProfile target = ThreeKProfile::from_graph(hub_graph(10));
  DkState state(g, TrackLevel::full_three_k, &target);
  util::Rng rng(43);
  churn(state, 200, rng);
  EXPECT_NO_THROW(state.verify_consistency());
  expect_residual_matches_recount(state, &target);
  target = ThreeKProfile::from_graph(hub_graph(11));
  EXPECT_THROW(state.verify_consistency(), std::logic_error);
}

TEST(DkStateSwapOracle, UnchangedTrianglesGiveExactlyZeroClusteringDelta) {
  // A swap can destroy triangles and create others on the same nodes,
  // leaving every node's count where it was.  Its ΔC̄ must then be 0.0
  // exactly, not a rounding residue of the ± terms: greedy C̄
  // exploration takes any nonzero value for an improvement.
  const Graph g = hub_graph(3);
  DkState state(g, TrackLevel::swap_journal);
  util::Rng rng(41);
  SwapDelta delta;
  std::size_t cancelling = 0;
  for (std::size_t guard = 0; guard < 400000 && cancelling < 100; ++guard) {
    const auto& index = state.index();
    Edge e1 = index.sample_half_edge(rng);
    Edge e2 = index.sample_half_edge(rng);
    if (rng.bernoulli(0.5)) std::swap(e2.u, e2.v);
    const NodeId a = e1.u, b = e1.v, c = e2.u, d = e2.v;
    if (a == c || a == d || b == c || b == d || index.has_edge(a, d) ||
        index.has_edge(c, b) ||
        (index.degree(b) != index.degree(d) &&
         index.degree(a) != index.degree(c))) {
      continue;
    }
    // Triangles on the removed edges die; keep the swaps that kill some.
    const auto common = [&](NodeId u, NodeId v) {
      std::size_t n = 0;
      for (const NodeId x : index.neighbors(u)) n += index.has_edge(x, v);
      return n;
    };
    if (common(a, b) + common(c, d) == 0) continue;
    Graph before = state.to_graph();
    Graph after = before;
    after.remove_edge(a, b);
    after.remove_edge(c, d);
    after.add_edge(a, d);
    after.add_edge(c, b);
    bool moved = false;
    for (NodeId v : {a, b, c, d}) {
      moved = moved || metrics::triangles_through(before, v) !=
                           metrics::triangles_through(after, v);
    }
    for (NodeId v = 0; v < g.num_nodes() && !moved; ++v) {
      moved = metrics::triangles_through(before, v) !=
              metrics::triangles_through(after, v);
    }
    state.evaluate_swap(a, b, c, d, delta);
    if (moved) {
      if (rng.bernoulli(0.5)) state.commit_swap(delta);
      continue;
    }
    EXPECT_EQ(delta.clustering_delta, 0.0)
        << "swap (" << a << "," << b << "),(" << c << "," << d << ")";
    ++cancelling;
  }
  EXPECT_GE(cancelling, 100u);
}

// swap_journal keeps no 3K state, yet its evaluate_swap journal must be
// the full_three_k journal, swap for swap, on flat and hub graphs.
TEST(DkState, SwapJournalLevelJournalsLikeFullThreeK) {
  for (const bool hubs : {false, true}) {
    SCOPED_TRACE(testing::Message() << "hubs " << hubs);
    util::Rng rng(37);
    const auto g = hubs ? hub_graph(37) : builders::gnm(60, 180, rng);
    DkState light(g, TrackLevel::swap_journal);
    DkState full(g, TrackLevel::full_three_k);
    EXPECT_EQ(light.residual().num_bins(), 0u);
    SwapDelta light_delta;
    SwapDelta full_delta;
    std::size_t compared = 0;
    std::size_t nonempty = 0;
    std::size_t guard = 0;
    while (compared < 600 && guard++ < 600 * 200) {
      const auto& index = full.index();
      const Edge e1 = index.sample_half_edge(rng);
      Edge e2 = index.sample_half_edge(rng);
      if (rng.bernoulli(0.5)) std::swap(e2.u, e2.v);
      const NodeId a = e1.u, b = e1.v, c = e2.u, d = e2.v;
      if (a == c || a == d || b == c || b == d) continue;
      if (index.has_edge(a, d) || index.has_edge(c, b)) continue;
      if (index.degree(b) != index.degree(d) &&
          index.degree(a) != index.degree(c)) {
        continue;
      }
      light.evaluate_swap(a, b, c, d, light_delta);
      full.evaluate_swap(a, b, c, d, full_delta);
      auto sorted = [](DeltaJournal::Map map) {
        std::sort(map.begin(), map.end());
        return map;
      };
      ASSERT_EQ(sorted(light_delta.journal.wedge),
                sorted(full_delta.journal.wedge));
      ASSERT_EQ(sorted(light_delta.journal.triangle),
                sorted(full_delta.journal.triangle));
      if (!full_delta.journal.all_zero()) ++nonempty;
      ++compared;
      // Commit every other swap so both states walk the same chain.
      if (rng.bernoulli(0.5)) {
        light.commit_swap(light_delta);
        full.commit_swap(full_delta);
      }
    }
    EXPECT_EQ(compared, 600u);
    EXPECT_GT(nonempty, 0u);
    EXPECT_TRUE(light.to_graph() == full.to_graph());
    EXPECT_EQ(light.residual().num_bins(), 0u);
    ASSERT_NO_THROW(light.verify_consistency());
    ASSERT_NO_THROW(full.verify_consistency());
  }
}

TEST(DkState, SwapChurnStaysConsistentLevel2) {
  util::Rng rng(9);
  const auto g = builders::gnm(40, 90, rng);
  DkState state(g, TrackLevel::swap_journal);
  const Followed followed = churn(state, 300, rng);
  ASSERT_NO_THROW(state.verify_consistency());
  expect_matches_recount(state, g, followed);
}

TEST(DkState, JddPreservingChurnKeepsJddFixed) {
  util::Rng rng(11);
  const auto g = builders::gnm(30, 90, rng);
  DkState state(g, TrackLevel::full_three_k);
  const Followed followed = churn(state, 150, rng);
  EXPECT_FALSE(state.to_graph() == g);
  expect_matches_recount(state, g, followed);
}

TEST(DkState, VerifyConsistencyPassesOnFreshState) {
  DkState state(builders::complete(4), TrackLevel::swap_journal);
  EXPECT_NO_THROW(state.verify_consistency());
}

}  // namespace
}  // namespace orbis::dk
