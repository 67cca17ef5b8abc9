// The 3K randomizing chain's O(1) prefilter (gen::changes_two_paths)
// against the exact wedge/triangle journal: every candidate it rejects
// must change the 3K profile, on both branches of the JDD-preserving
// draw, and the neighbour-degree sums it reads must follow the accepted
// swaps exactly.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/dk_state.hpp"
#include "core/three_k_profile.hpp"
#include "gen/matching.hpp"
#include "gen/rewiring_engine.hpp"
#include "graph/builders.hpp"
#include "topo/as_level.hpp"

namespace orbis::gen {
namespace {

/// The engine's 2K-preserving draw: a uniform half-edge (a,b), then a
/// partner anchored in class(b), read as (d,c), or in class(a), read as
/// (c,d).
Swap draw_candidate(const EdgeIndex& index, util::Rng& rng) {
  const Edge ab = index.sample_half_edge(rng);
  if (rng.bernoulli(0.5)) {
    const Edge dc = index.sample_class_half_edge(index.node_class(ab.v), rng);
    return Swap{ab.u, ab.v, dc.v, dc.u};
  }
  const Edge cd = index.sample_class_half_edge(index.node_class(ab.u), rng);
  return Swap{ab.u, ab.v, cd.u, cd.v};
}

bool structurally_valid(const EdgeIndex& index, const Swap& s) {
  if (s.a == s.c || s.a == s.d || s.b == s.c || s.b == s.d) return false;
  return !index.has_edge(s.a, s.d) && !index.has_edge(s.c, s.b);
}

/// What one run of the prefilter against the journal saw.
struct Tally {
  std::size_t caught_bd = 0;   // rejected on the k_b = k_d branch
  std::size_t caught_ac = 0;   // rejected on the k_a = k_c branch
  std::size_t changing = 0;    // candidates whose journal is non-empty
  std::size_t unsound = 0;     // rejected, yet the journal is empty
  std::size_t accepted = 0;
};

/// Runs `attempts` engine-style candidates on `g`: each valid one is
/// judged by both the prefilter and the journal, and the 3K-preserving
/// ones are committed, moving the sums with them.
Tally run_against_journal(const Graph& g, std::size_t attempts,
                          std::uint64_t seed) {
  EdgeIndex index(g);
  dk::DkState state(index, dk::TrackLevel::swap_journal);
  std::vector<std::int64_t> sums = neighbor_degree_sums(index);
  dk::SwapDelta delta;
  util::Rng rng(seed);
  Tally tally;
  for (std::size_t i = 0; i < attempts; ++i) {
    const Swap s = draw_candidate(index, rng);
    if (!structurally_valid(index, s)) continue;
    const bool caught = changes_two_paths(index, sums, s);
    state.evaluate_swap(s.a, s.b, s.c, s.d, delta);
    const bool preserving = delta.journal.all_zero();
    if (caught) {
      const bool bd = index.degree(s.b) == index.degree(s.d);
      ++(bd ? tally.caught_bd : tally.caught_ac);
      tally.unsound += preserving;
    }
    if (!preserving) {
      ++tally.changing;
      continue;
    }
    state.commit_swap(delta);
    apply_swap_to_sums(index, s, sums);
    ++tally.accepted;
  }
  EXPECT_EQ(sums, neighbor_degree_sums(index))
      << "the maintained sums drifted from a recount";
  EXPECT_EQ(dk::ThreeKProfile::from_graph(index.to_graph()),
            dk::ThreeKProfile::from_graph(g));
  return tally;
}

void expect_sound(const Tally& tally, const std::string& shape) {
  const std::size_t caught = tally.caught_bd + tally.caught_ac;
  std::printf("%s: %zu of %zu 3K-changing candidates caught (%zu on "
              "k_b = k_d, %zu on k_a = k_c), %zu unsound, %zu accepted\n",
              shape.c_str(), caught, tally.changing, tally.caught_bd,
              tally.caught_ac, tally.unsound, tally.accepted);
  EXPECT_EQ(tally.unsound, 0u);
  EXPECT_GT(tally.caught_bd, 0u);
  EXPECT_GT(tally.caught_ac, 0u);
  EXPECT_GT(tally.accepted, 0u);
  // Not a soundness property, but a prefilter that catches little is
  // not worth its pass.
  EXPECT_GT(caught * 2, tally.changing);
}

TEST(ThreeKPrefilter, SoundOnAPowerLawHubGraph) {
  topo::AsLevelOptions options;
  options.num_nodes = 3000;
  options.gamma = 1.93;
  options.max_degree_cap = 300;
  util::Rng rng(11);
  const Graph g = matching_1k(dk::DegreeDistribution::from_sequence(
                                  topo::power_law_degree_sequence(options)),
                              rng);
  ASSERT_GT(g.max_degree(), 100u);
  expect_sound(run_against_journal(g, 200000, 12), "hub");
}

TEST(ThreeKPrefilter, SoundOnAGnmGraph) {
  util::Rng rng(13);
  const Graph g = builders::gnm(3000, 9000, rng);
  expect_sound(run_against_journal(g, 200000, 14), "G(n,3n)");
}

TEST(ThreeKPrefilter, BothLabelingsOfASwapReadTheSameSums) {
  // Paths 0-1-2-7 and 3-4-5-6.  The swap (0,1),(5,4) -> (0,4),(5,1) has
  // k_1 = k_4 = 2 and k_0 = 1 != k_5 = 2; the 2-paths centred at 1 and
  // at 4 keep the far neighbours 2 (degree 2) and 3 (degree 1).
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 7}, {3, 4}, {4, 5}, {5, 6}};
  const Graph differ = Graph::from_edges(9, edges);
  const EdgeIndex index(differ);
  const std::vector<std::int64_t> sums = neighbor_degree_sums(index);
  EXPECT_EQ(sums, (std::vector<std::int64_t>{2, 3, 3, 2, 3, 3, 2, 2, 0}));
  // s_1 - k_0 = 2 against s_4 - k_5 = 1, on the k_b = k_d branch, and
  // the same swap labeled (b,a,d,c) on the k_a = k_c branch.
  EXPECT_TRUE(changes_two_paths(index, sums, Swap{0, 1, 5, 4}));
  EXPECT_TRUE(changes_two_paths(index, sums, Swap{1, 0, 4, 5}));
  const dk::DkState state(differ, dk::TrackLevel::swap_journal);
  dk::SwapDelta delta;
  state.evaluate_swap(0, 1, 5, 4, delta);
  EXPECT_FALSE(delta.journal.all_zero());

  // A pendant 8 on node 3 makes both far neighbours degree 2: the sums
  // agree and the prefilter leaves the swap to the journal.
  edges.push_back({3, 8});
  const Graph agree = Graph::from_edges(9, edges);
  const EdgeIndex agree_index(agree);
  const std::vector<std::int64_t> agree_sums =
      neighbor_degree_sums(agree_index);
  EXPECT_FALSE(changes_two_paths(agree_index, agree_sums, Swap{0, 1, 5, 4}));
  EXPECT_FALSE(changes_two_paths(agree_index, agree_sums, Swap{1, 0, 4, 5}));

  // Moving the sums across the swap equals recounting after it.
  std::vector<std::int64_t> moved = sums;
  apply_swap_to_sums(index, Swap{0, 1, 5, 4}, moved);
  edges.pop_back();
  edges[0] = {0, 4};
  edges[4] = {5, 1};
  const EdgeIndex swapped(Graph::from_edges(9, edges));
  EXPECT_EQ(moved, neighbor_degree_sums(swapped));
}

}  // namespace
}  // namespace orbis::gen
