// JddObjective against a recount oracle: after every apply / commit /
// revert, distance() must equal Σ (current - target)^2 recounted from
// scratch over the class pairs (plus the constant of target bins no
// degree-preserving swap can reach), the deviating set must hold
// exactly the bins that differ from the target, and every sampled bin
// must be one of them with the right deficit flag.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "gen/matching.hpp"
#include "gen/objective.hpp"
#include "graph/builders.hpp"
#include "graph/edge_index.hpp"
#include "io/edge_list.hpp"
#include "util/keys.hpp"
#include "util/rng.hpp"

namespace orbis::gen {
namespace {

std::string data_dir() {
  const char* dir = std::getenv("ORBIS_TEST_DATA_DIR");
  return dir != nullptr ? dir : "tests/data";
}

Graph fixture_graph() {
  return io::read_edge_list_file(data_dir() + "/fixture.edges").graph;
}

/// Star forest with hub degrees 1..max_hub_degree: C grows with
/// max_hub_degree while only the (1, d) bins are occupied.
Graph star_forest(std::uint32_t max_hub_degree) {
  std::vector<Edge> edges;
  NodeId next = 0;
  for (std::uint32_t d = 1; d <= max_hub_degree; ++d) {
    const NodeId hub = next++;
    for (std::uint32_t leaf = 0; leaf < d; ++leaf) {
      edges.push_back(Edge{hub, next++});
    }
  }
  return Graph::from_edges(next, edges);
}

/// A start graph with g's exact degree sequence but re-randomized edges,
/// so the objective starts away from g's JDD.
Graph shuffled_start(const Graph& g, std::uint64_t seed) {
  util::Rng rng(seed);
  return matching_1k(dk::DegreeDistribution::from_graph(g), rng);
}

/// The oracle: per class pair, the current and target edge counts, kept
/// by plain counting and summed from scratch on every query.
class Recount {
 public:
  Recount(const EdgeIndex& index, const dk::JointDegreeDistribution& target)
      : classes_(index.num_classes()),
        current_(classes_ * classes_, 0),
        target_(classes_ * classes_, 0) {
    index.for_each_edge([&](NodeId u, NodeId v) {
      ++current_[at(index.node_class(u), index.node_class(v))];
    });
    for (const auto& [key, count] : target.histogram().bins()) {
      const auto [k1, k2] = util::unpack_pair(key);
      const std::uint32_t c1 = index.class_of_degree(k1);
      const std::uint32_t c2 = index.class_of_degree(k2);
      if (c1 == EdgeIndex::npos || c2 == EdgeIndex::npos) {
        unreachable_ += count * count;
      } else {
        target_[at(c1, c2)] += count;
      }
    }
  }

  /// The bin moves of (a,b),(c,d) -> (a,d),(c,b), or their inverse.
  void move(std::uint32_t ca, std::uint32_t cb, std::uint32_t cc,
            std::uint32_t cd, std::int64_t sign) {
    current_[at(ca, cb)] -= sign;
    current_[at(cc, cd)] -= sign;
    current_[at(ca, cd)] += sign;
    current_[at(cc, cb)] += sign;
  }

  std::int64_t distance() const {
    std::int64_t sum = unreachable_;
    for (std::size_t c1 = 0; c1 < classes_; ++c1) {
      for (std::size_t c2 = c1; c2 < classes_; ++c2) {
        const std::int64_t diff = current_[at(c1, c2)] - target_[at(c1, c2)];
        sum += diff * diff;
      }
    }
    return sum;
  }

  bool any_deviating() const {
    for (std::size_t c1 = 0; c1 < classes_; ++c1) {
      for (std::size_t c2 = c1; c2 < classes_; ++c2) {
        if (current_[at(c1, c2)] != target_[at(c1, c2)]) return true;
      }
    }
    return false;
  }

  /// Every deviating bin (c1 <= c2), in (c1, c2) order.
  std::vector<std::pair<std::size_t, std::size_t>> deviating_bins() const {
    std::vector<std::pair<std::size_t, std::size_t>> bins;
    for (std::size_t c1 = 0; c1 < classes_; ++c1) {
      for (std::size_t c2 = c1; c2 < classes_; ++c2) {
        if (current_[at(c1, c2)] != target_[at(c1, c2)]) {
          bins.emplace_back(c1, c2);
        }
      }
    }
    return bins;
  }

  std::int64_t current(std::size_t c1, std::size_t c2) const {
    return current_[at(c1, c2)];
  }
  std::int64_t target(std::size_t c1, std::size_t c2) const {
    return target_[at(c1, c2)];
  }
  std::int64_t unreachable() const { return unreachable_; }

 private:
  std::size_t at(std::size_t c1, std::size_t c2) const {
    return c1 <= c2 ? c1 * classes_ + c2 : c2 * classes_ + c1;
  }

  std::size_t classes_;
  std::vector<std::int64_t> current_;
  std::vector<std::int64_t> target_;
  std::int64_t unreachable_ = 0;
};

/// Checks the deviating set after a commit or revert (membership is
/// refreshed only there, so it is stale between apply and either).  A
/// sample is the rank-th deviating bin in (c1, c2) order for one
/// uniform rank, whatever order the bins started deviating in.
void expect_deviating_set_matches(const JddObjective& objective,
                                  const Recount& oracle, util::Rng& rng,
                                  int step) {
  ASSERT_EQ(objective.has_deviating_bin(), oracle.any_deviating())
      << "step " << step;
  if (!objective.has_deviating_bin()) return;
  const auto bins = oracle.deviating_bins();
  for (int sample = 0; sample < 4; ++sample) {
    util::Rng peek = util::Rng::from_state_words(rng.state_words());
    const auto want = bins[peek.uniform(bins.size())];
    const DeviatingBin bin = objective.sample_deviating_bin(rng);
    ASSERT_EQ(bin.c1, want.first) << "step " << step;
    ASSERT_EQ(bin.c2, want.second) << "step " << step;
    ASSERT_LE(bin.c1, bin.c2) << "step " << step;
    const std::int64_t current = oracle.current(bin.c1, bin.c2);
    const std::int64_t target = oracle.target(bin.c1, bin.c2);
    ASSERT_NE(current, target) << "step " << step << " bin (" << bin.c1
                               << "," << bin.c2 << ")";
    ASSERT_EQ(bin.deficit, current < target) << "step " << step;
  }
}

/// Random apply/commit/revert sequence over random class quadruples,
/// checked against the oracle after every op.
void expect_matches_recount(const Graph& current, const Graph& target_src,
                            std::uint64_t seed, int steps = 2000) {
  const EdgeIndex index(current);
  const auto target = dk::JointDegreeDistribution::from_graph(target_src);
  JddObjective objective(index, target);
  Recount oracle(index, target);
  util::Rng sample_rng(seed + 1);
  ASSERT_EQ(objective.distance(), oracle.distance());
  expect_deviating_set_matches(objective, oracle, sample_rng, -1);

  util::Rng op_rng(seed);
  const std::uint32_t classes = index.num_classes();
  for (int step = 0; step < steps; ++step) {
    const auto ca = static_cast<std::uint32_t>(op_rng.uniform(classes));
    const auto cb = static_cast<std::uint32_t>(op_rng.uniform(classes));
    const auto cc = static_cast<std::uint32_t>(op_rng.uniform(classes));
    const auto cd = static_cast<std::uint32_t>(op_rng.uniform(classes));
    const std::int64_t before = objective.distance();
    const std::int64_t delta = objective.apply(ca, cb, cc, cd);
    oracle.move(ca, cb, cc, cd, +1);
    ASSERT_EQ(objective.distance(), oracle.distance()) << "step " << step;
    ASSERT_EQ(objective.distance(), before + delta) << "step " << step;
    if (op_rng.bernoulli(0.5)) {
      objective.commit(ca, cb, cc, cd);
    } else {
      objective.revert(ca, cb, cc, cd);
      oracle.move(ca, cb, cc, cd, -1);
    }
    ASSERT_EQ(objective.distance(), oracle.distance()) << "step " << step;
    expect_deviating_set_matches(objective, oracle, sample_rng, step);
  }
}

TEST(JddObjective, MatchesRecountOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    util::Rng rng(seed);
    const Graph target_src = builders::gnm(120, 360, rng);
    expect_matches_recount(shuffled_start(target_src, seed + 100), target_src,
                           seed);
  }
}

TEST(JddObjective, MatchesRecountWithUnreachableTargetBins) {
  // The target comes from a denser graph, so some of its degrees exist
  // nowhere in the current graph: those bins add a constant.
  util::Rng rng(9);
  const Graph current = builders::gnm(120, 240, rng);
  const Graph target_src = builders::gnm(120, 600, rng);
  const EdgeIndex index(current);
  const Recount oracle(index,
                       dk::JointDegreeDistribution::from_graph(target_src));
  ASSERT_GT(oracle.unreachable(), 0);
  expect_matches_recount(current, target_src, 9);
}

TEST(JddObjective, MatchesRecountOnFixture) {
  const Graph fixture = fixture_graph();
  expect_matches_recount(shuffled_start(fixture, 5), fixture, 7);
}

TEST(JddObjective, MatchesRecountOnStarForest) {
  // C = 100 classes (hub degrees 2..100 plus the leaves' 1), only the
  // (1, d) bins occupied.
  const Graph forest = star_forest(100);
  const EdgeIndex index(forest);
  ASSERT_EQ(index.num_classes(), 100u);
  const JddObjective at_target(
      index, dk::JointDegreeDistribution::from_graph(forest));
  EXPECT_EQ(at_target.distance(), 0);
  EXPECT_FALSE(at_target.has_deviating_bin());
  expect_matches_recount(shuffled_start(forest, 21), forest, 23, 500);
}

}  // namespace
}  // namespace orbis::gen
