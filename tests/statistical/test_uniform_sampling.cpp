// Statistical tier: does gen::randomize sample its dK class uniformly?
//
// A randomizing chain must be uniform over the dK class of its input
// (paper §4.1.4), and the preservation tests cannot see a bias inside
// the class.  This tier enumerates the whole 1K, 2K and 3K class of one
// 7-node, 9-edge graph (553, 288 and 144 labelled graphs), draws
// independent seeded samples from gen::randomize and compares the
// visit counts with the uniform expectation by Pearson's χ², against
// the upper 10⁻³ quantile of χ² on (class size − 1) degrees of freedom.
//
// The seeds are fixed, so the verdict is deterministic.  A uniform
// sampler still lands past the 10⁻³ quantile once in a thousand seeds,
// so each mode may fail one trial and pass on a second, independently
// seeded one (the allow-fail idiom); a biased sampler fails both.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/joint_degree_distribution.hpp"
#include "core/three_k_profile.hpp"
#include "gen/rewiring.hpp"

namespace orbis::gen {
namespace {

constexpr NodeId kNodes = 7;
constexpr std::uint32_t kPairs = kNodes * (kNodes - 1) / 2;

/// Bit of pair (u,v), u != v, in a 21-bit edge mask.
std::uint32_t pair_bit(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  // Pairs (0,1)..(0,6), (1,2)..(1,6), ...: row u starts after
  // Σ_{i<u} (n-1-i) pairs.
  const std::uint32_t row_start = u * (2 * kNodes - u - 1) / 2;
  return 1u << (row_start + (v - u - 1));
}

std::uint32_t mask_of(const Graph& g) {
  std::uint32_t mask = 0;
  for (const Edge& e : g.edges()) mask |= pair_bit(e.u, e.v);
  return mask;
}

Graph graph_of(std::uint32_t mask) {
  std::vector<Edge> edges;
  for (NodeId u = 0; u < kNodes; ++u) {
    for (NodeId v = u + 1; v < kNodes; ++v) {
      if ((mask & pair_bit(u, v)) != 0) edges.push_back({u, v});
    }
  }
  return Graph::from_edges(kNodes, edges);
}

/// Degrees 3,2,2,2,3,3,3 with two triangles: its 3K class is a strict
/// subset of its 2K class, which is a strict subset of its 1K class.
Graph start_graph() {
  return Graph::from_edges(kNodes, std::vector<Edge>{{0, 4},
                                                     {0, 5},
                                                     {0, 6},
                                                     {1, 3},
                                                     {1, 4},
                                                     {2, 5},
                                                     {2, 6},
                                                     {3, 6},
                                                     {4, 5}});
}

/// The dK classes of the start graph, d = 1..3, as graph-mask -> index.
struct Classes {
  std::map<std::uint32_t, std::size_t> of_level[4];
};

const Classes& classes() {
  static const Classes built = [] {
    Classes out;
    const Graph start = start_graph();
    const auto jdd = dk::JointDegreeDistribution::from_graph(start);
    const auto three_k = dk::ThreeKProfile::from_graph(start);
    for (std::uint32_t mask = 0; mask < (1u << kPairs); ++mask) {
      if (static_cast<std::size_t>(std::popcount(mask)) != start.num_edges()) {
        continue;
      }
      bool same_degrees = true;
      for (NodeId v = 0; v < kNodes && same_degrees; ++v) {
        std::size_t degree = 0;
        for (NodeId w = 0; w < kNodes; ++w) {
          degree += w != v && (mask & pair_bit(v, w)) != 0;
        }
        same_degrees = degree == start.degree(v);
      }
      if (!same_degrees) continue;
      const Graph g = graph_of(mask);
      out.of_level[1].emplace(mask, out.of_level[1].size());
      if (dk::JointDegreeDistribution::from_graph(g) != jdd) continue;
      out.of_level[2].emplace(mask, out.of_level[2].size());
      if (dk::ThreeKProfile::from_graph(g) != three_k) continue;
      out.of_level[3].emplace(mask, out.of_level[3].size());
    }
    return out;
  }();
  return built;
}

/// Upper 10⁻³ quantile of χ² on `dof` degrees of freedom, by the
/// Wilson–Hilferty cube approximation (relative error < 0.5% past 30
/// dof, far below the margin a biased sampler leaves).
double chi2_upper_quantile(double dof) {
  constexpr double kZ = 3.090232;  // standard normal upper 10⁻³ quantile
  const double a = 2.0 / (9.0 * dof);
  return dof * std::pow(1.0 - a + kZ * std::sqrt(a), 3.0);
}

struct Mode {
  int d;
  MoveKind move;
  /// Attempts per sample: enough for the chain to forget its start.
  /// The 3K chain rejects most proposals, so it needs the most.
  std::size_t attempts;
};

std::string name_of(const Mode& mode) {
  return "d" + std::to_string(mode.d) + "_" + to_string(mode.move);
}

constexpr std::size_t kSamples = 20000;

/// Pearson's χ² of kSamples independent gen::randomize draws from the
/// start graph, each mode.attempts long, over the class.
/// Fails the test outright if a sample leaves the class.
double chi2_of_trial(const Mode& mode, std::uint64_t seed) {
  const auto& level = classes().of_level[mode.d];
  const Graph start = start_graph();
  RandomizeOptions options;
  options.d = mode.d;
  options.move = mode.move;
  options.attempts = mode.attempts;
  util::Rng rng(seed);
  std::vector<std::size_t> visits(level.size(), 0);
  for (std::size_t sample = 0; sample < kSamples; ++sample) {
    const auto it = level.find(mask_of(randomize(start, options, rng)));
    if (it == level.end()) {
      ADD_FAILURE() << name_of(mode) << ": a sample left the dK class";
      return 0.0;
    }
    ++visits[it->second];
  }
  const double expected =
      static_cast<double>(kSamples) / static_cast<double>(level.size());
  double chi2 = 0.0;
  for (const std::size_t count : visits) {
    const double diff = static_cast<double>(count) - expected;
    chi2 += diff * diff / expected;
  }
  return chi2;
}

class UniformOverDkClass : public ::testing::TestWithParam<Mode> {};

TEST_P(UniformOverDkClass, ChiSquareWithinTheTenToMinusThreeQuantile) {
  const Mode mode = GetParam();
  const std::size_t size = classes().of_level[mode.d].size();
  ASSERT_GE(size, 100u);
  const double dof = static_cast<double>(size - 1);
  const double bound = chi2_upper_quantile(dof);
  constexpr int kTrials = 2;  // allow one unlucky trial
  double chi2 = 0.0;
  for (int trial = 0; trial < kTrials; ++trial) {
    chi2 = chi2_of_trial(mode, 1000 + static_cast<std::uint64_t>(
                                          10 * mode.d + trial));
    std::printf("%s trial %d: chi2 %.1f on %.0f dof (bound %.1f)\n",
                name_of(mode).c_str(), trial, chi2, dof, bound);
    if (chi2 <= bound) break;
  }
  EXPECT_LE(chi2, bound) << name_of(mode) << ": χ² " << chi2 << " on "
                         << dof << " dof in both trials";
}

TEST(UniformOverDkClass, ClassesAreNestedAndSized) {
  EXPECT_EQ(classes().of_level[1].size(), 553u);
  EXPECT_EQ(classes().of_level[2].size(), 288u);
  EXPECT_EQ(classes().of_level[3].size(), 144u);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, UniformOverDkClass,
    ::testing::Values(Mode{1, MoveKind::swap, 100},
                      Mode{2, MoveKind::swap, 100},
                      Mode{3, MoveKind::swap, 400},
                      Mode{1, MoveKind::trade, 100},
                      Mode{2, MoveKind::trade, 100},
                      Mode{1, MoveKind::mixed, 100},
                      Mode{2, MoveKind::mixed, 100}),
    [](const ::testing::TestParamInfo<Mode>& info) {
      return name_of(info.param);
    });

}  // namespace
}  // namespace orbis::gen
