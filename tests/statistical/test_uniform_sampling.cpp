// Statistical tier: do the rewiring chains sample the ensembles they
// claim?
//
// A randomizing chain must be uniform over the dK class of its input
// (paper §4.1.4), and a Metropolis dK-targeting chain at temperature T
// must visit each graph of its (d-1)K class ∝ e^{-D_d/T}.  The
// preservation tests cannot see a bias inside a class.  This tier
// enumerates the whole 1K, 2K and 3K class of one 7-node, 9-edge graph
// (553, 288 and 144 labelled graphs), draws independent seeded samples
// from gen::randomize, gen::target_2k and gen::target_3k, and compares
// the visit counts with the expected ones by Pearson's χ² per graph
// (cells expected below 5 pooled into one), against the upper 10⁻³
// quantile of χ² on (cells − 1) degrees of freedom.
//
// The seeds are fixed, so the verdict is deterministic.  A correct
// sampler still lands past the 10⁻³ quantile once in a thousand seeds,
// so each mode may fail one trial and pass on a second, independently
// seeded one (the allow-fail idiom); a biased sampler fails both.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/joint_degree_distribution.hpp"
#include "core/series.hpp"
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

constexpr std::size_t kSamples = 20000;

struct Chi2 {
  double value = 0.0;
  double dof = 0.0;
};

/// Pearson's χ² of `visits` against `expected`, one cell per graph;
/// cells expected below 5 are pooled into one, where the χ²
/// approximation needs it.
Chi2 pearson(const std::vector<std::size_t>& visits,
             const std::vector<double>& expected) {
  Chi2 out;
  double pooled_visits = 0.0;
  double pooled_expected = 0.0;
  std::size_t cells = 0;
  const auto add_cell = [&](double count, double want) {
    const double diff = count - want;
    out.value += diff * diff / want;
    ++cells;
  };
  for (std::size_t i = 0; i < visits.size(); ++i) {
    if (expected[i] < 5.0) {
      pooled_visits += static_cast<double>(visits[i]);
      pooled_expected += expected[i];
    } else {
      add_cell(static_cast<double>(visits[i]), expected[i]);
    }
  }
  if (pooled_expected > 0.0) add_cell(pooled_visits, pooled_expected);
  out.dof = static_cast<double>(cells - 1);
  return out;
}

/// Visits per class member over kSamples draws.  Fails the test
/// outright, returning nothing, if a sample leaves the class.
std::vector<std::size_t> visit_counts(
    const std::map<std::uint32_t, std::size_t>& level,
    const std::function<Graph()>& draw, const std::string& name) {
  std::vector<std::size_t> visits(level.size(), 0);
  for (std::size_t sample = 0; sample < kSamples; ++sample) {
    const auto it = level.find(mask_of(draw()));
    if (it == level.end()) {
      ADD_FAILURE() << name << ": a sample left the class";
      return {};
    }
    ++visits[it->second];
  }
  return visits;
}

/// The allow-fail idiom: `trial(0)`, and `trial(1)` only if the first
/// lands past the 10⁻³ quantile.
void expect_chi2_within_bound(const std::string& name,
                              const std::function<Chi2(int)>& trial) {
  constexpr int kTrials = 2;
  Chi2 chi2;
  double bound = 0.0;
  for (int t = 0; t < kTrials; ++t) {
    chi2 = trial(t);
    bound = chi2_upper_quantile(chi2.dof);
    std::printf("%s trial %d: chi2 %.1f on %.0f dof (bound %.1f)\n",
                name.c_str(), t, chi2.value, chi2.dof, bound);
    if (chi2.value <= bound) break;
  }
  EXPECT_LE(chi2.value, bound) << name << ": χ² " << chi2.value << " on "
                               << chi2.dof << " dof in both trials";
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

class UniformOverDkClass : public ::testing::TestWithParam<Mode> {};

TEST_P(UniformOverDkClass, ChiSquareWithinTheTenToMinusThreeQuantile) {
  const Mode mode = GetParam();
  const auto& level = classes().of_level[mode.d];
  ASSERT_GE(level.size(), 100u);
  const Graph start = start_graph();
  RandomizeOptions options;
  options.d = mode.d;
  options.move = mode.move;
  options.attempts = mode.attempts;
  const std::vector<double> expected(
      level.size(),
      static_cast<double>(kSamples) / static_cast<double>(level.size()));
  expect_chi2_within_bound(name_of(mode), [&](int trial) {
    util::Rng rng(1000 + static_cast<std::uint64_t>(10 * mode.d + trial));
    const auto visits = visit_counts(
        level, [&] { return randomize(start, options, rng); }, name_of(mode));
    return visits.empty() ? Chi2{} : pearson(visits, expected);
  });
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

// dK targeting at temperature T, d = 2 over the 1K class and d = 3 over
// the 2K class, toward the start graph's own dK distribution.  Each
// sample is one chain from the class member farthest from the target;
// stop_distance < 0 keeps a chain walking after it reaches D = 0.
constexpr double kTemperature = 2.0;

class BoltzmannOverClass : public ::testing::TestWithParam<Mode> {};

TEST_P(BoltzmannOverClass, ChiSquareWithinTheTenToMinusThreeQuantile) {
  const Mode mode = GetParam();
  const auto& level = classes().of_level[mode.d - 1];
  const Graph target_graph = start_graph();
  const auto jdd = dk::JointDegreeDistribution::from_graph(target_graph);
  const auto three_k = dk::ThreeKProfile::from_graph(target_graph);
  std::vector<double> distance(level.size());
  std::uint32_t farthest = 0;
  double max_distance = -1.0;
  for (const auto& [mask, index] : level) {
    const Graph g = graph_of(mask);
    distance[index] =
        mode.d == 2
            ? dk::distance_2k(dk::JointDegreeDistribution::from_graph(g), jdd)
            : dk::distance_3k(dk::ThreeKProfile::from_graph(g), three_k);
    if (distance[index] > max_distance) {
      max_distance = distance[index];
      farthest = mask;
    }
  }
  ASSERT_GT(max_distance, 0.0);
  std::vector<double> expected(level.size());
  double z = 0.0;
  for (std::size_t i = 0; i < level.size(); ++i) {
    expected[i] = std::exp(-distance[i] / kTemperature);
    z += expected[i];
  }
  for (double& weight : expected) weight *= static_cast<double>(kSamples) / z;

  const Graph start = graph_of(farthest);
  TargetingOptions options;
  options.temperature = kTemperature;
  options.move = mode.move;
  options.attempts = mode.attempts;
  options.stop_distance = -1.0;
  const std::string name = "target_" + name_of(mode);
  expect_chi2_within_bound(name, [&](int trial) {
    util::Rng rng(2000 + static_cast<std::uint64_t>(10 * mode.d + trial));
    const auto visits = visit_counts(
        level,
        [&] {
          return mode.d == 2 ? target_2k(start, jdd, options, rng)
                             : target_3k(start, three_k, options, rng);
        },
        name);
    return visits.empty() ? Chi2{} : pearson(visits, expected);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Modes, BoltzmannOverClass,
    ::testing::Values(Mode{2, MoveKind::swap, 200},
                      Mode{2, MoveKind::mixed, 200},
                      Mode{3, MoveKind::swap, 800},
                      Mode{3, MoveKind::mixed, 800}),
    [](const ::testing::TestParamInfo<Mode>& info) {
      return name_of(info.param);
    });

}  // namespace
}  // namespace orbis::gen
