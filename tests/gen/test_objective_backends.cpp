// Dense vs sparse 2K objective backends (docs/scaling.md): the two must
// be indistinguishable except for memory — identical distances under any
// apply/revert/commit sequence, identical guided-bin samples, and
// bit-identical whole chains (same seed -> same accepted swaps, equal
// RewiringStats) through RewiringEngine::target_2k.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "gen/matching.hpp"
#include "gen/objective.hpp"
#include "gen/rewiring.hpp"
#include "graph/builders.hpp"
#include "graph/edge_index.hpp"
#include "io/edge_list.hpp"
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

/// Star forest with hub degrees 1..max_hub_degree: the degree-class
/// count C grows linearly with max_hub_degree but only the (1, d) bins
/// are ever occupied — the C^2 >> occupied-bins regime the sparse
/// backend exists for.
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
/// so targeting g's JDD has real work to do.
Graph shuffled_start(const Graph& g, std::uint64_t seed) {
  util::Rng rng(seed);
  return matching_1k(dk::DegreeDistribution::from_graph(g), rng);
}

TEST(ObjectiveBackend, ParseAndPrint) {
  EXPECT_EQ(parse_objective_backend("auto"), ObjectiveBackend::automatic);
  EXPECT_EQ(parse_objective_backend("automatic"),
            ObjectiveBackend::automatic);
  EXPECT_EQ(parse_objective_backend("dense"), ObjectiveBackend::dense);
  EXPECT_EQ(parse_objective_backend("sparse"), ObjectiveBackend::sparse);
  EXPECT_EQ(to_string(ObjectiveBackend::sparse), "sparse");
  try {
    parse_objective_backend("denser");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("denser"), std::string::npos);
    EXPECT_NE(what.find("valid"), std::string::npos);
  }
}

TEST(ObjectiveBackend, AutomaticFollowsTheMemoryBudget) {
  // A handful of classes fits any budget; 50k classes price at
  // 50000^2 * 8 bytes = ~18.6 GiB, far past the 512 MiB default.
  EXPECT_EQ(resolve_objective_backend(ObjectiveBackend::automatic, 100, 512),
            ObjectiveBackend::dense);
  EXPECT_EQ(
      resolve_objective_backend(ObjectiveBackend::automatic, 50'000, 512),
      ObjectiveBackend::sparse);
  EXPECT_GT(dense_jdd_objective_bytes(50'000), 512ull << 20);
  // Budget is the knob: the same class count flips with the budget.
  EXPECT_EQ(resolve_objective_backend(ObjectiveBackend::automatic, 1'000, 4),
            ObjectiveBackend::sparse);
  EXPECT_EQ(resolve_objective_backend(ObjectiveBackend::automatic, 1'000, 16),
            ObjectiveBackend::dense);
  // Explicit requests pass through regardless of size.
  EXPECT_EQ(resolve_objective_backend(ObjectiveBackend::dense, 50'000, 512),
            ObjectiveBackend::dense);
  EXPECT_EQ(resolve_objective_backend(ObjectiveBackend::sparse, 4, 512),
            ObjectiveBackend::sparse);
}

/// Drives both backends through an identical randomized op sequence and
/// checks every observable after every op.
void expect_operationally_equal(const Graph& current, const Graph& target_src,
                                std::uint64_t seed) {
  const EdgeIndex index(current);
  const auto target = dk::JointDegreeDistribution::from_graph(target_src);
  JddObjective dense(index, target);
  SparseJddObjective sparse(index, target);
  ASSERT_EQ(dense.distance(), sparse.distance());
  ASSERT_EQ(dense.has_deviating_bin(), sparse.has_deviating_bin());

  util::Rng op_rng(seed);
  const std::uint32_t classes = index.num_classes();
  for (int step = 0; step < 2000; ++step) {
    const auto ca = static_cast<std::uint32_t>(op_rng.uniform(classes));
    const auto cb = static_cast<std::uint32_t>(op_rng.uniform(classes));
    const auto cc = static_cast<std::uint32_t>(op_rng.uniform(classes));
    const auto cd = static_cast<std::uint32_t>(op_rng.uniform(classes));
    const std::int64_t dd = dense.apply(ca, cb, cc, cd);
    const std::int64_t sd = sparse.apply(ca, cb, cc, cd);
    ASSERT_EQ(dd, sd) << "step " << step;
    ASSERT_EQ(dense.distance(), sparse.distance()) << "step " << step;
    if (op_rng.bernoulli(0.5)) {
      dense.commit(ca, cb, cc, cd);
      sparse.commit(ca, cb, cc, cd);
    } else {
      dense.revert(ca, cb, cc, cd);
      sparse.revert(ca, cb, cc, cd);
    }
    ASSERT_EQ(dense.distance(), sparse.distance()) << "step " << step;
    ASSERT_EQ(dense.has_deviating_bin(), sparse.has_deviating_bin());
    if (dense.has_deviating_bin()) {
      // Identically seeded rngs must sample the identical bin: the
      // deviating lists agree entry for entry, not just as sets.
      util::Rng rng_a(step + 17);
      util::Rng rng_b(step + 17);
      const DeviatingBin a = dense.sample_deviating_bin(rng_a);
      const DeviatingBin b = sparse.sample_deviating_bin(rng_b);
      ASSERT_EQ(a.c1, b.c1) << "step " << step;
      ASSERT_EQ(a.c2, b.c2) << "step " << step;
      ASSERT_EQ(a.deficit, b.deficit) << "step " << step;
    }
  }
}

TEST(ObjectiveBackend, OperationSequencesAgreeOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    util::Rng rng(seed);
    const Graph target_src = builders::gnm(120, 360, rng);
    const Graph current = shuffled_start(target_src, seed + 100);
    expect_operationally_equal(current, target_src, seed);
  }
}

TEST(ObjectiveBackend, OperationSequencesAgreeOnFixture) {
  const Graph fixture = fixture_graph();
  expect_operationally_equal(shuffled_start(fixture, 5), fixture, 7);
}

/// Whole-chain equivalence at the public entry point: same seed, same
/// accepted-swap sequence, equal stats, equal final graph and D2.
void expect_bit_identical_chains(const Graph& original, double temperature,
                                 std::uint64_t seed) {
  const auto target = dk::JointDegreeDistribution::from_graph(original);
  const Graph start = shuffled_start(original, seed + 1000);

  TargetingOptions options;
  options.temperature = temperature;
  options.attempts = 30'000;

  options.objective = ObjectiveBackend::dense;
  util::Rng dense_rng(seed);
  RewiringStats dense_stats;
  double dense_distance = 0.0;
  const Graph dense_result =
      target_2k(start, target, options, dense_rng, &dense_stats,
                &dense_distance);

  options.objective = ObjectiveBackend::sparse;
  util::Rng sparse_rng(seed);
  RewiringStats sparse_stats;
  double sparse_distance = 0.0;
  const Graph sparse_result =
      target_2k(start, target, options, sparse_rng, &sparse_stats,
                &sparse_distance);

  EXPECT_EQ(dense_stats, sparse_stats);
  EXPECT_EQ(dense_distance, sparse_distance);
  EXPECT_TRUE(dense_result == sparse_result);
  // The chains consumed identical randomness: the generators agree too.
  EXPECT_EQ(dense_rng.next(), sparse_rng.next());
}

TEST(ObjectiveBackend, ChainsBitIdenticalGreedy) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    util::Rng rng(seed);
    expect_bit_identical_chains(builders::gnm(300, 900, rng), 0.0, seed);
  }
}

TEST(ObjectiveBackend, ChainsBitIdenticalAnnealing) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    util::Rng rng(seed + 50);
    expect_bit_identical_chains(builders::gnm(300, 900, rng), 3.0, seed);
  }
}

TEST(ObjectiveBackend, ChainsBitIdenticalOnFixture) {
  expect_bit_identical_chains(fixture_graph(), 0.0, 11);
  expect_bit_identical_chains(fixture_graph(), 2.0, 12);
}

TEST(ObjectiveBackend, SkewDegreeStress) {
  // Hub degrees 1..150: C = 150 classes, C^2 = 22'500 logical cells,
  // but only the ~150 (1, d) bins are occupied.
  const Graph forest = star_forest(150);
  const EdgeIndex index(forest);
  ASSERT_GE(index.num_classes(), 150u);

  const auto target = dk::JointDegreeDistribution::from_graph(forest);
  SparseJddObjective sparse(index, target);
  EXPECT_EQ(sparse.distance(), 0);  // current == target bin for bin
  EXPECT_LE(sparse.num_occupied_bins(), 2u * index.num_classes());
  // The sparse table undercuts the dense matrix by a wide margin in
  // exactly this regime.
  EXPECT_LT(sparse.memory_bytes(),
            dense_jdd_objective_bytes(index.num_classes()) / 4);

  expect_operationally_equal(shuffled_start(forest, 21), forest, 23);
  expect_bit_identical_chains(forest, 0.0, 31);
  expect_bit_identical_chains(forest, 2.0, 32);
}

}  // namespace
}  // namespace orbis::gen
