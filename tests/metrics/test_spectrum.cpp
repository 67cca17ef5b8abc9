#include "metrics/spectrum.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/degree_distribution.hpp"
#include "gen/matching.hpp"
#include "graph/algorithms.hpp"
#include "graph/builders.hpp"
#include "metrics/dense_eigen.hpp"
#include "topo/as_level.hpp"
#include "util/rng.hpp"

namespace orbis::metrics {
namespace {

constexpr double pi = 3.14159265358979323846;

TEST(TridiagonalEigenvalues, TwoByTwo) {
  // [[2,1],[1,2]] -> {1,3}.
  const auto values = tridiagonal_eigenvalues({2.0, 2.0}, {1.0});
  ASSERT_EQ(values.size(), 2u);
  EXPECT_NEAR(values[0], 1.0, 1e-12);
  EXPECT_NEAR(values[1], 3.0, 1e-12);
}

TEST(TridiagonalEigenvalues, DiagonalOnly) {
  const auto values = tridiagonal_eigenvalues({3.0, 1.0, 2.0}, {0.0, 0.0});
  ASSERT_EQ(values.size(), 3u);
  EXPECT_NEAR(values[0], 1.0, 1e-12);
  EXPECT_NEAR(values[1], 2.0, 1e-12);
  EXPECT_NEAR(values[2], 3.0, 1e-12);
}

TEST(TridiagonalEigenvalues, DiscreteLaplacianChain) {
  // Tridiag(-1, 2, -1) of size n has eigenvalues 2 - 2cos(k pi/(n+1)).
  const std::size_t n = 12;
  const auto values = tridiagonal_eigenvalues(
      std::vector<double>(n, 2.0), std::vector<double>(n - 1, -1.0));
  for (std::size_t k = 1; k <= n; ++k) {
    const double expected =
        2.0 - 2.0 * std::cos(static_cast<double>(k) * pi /
                             static_cast<double>(n + 1));
    EXPECT_NEAR(values[k - 1], expected, 1e-9) << "k=" << k;
  }
}

TEST(TridiagonalEigenvalues, SizeMismatchThrows) {
  EXPECT_THROW(tridiagonal_eigenvalues({1.0, 2.0}, {0.5, 0.5}),
               std::invalid_argument);
}

TEST(DenseEigen, KnownSymmetricMatrix) {
  const auto values =
      dense_symmetric_eigenvalues({{2.0, 1.0}, {1.0, 2.0}});
  ASSERT_EQ(values.size(), 2u);
  EXPECT_NEAR(values[0], 1.0, 1e-9);
  EXPECT_NEAR(values[1], 3.0, 1e-9);
}

TEST(DenseEigen, NonSquareThrows) {
  EXPECT_THROW(dense_symmetric_eigenvalues({{1.0, 2.0}}),
               std::invalid_argument);
}

TEST(FullSpectrum, CompleteGraph) {
  // K_n normalized Laplacian: 0 once, n/(n-1) with multiplicity n-1.
  const auto values = full_laplacian_spectrum(builders::complete(5));
  EXPECT_NEAR(values[0], 0.0, 1e-9);
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_NEAR(values[i], 5.0 / 4.0, 1e-9);
  }
}

TEST(FullSpectrum, StarGraph) {
  // Star: eigenvalues {0, 1 (n-2 times), 2}.
  const auto values = full_laplacian_spectrum(builders::star(6));
  EXPECT_NEAR(values.front(), 0.0, 1e-9);
  EXPECT_NEAR(values.back(), 2.0, 1e-9);
  for (std::size_t i = 1; i + 1 < values.size(); ++i) {
    EXPECT_NEAR(values[i], 1.0, 1e-9);
  }
}

TEST(LaplacianExtremes, CompleteGraph) {
  const auto result = laplacian_extremes(builders::complete(6));
  EXPECT_NEAR(result.lambda1, 6.0 / 5.0, 1e-7);
  EXPECT_NEAR(result.lambda_max, 6.0 / 5.0, 1e-7);
}

TEST(LaplacianExtremes, CycleClosedForm) {
  // C_n: eigenvalues 1 - cos(2 pi k / n).
  const auto result = laplacian_extremes(builders::cycle(10));
  EXPECT_NEAR(result.lambda1, 1.0 - std::cos(2.0 * pi / 10.0), 1e-7);
  EXPECT_NEAR(result.lambda_max, 2.0, 1e-7);  // even cycle is bipartite
}

TEST(LaplacianExtremes, BipartiteHasLambdaMaxTwo) {
  EXPECT_NEAR(laplacian_extremes(builders::star(9)).lambda_max, 2.0, 1e-7);
  EXPECT_NEAR(laplacian_extremes(builders::grid(3, 4)).lambda_max, 2.0,
              1e-7);
  EXPECT_NEAR(
      laplacian_extremes(builders::complete_bipartite(3, 5)).lambda_max,
      2.0, 1e-7);
}

TEST(LaplacianExtremes, SingleEdge) {
  const auto result = laplacian_extremes(builders::path(2));
  EXPECT_NEAR(result.lambda1, 2.0, 1e-12);
  EXPECT_NEAR(result.lambda_max, 2.0, 1e-12);
}

TEST(LaplacianExtremes, EmptyAndEdgeless) {
  EXPECT_DOUBLE_EQ(laplacian_extremes(Graph(0)).lambda_max, 0.0);
  EXPECT_DOUBLE_EQ(laplacian_extremes(Graph(5)).lambda_max, 0.0);
}

TEST(LaplacianExtremes, UsesGiantComponent) {
  // A triangle plus an isolated edge: spectrum of the GCC (triangle).
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(3, 4);
  const auto result = laplacian_extremes(g);
  EXPECT_NEAR(result.lambda1, 1.5, 1e-7);   // K3: n/(n-1)
  EXPECT_NEAR(result.lambda_max, 1.5, 1e-7);
}

TEST(LaplacianExtremes, MatchesDenseSolverOnRandomGraphs) {
  for (const std::uint64_t seed : {2ull, 3ull, 4ull, 5ull}) {
    util::Rng rng(seed);
    const auto g = builders::gnm(40, 90, rng);
    const auto gcc_full = full_laplacian_spectrum(g);
    const auto lanczos = laplacian_extremes(g);
    // Dense spectrum is over the whole graph; pick the smallest non-zero
    // and the largest.  The random graphs here are connected w.h.p., and
    // isolated nodes contribute extra zeros only.
    double smallest_nonzero = 2.0;
    for (const double v : gcc_full) {
      if (v > 1e-8) {
        smallest_nonzero = v;
        break;
      }
    }
    EXPECT_NEAR(lanczos.lambda1, smallest_nonzero, 1e-6) << "seed " << seed;
    EXPECT_NEAR(lanczos.lambda_max, gcc_full.back(), 1e-6)
        << "seed " << seed;
  }
}

TEST(LaplacianExtremes, OneRunMatchesDenseSolverOnHeavyTailedGraphs) {
  // The svc metrics input's shape at a size the dense solver takes: GCCs
  // (~430 nodes) of power-law graphs with hubs.  One deflated run must
  // give both extremes, within one run's iteration budget.
  topo::AsLevelOptions shape;
  shape.num_nodes = 500;
  shape.gamma = 2.1;
  shape.max_degree_cap = 120;
  const auto degrees = dk::DegreeDistribution::from_sequence(
      topo::power_law_degree_sequence(shape));
  const SpectrumOptions options;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    util::Rng rng(seed);
    const Graph gcc =
        largest_connected_component(gen::matching_1k(degrees, rng)).graph;
    ASSERT_GT(gcc.num_nodes(), 400u) << "seed " << seed;
    const auto dense = full_laplacian_spectrum(gcc);
    const auto lanczos = laplacian_extremes(gcc, options);
    EXPECT_NEAR(lanczos.lambda1, dense[1], 1e-9) << "seed " << seed;
    EXPECT_NEAR(lanczos.lambda_max, dense.back(), 1e-9) << "seed " << seed;
    EXPECT_GT(lanczos.iterations, 0u) << "seed " << seed;
    EXPECT_LT(lanczos.iterations, options.max_iterations) << "seed " << seed;

    // The connected entry the metrics bundle calls on its GCC agrees
    // exactly.
    const auto direct = connected_laplacian_extremes(gcc, options);
    EXPECT_EQ(direct.lambda1, lanczos.lambda1) << "seed " << seed;
    EXPECT_EQ(direct.lambda_max, lanczos.lambda_max) << "seed " << seed;
    EXPECT_EQ(direct.iterations, lanczos.iterations) << "seed " << seed;
  }
}

TEST(LaplacianExtremes, RejectsIsolatedNodesAndAnEmptyBudget) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_THROW(connected_laplacian_extremes(g), std::invalid_argument);
  SpectrumOptions options;
  options.max_iterations = 0;
  EXPECT_THROW(laplacian_extremes(builders::cycle(10), options),
               std::invalid_argument);
}

TEST(LaplacianExtremes, AllEigenvaluesWithinBounds) {
  util::Rng rng(11);
  const auto g = builders::gnp(60, 0.1, rng);
  const auto result = laplacian_extremes(g);
  EXPECT_GT(result.lambda1, 0.0);
  EXPECT_LE(result.lambda1, result.lambda_max + 1e-12);
  EXPECT_LE(result.lambda_max, 2.0 + 1e-9);
}

}  // namespace
}  // namespace orbis::metrics
