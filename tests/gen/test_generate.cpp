#include "gen/generate.hpp"

#include <gtest/gtest.h>

#include "core/series.hpp"
#include "graph/builders.hpp"
#include "metrics/clustering.hpp"

namespace orbis::gen {
namespace {

dk::DkDistributions small_target(std::uint64_t seed) {
  util::Rng rng(seed);
  return dk::extract(builders::gnm(50, 120, rng), 3);
}

TEST(Generate, Level0Methods) {
  const auto target = small_target(1);
  util::Rng rng(2);
  const auto stochastic = generate_dk_random(
      target, 0, GenerateOptions{.method = Method::stochastic}, rng);
  EXPECT_EQ(stochastic.num_nodes(), 50u);
  const auto exact = generate_dk_random(
      target, 0, GenerateOptions{.method = Method::matching}, rng);
  EXPECT_EQ(exact.num_edges(), 120u);  // non-stochastic is exact-m
}

TEST(Generate, Level1AllMethodsPreserveWhatTheyClaim) {
  const auto target = small_target(3);
  auto expected = target.degree.to_sequence();
  std::sort(expected.begin(), expected.end());

  for (const auto method :
       {Method::pseudograph, Method::matching, Method::targeting}) {
    util::Rng rng(4);
    const auto g =
        generate_dk_random(target, 1, GenerateOptions{.method = method}, rng);
    if (method != Method::pseudograph) {
      auto realized = g.degree_sequence();
      std::sort(realized.begin(), realized.end());
      EXPECT_EQ(realized, expected) << "method " << static_cast<int>(method);
    } else {
      // Pseudograph drops loops/parallels; sizes still match.
      EXPECT_EQ(g.num_nodes(), target.num_nodes);
    }
  }
}

TEST(Generate, Level2MatchingIsExact) {
  const auto target = small_target(5);
  util::Rng rng(6);
  const auto g = generate_dk_random(
      target, 2, GenerateOptions{.method = Method::matching}, rng);
  EXPECT_EQ(dk::JointDegreeDistribution::from_graph(g), target.joint);
}

TEST(Generate, Level2TargetingConverges) {
  const auto target = small_target(7);
  GenerateOptions options;
  options.method = Method::targeting;
  options.targeting.attempts_per_edge = 2000;
  util::Rng rng(8);
  const auto g = generate_dk_random(target, 2, options, rng);
  // Exact 1K always; JDD reached on graphs this small.
  auto realized = g.degree_sequence();
  std::sort(realized.begin(), realized.end());
  auto expected = target.degree.to_sequence();
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(realized, expected);
  EXPECT_EQ(dk::JointDegreeDistribution::from_graph(g), target.joint);
}

TEST(Generate, Level3PipelineImprovesClusteringMatch) {
  const auto target = small_target(9);
  GenerateOptions options;
  options.method = Method::targeting;
  options.targeting.attempts_per_edge = 1500;
  util::Rng rng(10);
  const auto three_k = generate_dk_random(target, 3, options, rng);

  util::Rng rng1(10);
  const auto one_k = generate_dk_random(
      target, 1, GenerateOptions{.method = Method::matching}, rng1);

  // The 3K graph's wedge/triangle distance to the target must be no
  // worse than the 1K baseline's.
  const double d3 =
      dk::distance_3k(dk::ThreeKProfile::from_graph(three_k), target.three_k);
  const double d1 =
      dk::distance_3k(dk::ThreeKProfile::from_graph(one_k), target.three_k);
  EXPECT_LE(d3, d1);
  // And its JDD should match the target exactly (2K-preserving phase 2).
  EXPECT_EQ(dk::JointDegreeDistribution::from_graph(three_k), target.joint);
}

TEST(Generate, Level3NonTargetingThrows) {
  const auto target = small_target(11);
  util::Rng rng(12);
  EXPECT_THROW(generate_dk_random(
                   target, 3, GenerateOptions{.method = Method::matching},
                   rng),
               std::invalid_argument);
}

TEST(Generate, BadLevelThrows) {
  const auto target = small_target(13);
  util::Rng rng(14);
  EXPECT_THROW(generate_dk_random(target, 5, GenerateOptions{}, rng),
               std::invalid_argument);
}

TEST(Generate, DkRandomLikeMatchesLevel) {
  util::Rng source(15);
  const auto original = builders::gnm(40, 100, source);
  svc::RunContext ctx;
  ctx.seed = 16;
  const auto g2 = dk_random_like(original, 2, ctx);
  EXPECT_EQ(dk::JointDegreeDistribution::from_graph(g2),
            dk::JointDegreeDistribution::from_graph(original));
}

}  // namespace
}  // namespace orbis::gen
