#include "io/dk_serialization.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/series.hpp"
#include "graph/builders.hpp"
#include "util/keys.hpp"
#include "util/rng.hpp"

namespace orbis::io {
namespace {

dk::DkDistributions sample_distributions() {
  util::Rng rng(5);
  return dk::extract(builders::gnm(40, 100, rng), 3);
}

TEST(DkSerialization, OneKRoundTrip) {
  const auto dists = sample_distributions();
  std::stringstream buffer;
  write_1k(buffer, dists.degree);
  const auto restored = read_1k(buffer);
  // Degree-0 nodes are not serialized (n(0) lines are legal but the
  // writer only emits the support); compare over k >= 1.
  for (std::size_t k = 1; k <= dists.degree.max_degree(); ++k) {
    EXPECT_EQ(restored.n_of_k(k), dists.degree.n_of_k(k)) << "k=" << k;
  }
}

TEST(DkSerialization, TwoKRoundTrip) {
  const auto dists = sample_distributions();
  std::stringstream buffer;
  write_2k(buffer, dists.joint);
  const auto restored = read_2k(buffer);
  EXPECT_EQ(restored, dists.joint);
}

TEST(DkSerialization, ThreeKRoundTrip) {
  const auto dists = sample_distributions();
  std::stringstream buffer;
  write_3k(buffer, dists.three_k);
  const auto restored = read_3k(buffer);
  EXPECT_EQ(restored, dists.three_k);
}

TEST(DkSerialization, ReadHandlesCommentsAndBlanks) {
  std::istringstream in("# 2K file\n\n2 3 5\n# done\n");
  const auto jdd = read_2k(in);
  EXPECT_EQ(jdd.m_of(2, 3), 5);
}

TEST(DkSerialization, MalformedLinesThrowWithLineNumbers) {
  {
    std::istringstream in("1 abc\n");
    EXPECT_THROW(read_1k(in), std::invalid_argument);
  }
  {
    std::istringstream in("2 3\n");  // missing count
    EXPECT_THROW(read_2k(in), std::invalid_argument);
  }
  {
    std::istringstream in("x 1 2 3 4\n");  // bad record kind
    EXPECT_THROW(read_3k(in), std::invalid_argument);
  }
  {
    std::istringstream in("2 3 -4\n");  // negative count
    EXPECT_THROW(read_2k(in), std::invalid_argument);
  }
}

TEST(DkSerialization, ThreeKReaderCanonicalizesKeys) {
  // Reader must accept non-canonical argument orders.
  std::istringstream in("w 5 2 1 3\nt 9 1 4 2\n");
  const auto profile = read_3k(in);
  EXPECT_EQ(profile.wedge_count(1, 2, 5), 3);
  EXPECT_EQ(profile.triangle_count(1, 4, 9), 2);
}

// read_3k takes lines in any order and sums repeated keys, whatever the
// order of a key's degrees: a shuffled file whose counts are split over
// several lines reads back as the canonical profile.
TEST(DkSerialization, ThreeKReaderCanonicalizesShuffledDuplicateLines) {
  const auto profile = sample_distributions().three_k;
  ASSERT_GT(profile.wedges().num_bins(), 2u);
  ASSERT_GT(profile.triangles().num_bins(), 0u);
  std::vector<std::string> lines;
  for (const auto& [key, count] : profile.wedges()) {
    const auto [k1, k2, k3] = util::unpack_triple(key);
    const std::int64_t first = count / 2;
    // The second line names the endpoints the other way round.
    lines.push_back("w " + std::to_string(k1) + " " + std::to_string(k2) +
                    " " + std::to_string(k3) + " " + std::to_string(first));
    lines.push_back("w " + std::to_string(k3) + " " + std::to_string(k2) +
                    " " + std::to_string(k1) + " " +
                    std::to_string(count - first));
  }
  for (const auto& [key, count] : profile.triangles()) {
    const auto [k1, k2, k3] = util::unpack_triple(key);
    for (std::int64_t i = 0; i < count; ++i) {
      lines.push_back("t " + std::to_string(k3) + " " + std::to_string(k1) +
                      " " + std::to_string(k2) + " 1");
    }
  }
  lines.push_back("t 7 7 7 0");  // a zero count leaves no bin
  util::Rng rng(3);
  for (std::size_t i = lines.size(); i > 1; --i) {
    std::swap(lines[i - 1], lines[rng.uniform(i)]);
  }
  std::string text;
  for (const auto& line : lines) text += line + "\n";
  std::istringstream in(text);
  EXPECT_EQ(read_3k(in), profile);
}

TEST(DkSerialization, FileRoundTrip) {
  const auto dists = sample_distributions();
  const std::string base = testing::TempDir() + "orbis_dk_test";
  write_1k_file(base + ".1k", dists.degree);
  write_2k_file(base + ".2k", dists.joint);
  write_3k_file(base + ".3k", dists.three_k);
  EXPECT_EQ(read_2k_file(base + ".2k"), dists.joint);
  EXPECT_EQ(read_3k_file(base + ".3k"), dists.three_k);
  const auto one_k = read_1k_file(base + ".1k");
  EXPECT_EQ(one_k.n_of_k(1), dists.degree.n_of_k(1));
  for (const auto& suffix : {".1k", ".2k", ".3k"}) {
    std::remove((base + suffix).c_str());
  }
}

TEST(DkSerialization, MissingFilesThrow) {
  EXPECT_THROW(read_1k_file("/nonexistent.1k"), std::runtime_error);
  EXPECT_THROW(read_2k_file("/nonexistent.2k"), std::runtime_error);
  EXPECT_THROW(read_3k_file("/nonexistent.3k"), std::runtime_error);
}

}  // namespace
}  // namespace orbis::io
