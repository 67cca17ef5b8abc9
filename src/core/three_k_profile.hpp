// The 3K-distribution: degree correlations within connected subgraphs of
// size 3.  Two components (paper §3):
//
//   wedges    P∧(k1,k2,k3) — 2-paths k1 - k2 - k3 whose endpoints are NOT
//             adjacent (the center degree is k2; endpoints unordered),
//   triangles P△(k1,k2,k3) — 3-cliques (fully unordered).
//
// Stored as raw subgraph counts (the paper's own example counts subgraphs,
// not probabilities).  With this "induced" wedge definition every
// (edge, side, extra-neighbor) incidence is exactly one wedge or one
// triangle, which yields the paper's inclusion identity
//   m(k1,k2) ~ Σ_k [N∧(k,k1,k2) + N△(k,k1,k2)] / (k1 - 1),
// implemented here as project_to_2k().
//
// Each component is a SortedBins: (packed key, count) pairs in strictly
// ascending key order, 16 B per bin.  Heavy-tailed graphs have millions
// of sparse bins (the paper's §6 footnote), and a profile is built once,
// then only merged, scanned and searched, so a flat sorted array beats a
// hash table on both memory and build time.  from_graph and the other
// graph extractions are one ThreeKBinCounter visit of count_three_k
// (core/three_k_count.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/joint_degree_distribution.hpp"
#include "graph/graph.hpp"
#include "util/keys.hpp"

namespace orbis::dk {

/// One 3K component: (packed key, count) bins in strictly ascending key
/// order, every count positive.  Lookups are binary searches; equality,
/// distances and the residual build are merges.
class SortedBins {
 public:
  using Bin = std::pair<std::uint64_t, std::int64_t>;

  SortedBins() = default;
  /// Adopts bins already in canonical order (checked: keys strictly
  /// ascending, counts positive).
  explicit SortedBins(std::vector<Bin> bins);
  /// Sorts by key, sums duplicate keys and drops zero sums; throws
  /// std::logic_error if a key sums to a negative count.
  static SortedBins canonicalize(std::vector<Bin> bins);

  std::int64_t count(std::uint64_t key) const noexcept;
  std::size_t num_bins() const noexcept { return bins_.size(); }
  bool empty() const noexcept { return bins_.empty(); }
  std::int64_t total() const noexcept;
  std::size_t capacity_bytes() const noexcept {
    return bins_.capacity() * sizeof(Bin);
  }

  std::span<const Bin> bins() const noexcept { return bins_; }
  auto begin() const noexcept { return bins_.begin(); }
  auto end() const noexcept { return bins_.end(); }

  friend bool operator==(const SortedBins&, const SortedBins&) = default;

  /// Calls visit(key, a.count(key), b.count(key)) once per key of either
  /// side, in ascending key order: one linear merge.
  template <typename Visit>
  static void merge(const SortedBins& a, const SortedBins& b, Visit visit) {
    std::size_t i = 0, j = 0;
    while (i < a.bins_.size() || j < b.bins_.size()) {
      if (j == b.bins_.size() ||
          (i < a.bins_.size() && a.bins_[i].first < b.bins_[j].first)) {
        visit(a.bins_[i].first, a.bins_[i].second, std::int64_t{0});
        ++i;
      } else if (i == a.bins_.size() || b.bins_[j].first < a.bins_[i].first) {
        visit(b.bins_[j].first, std::int64_t{0}, b.bins_[j].second);
        ++j;
      } else {
        visit(a.bins_[i].first, a.bins_[i].second, b.bins_[j].second);
        ++i;
        ++j;
      }
    }
  }

  /// Σ over the union of keys of (a[key] - b[key])^2, exact.
  static std::int64_t squared_difference(const SortedBins& a,
                                         const SortedBins& b);

 private:
  std::vector<Bin> bins_;
};

class ThreeKProfile {
 public:
  ThreeKProfile() = default;
  ThreeKProfile(SortedBins wedges, SortedBins triangles)
      : wedges_(std::move(wedges)), triangles_(std::move(triangles)) {}

  /// Fast extraction (count_three_k): O(Σ_v deg(v) log deg(v) + m^{3/2}).
  static ThreeKProfile from_graph(const Graph& g);

  /// Reference extraction by direct neighbor-pair enumeration:
  /// O(Σ_v deg(v)^2). The tests' oracle for every count_three_k user.
  static ThreeKProfile from_graph_naive(const Graph& g);

  std::int64_t wedge_count(std::size_t end1, std::size_t center,
                           std::size_t end2) const {
    return wedges_.count(util::wedge_key(static_cast<std::uint32_t>(end1),
                                         static_cast<std::uint32_t>(center),
                                         static_cast<std::uint32_t>(end2)));
  }

  std::int64_t triangle_count(std::size_t a, std::size_t b,
                              std::size_t c) const {
    return triangles_.count(util::triangle_key(static_cast<std::uint32_t>(a),
                                               static_cast<std::uint32_t>(b),
                                               static_cast<std::uint32_t>(c)));
  }

  std::int64_t total_wedges() const noexcept { return wedges_.total(); }
  std::int64_t total_triangles() const noexcept { return triangles_.total(); }

  const SortedBins& wedges() const noexcept { return wedges_; }
  const SortedBins& triangles() const noexcept { return triangles_; }

  /// Bytes held by both bin arrays.
  std::size_t capacity_bytes() const noexcept {
    return wedges_.capacity_bytes() + triangles_.capacity_bytes();
  }

  /// Second-order likelihood S2 = Σ_wedges k1*k3 (paper §4.3): the scalar
  /// summary of the wedge component.  dk::second_order_likelihood(g)
  /// (three_k_count.hpp) gives it without building the histograms.
  double second_order_likelihood() const;

  /// Σ_triangles contribution used by the paper's C̄ ~ Σ k1 P△ remark.
  double triangle_degree_sum() const;

  /// Inclusion projection P3 -> P2.  Recovers m(k1,k2) for every pair
  /// with max(k1,k2) >= 2; isolated (1,1)-edges are invisible to size-3
  /// subgraphs and are assumed absent (throws if inputs are inconsistent).
  JointDegreeDistribution project_to_2k() const;

  friend bool operator==(const ThreeKProfile&,
                         const ThreeKProfile&) = default;

 private:
  SortedBins wedges_;
  SortedBins triangles_;
};

/// The count_three_k visitor behind every ThreeKProfile built from a
/// graph (core/three_k_count.hpp, count_three_k_profile), which drives
/// the triangle pass first.  Both passes are counted in degree-class
/// ranks, not degrees:
///
///   triangles     are buffered as rank keys, corners ascending, and
///                 each corner's class counts its closed pair.
///                 end_triangles() then counting-sorts the closed pairs
///                 by that center class, as the scratch cell of their two
///                 ends (4 B a pair).
///   center pairs  arrive center class by center class
///                 (count_center_pairs visits centers in (degree, id)
///                 order) and accumulate in a dense C×C scratch of rank pairs, C the number of
///                 degree classes.  C < 2√m + 1, so the scratch is at
///                 most 32·m bytes and stays cache-resident on the
///                 graphs the paper uses.  When the center degree
///                 changes, the class's closed pairs come off their
///                 cells, and the non-zero cells left are emitted as
///                 wedge bins, center-major, filed by their low end: the
///                 counting sort by the low end, done as the bins are
///                 made, so each low end's list is in (center, high)
///                 order and the lists read in rank order are in
///                 packed-key order.  end_center_pairs() frees the
///                 scratch and the closed pairs.
///   finish()      concatenates the lists into the wedge bins and
///                 radix-sorts and run-length counts the triangles.
///
/// Ranks are monotone in degree, so rank-key order is packed-key order.
class ThreeKBinCounter {
 public:
  /// `class_degrees`: the graph's distinct degrees, ascending.
  explicit ThreeKBinCounter(std::vector<std::uint32_t> class_degrees);

  void add_triangle(NodeId, NodeId, NodeId, std::uint32_t ka,
                    std::uint32_t kb, std::uint32_t kc);
  /// After the triangle pass: files the closed pairs by center class.
  void end_triangles();
  void add_center_pairs(std::uint32_t center, std::uint32_t k1,
                        std::uint32_t k2, std::int64_t count);
  /// After the center-pair pass: emits the last center class and frees
  /// the scratch and the closed pairs.
  void end_center_pairs();
  /// The finished profile.
  ThreeKProfile finish();

  /// High-water mark of the bytes this counter held: scratch, bin
  /// buffers, triangle keys, closed pairs and sort copies.
  std::size_t peak_bytes() const noexcept { return peak_bytes_; }

 private:
  std::uint32_t rank(std::uint32_t degree) const {
    return rank_of_degree_[degree];
  }
  std::uint64_t rank_key(std::uint32_t lo, std::uint32_t mid,
                         std::uint32_t hi) const {
    return (static_cast<std::uint64_t>(lo) << (2 * rank_bits_)) |
           (static_cast<std::uint64_t>(mid) << rank_bits_) | hi;
  }
  /// The packed degree key of a rank key (util::keys layout).
  std::uint64_t degree_key(std::uint64_t rank_key) const;
  void flush_class();
  void note_bytes(std::size_t transient = 0);

  /// Emitted center-pair bins are filed in blocks, so no list is ever
  /// copied to grow: each block of a list holds twice the bins of the
  /// one before, from 64 up to 8192.
  using Block = std::vector<SortedBins::Bin>;
  static constexpr std::size_t kFirstBlockBins = 64;
  static constexpr std::size_t kMaxBlockBins = 8192;

  std::vector<std::uint32_t> class_degree_;    // rank -> degree
  std::vector<std::uint32_t> rank_of_degree_;  // degree -> rank
  std::size_t num_classes_ = 0;
  std::size_t row_words_ = 0;  // 64-bit words per scratch row bitmap
  unsigned rank_bits_ = 1;

  // Triangle pass: rank keys, and the closed pairs by center class (cells of class r at [closed_start_[r], closed_start_[r + 1])).
  std::vector<std::uint64_t> triangles_;
  std::vector<std::size_t> closed_start_;
  std::vector<std::uint32_t> closed_cells_;  // scratch cell r1*C + r2
  std::size_t closed_taken_ = 0;

  // Center-pair pass: the current center class's scratch.
  static constexpr std::uint32_t kNoCenter = ~std::uint32_t{0};
  std::uint32_t center_ = kNoCenter;
  std::vector<std::int64_t> cells_;         // C×C, cell r1*C + r2, r1 <= r2
  std::vector<std::uint64_t> row_bits_;     // non-zero cells, per row
  std::vector<std::uint8_t> row_touched_;   // row has a non-zero cell
  std::vector<std::uint32_t> touched_rows_;
  std::vector<std::vector<Block>> by_low_;  // per low-end rank
  std::size_t center_bins_ = 0;
  std::size_t block_bytes_ = 0;

  std::size_t peak_bytes_ = 0;
};

}  // namespace orbis::dk
