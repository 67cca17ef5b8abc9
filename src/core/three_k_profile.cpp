#include "core/three_k_profile.hpp"

#include <algorithm>
#include <bit>
#include <map>

#include "core/three_k_count.hpp"
#include "util/check.hpp"

namespace orbis::dk {

// ---------------------------------------------------------------------------
// SortedBins.
// ---------------------------------------------------------------------------

SortedBins::SortedBins(std::vector<Bin> bins) : bins_(std::move(bins)) {
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    util::ensures(bins_[i].second > 0 &&
                      (i == 0 || bins_[i - 1].first < bins_[i].first),
                  "SortedBins: bins must be ascending with positive counts");
  }
}

SortedBins SortedBins::canonicalize(std::vector<Bin> bins) {
  std::sort(bins.begin(), bins.end());
  std::size_t out = 0;
  for (std::size_t i = 0; i < bins.size();) {
    std::int64_t sum = 0;
    std::size_t j = i;
    for (; j < bins.size() && bins[j].first == bins[i].first; ++j) {
      sum += bins[j].second;
    }
    util::ensures(sum >= 0, "SortedBins: bin went negative");
    if (sum != 0) bins[out++] = {bins[i].first, sum};
    i = j;
  }
  bins.resize(out);
  SortedBins sorted;
  sorted.bins_ = std::move(bins);
  return sorted;
}

std::int64_t SortedBins::count(std::uint64_t key) const noexcept {
  const auto it = std::lower_bound(
      bins_.begin(), bins_.end(), key,
      [](const Bin& bin, std::uint64_t k) { return bin.first < k; });
  return it != bins_.end() && it->first == key ? it->second : 0;
}

std::int64_t SortedBins::total() const noexcept {
  std::int64_t sum = 0;
  for (const auto& [key, count] : bins_) sum += count;
  return sum;
}

std::int64_t SortedBins::squared_difference(const SortedBins& a,
                                            const SortedBins& b) {
  std::int64_t sum = 0;
  merge(a, b, [&](std::uint64_t, std::int64_t x, std::int64_t y) {
    sum += (x - y) * (x - y);
  });
  return sum;
}

// ---------------------------------------------------------------------------
// ThreeKBinCounter.
// ---------------------------------------------------------------------------

namespace {

/// LSD radix sort of `keys` on their low `bits` bits through `scratch`
/// (resized to match), in as few passes of at most 14 bits as cover
/// them, split evenly (27-bit rank keys: two 14-bit passes).
void radix_sort(std::vector<std::uint64_t>& keys,
                std::vector<std::uint64_t>& scratch, unsigned bits) {
  const unsigned passes = (bits + 13) / 14;
  const unsigned digit_bits = (bits + passes - 1) / passes;
  const std::uint64_t mask = (std::uint64_t{1} << digit_bits) - 1;
  scratch.resize(keys.size());
  std::vector<std::size_t> offset(std::size_t{1} << digit_bits);
  for (unsigned shift = 0; shift < bits; shift += digit_bits) {
    std::fill(offset.begin(), offset.end(), 0);
    for (const std::uint64_t key : keys) ++offset[(key >> shift) & mask];
    std::size_t sum = 0;
    for (std::size_t& slot : offset) sum += std::exchange(slot, sum);
    for (const std::uint64_t key : keys) {
      scratch[offset[(key >> shift) & mask]++] = key;
    }
    keys.swap(scratch);
  }
}

template <typename T>
std::size_t bytes_of(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

template <typename T>
void release(std::vector<T>& v) {
  std::vector<T>().swap(v);
}

}  // namespace

ThreeKBinCounter::ThreeKBinCounter(std::vector<std::uint32_t> class_degrees)
    : class_degree_(std::move(class_degrees)),
      num_classes_(class_degree_.size()) {
  // Closed pairs are filed by their 32-bit scratch cell, r1·C + r2; past
  // this bound the dense scratch alone would take 32 GiB.
  util::expects(num_classes_ <= (std::size_t{1} << 16),
                "ThreeKBinCounter: more than 65536 degree classes");
  const std::uint32_t max_degree =
      class_degree_.empty() ? 0 : class_degree_.back();
  rank_of_degree_.assign(static_cast<std::size_t>(max_degree) + 1, 0);
  for (std::size_t r = 0; r < num_classes_; ++r) {
    rank_of_degree_[class_degree_[r]] = static_cast<std::uint32_t>(r);
  }
  rank_bits_ = std::max<unsigned>(
      1, static_cast<unsigned>(std::bit_width(
             num_classes_ > 0 ? num_classes_ - 1 : 0)));
  row_words_ = (num_classes_ + 63) / 64;
  cells_.assign(num_classes_ * num_classes_, 0);
  row_bits_.assign(num_classes_ * row_words_, 0);
  row_touched_.assign(num_classes_, 0);
  by_low_.resize(num_classes_);
  closed_start_.assign(num_classes_ + 1, 0);
  note_bytes();
}

void ThreeKBinCounter::add_triangle(NodeId, NodeId, NodeId, std::uint32_t ka,
                                    std::uint32_t kb, std::uint32_t kc) {
  std::uint32_t ra = rank(ka);
  std::uint32_t rb = rank(kb);
  std::uint32_t rc = rank(kc);
  if (ra > rb) std::swap(ra, rb);
  if (rb > rc) std::swap(rb, rc);
  if (ra > rb) std::swap(ra, rb);
  triangles_.push_back(rank_key(ra, rb, rc));
  // One closed pair at each corner, counted under that corner's class.
  ++closed_start_[ra + 1];
  ++closed_start_[rb + 1];
  ++closed_start_[rc + 1];
}

void ThreeKBinCounter::end_triangles() {
  // The counting sort by center class: each triangle's three closed
  // pairs are re-derived from its rank key and filed under their
  // corner's class as the scratch cell of their two ends.
  for (std::size_t r = 1; r <= num_classes_; ++r) {
    closed_start_[r] += closed_start_[r - 1];
  }
  closed_cells_.resize(closed_start_[num_classes_]);
  std::vector<std::size_t> next(closed_start_.begin(),
                                closed_start_.end() - 1);
  note_bytes(bytes_of(next));
  const std::uint64_t mask = (std::uint64_t{1} << rank_bits_) - 1;
  const auto cell = [&](std::uint64_t lo, std::uint64_t hi) {
    return static_cast<std::uint32_t>(lo * num_classes_ + hi);
  };
  for (const std::uint64_t key : triangles_) {
    const std::uint64_t ra = key >> (2 * rank_bits_);
    const std::uint64_t rb = (key >> rank_bits_) & mask;
    const std::uint64_t rc = key & mask;
    closed_cells_[next[ra]++] = cell(rb, rc);
    closed_cells_[next[rb]++] = cell(ra, rc);
    closed_cells_[next[rc]++] = cell(ra, rb);
  }
}

void ThreeKBinCounter::add_center_pairs(std::uint32_t center,
                                        std::uint32_t k1, std::uint32_t k2,
                                        std::int64_t count) {
  if (center != center_) {
    flush_class();
    center_ = center;
  }
  const std::uint32_t r1 = rank(k1);  // k1 <= k2, so r1 <= r2
  const std::uint32_t r2 = rank(k2);
  std::int64_t& cell = cells_[r1 * num_classes_ + r2];
  if (cell == 0) {
    row_bits_[r1 * row_words_ + r2 / 64] |= std::uint64_t{1} << (r2 % 64);
    if (row_touched_[r1] == 0) {
      row_touched_[r1] = 1;
      touched_rows_.push_back(r1);
    }
  }
  cell += count;
}

void ThreeKBinCounter::flush_class() {
  if (center_ == kNoCenter) return;
  // The class's closed pairs were counted among its center pairs: they
  // come off here, so a cell they empty emits no bin.
  const std::uint32_t r = rank(center_);
  for (std::size_t i = closed_start_[r]; i < closed_start_[r + 1]; ++i) {
    std::int64_t& cell = cells_[closed_cells_[i]];
    util::ensures(cell > 0,
                  "ThreeKBinCounter: closed pair without a center pair");
    --cell;
  }
  closed_taken_ += closed_start_[r + 1] - closed_start_[r];
  // Rows ascending, and within a row the set bits ascending: the class's
  // bins leave in (k1, k2) order.
  std::sort(touched_rows_.begin(), touched_rows_.end());
  for (const std::uint32_t r1 : touched_rows_) {
    row_touched_[r1] = 0;
    for (std::size_t w = r1 / 64; w < row_words_; ++w) {
      std::uint64_t bits =
          std::exchange(row_bits_[r1 * row_words_ + w], std::uint64_t{0});
      while (bits != 0) {
        const std::size_t r2 =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        const std::int64_t count =
            std::exchange(cells_[r1 * num_classes_ + r2], std::int64_t{0});
        if (count == 0) continue;
        std::vector<Block>& list = by_low_[r1];
        if (list.empty() || list.back().size() == list.back().capacity()) {
          const std::size_t bins =
              list.empty() ? kFirstBlockBins
                           : std::min(kMaxBlockBins, 2 * list.back().size());
          list.emplace_back().reserve(bins);
          block_bytes_ += list.back().capacity() * sizeof(SortedBins::Bin);
        }
        list.back().emplace_back(
            util::wedge_key(class_degree_[r1], center_, class_degree_[r2]),
            count);
        ++center_bins_;
      }
    }
  }
  touched_rows_.clear();
}

void ThreeKBinCounter::end_center_pairs() {
  flush_class();
  util::ensures(closed_taken_ == closed_cells_.size(),
                "ThreeKBinCounter: closed pair without a center pair");
  note_bytes();
  release(cells_);
  release(row_bits_);
  release(row_touched_);
  release(touched_rows_);
  release(closed_start_);
  release(closed_cells_);
}

std::uint64_t ThreeKBinCounter::degree_key(std::uint64_t key) const {
  const std::uint64_t mask = (std::uint64_t{1} << rank_bits_) - 1;
  return util::detail::pack3(class_degree_[key >> (2 * rank_bits_)],
                             class_degree_[(key >> rank_bits_) & mask],
                             class_degree_[key & mask]);
}

ThreeKProfile ThreeKBinCounter::finish() {
  note_bytes();
  // The low-end lists read in rank order are the wedge bins in key
  // order, already net of the closed pairs: concatenate them, freeing
  // each block once it is read.
  std::vector<SortedBins::Bin> wedges;
  wedges.reserve(center_bins_);
  note_bytes(bytes_of(wedges));
  for (std::vector<Block>& list : by_low_) {
    for (Block& block : list) {
      wedges.insert(wedges.end(), block.begin(), block.end());
      release(block);
    }
  }
  release(by_low_);
  block_bytes_ = 0;

  std::vector<std::uint64_t> scratch;
  radix_sort(triangles_, scratch, 3 * rank_bits_);
  note_bytes(bytes_of(wedges) + bytes_of(scratch));
  release(scratch);
  std::vector<SortedBins::Bin> triangles;
  for (std::size_t i = 0; i < triangles_.size();) {
    std::size_t j = i;
    while (j < triangles_.size() && triangles_[j] == triangles_[i]) ++j;
    triangles.emplace_back(degree_key(triangles_[i]),
                           static_cast<std::int64_t>(j - i));
    i = j;
  }
  note_bytes(bytes_of(wedges) + bytes_of(triangles));
  release(triangles_);
  return ThreeKProfile(SortedBins(std::move(wedges)),
                       SortedBins(std::move(triangles)));
}

void ThreeKBinCounter::note_bytes(std::size_t transient) {
  const std::size_t bytes =
      bytes_of(class_degree_) + bytes_of(rank_of_degree_) + bytes_of(cells_) +
      bytes_of(row_bits_) + bytes_of(row_touched_) + bytes_of(touched_rows_) +
      bytes_of(by_low_) + block_bytes_ + bytes_of(triangles_) +
      bytes_of(closed_start_) + bytes_of(closed_cells_) + transient;
  peak_bytes_ = std::max(peak_bytes_, bytes);
}

// ---------------------------------------------------------------------------
// ThreeKProfile.
// ---------------------------------------------------------------------------

ThreeKProfile ThreeKProfile::from_graph(const Graph& g) {
  return count_three_k_profile(g);
}

ThreeKProfile ThreeKProfile::from_graph_naive(const Graph& g) {
  std::vector<SortedBins::Bin> wedges;
  std::vector<SortedBins::Bin> triangles;
  const auto degree = [&](NodeId v) {
    return static_cast<std::uint32_t>(g.degree(v));
  };
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto nbrs = g.neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
        const NodeId a = nbrs[i];
        const NodeId b = nbrs[j];
        if (g.has_edge(a, b)) {
          // Count each triangle once: at its minimum-id vertex.
          if (v < a && v < b) {
            triangles.emplace_back(
                util::triangle_key(degree(v), degree(a), degree(b)), 1);
          }
        } else {
          wedges.emplace_back(
              util::wedge_key(degree(a), degree(v), degree(b)), 1);
        }
      }
    }
  }
  return ThreeKProfile(SortedBins::canonicalize(std::move(wedges)),
                       SortedBins::canonicalize(std::move(triangles)));
}

double ThreeKProfile::second_order_likelihood() const {
  double total = 0.0;
  for (const auto& [key, count] : wedges_) {
    const auto [end1, center, end2] = util::unpack_triple(key);
    (void)center;
    total += static_cast<double>(count) * static_cast<double>(end1) *
             static_cast<double>(end2);
  }
  return total;
}

double ThreeKProfile::triangle_degree_sum() const {
  double total = 0.0;
  for (const auto& [key, count] : triangles_) {
    const auto [a, b, c] = util::unpack_triple(key);
    total += static_cast<double>(count) *
             static_cast<double>(a + b + c);
  }
  return total;
}

JointDegreeDistribution ThreeKProfile::project_to_2k() const {
  // incidence[(kc, ke)] = number of ordered (edge-side, extra neighbor)
  // configurations whose center (side vertex) has degree kc and whose edge
  // partner has degree ke.  Every such configuration is exactly one wedge
  // or one triangle.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::int64_t> incidence;

  for (const auto& [key, count] : wedges_) {
    const auto [end1, center, end2] = util::unpack_triple(key);
    // Wedge e1 - c - e2 contains edges (c,e1) and (c,e2); the extra
    // neighbor of side c is the opposite end in each case.
    incidence[{center, end1}] += count;
    incidence[{center, end2}] += count;
  }
  for (const auto& [key, count] : triangles_) {
    const auto [a, b, c] = util::unpack_triple(key);
    const std::uint32_t deg[3] = {a, b, c};
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) {
        if (i != j) incidence[{deg[i], deg[j]}] += count;
      }
    }
  }

  // m(k1,k2) = incidence[(k1,k2)] / (k1-1), doubled denominator when
  // k1 == k2 (both sides of the edge contribute).
  JointDegreeDistribution jdd;
  std::map<std::uint64_t, std::int64_t> recovered;
  for (const auto& [pair, configurations] : incidence) {
    const auto [kc, ke] = pair;
    if (kc < 2) continue;  // degree-1 side contributes no configurations
    const std::int64_t denominator =
        (kc == ke) ? 2 * static_cast<std::int64_t>(kc - 1)
                   : static_cast<std::int64_t>(kc - 1);
    util::ensures(configurations % denominator == 0,
                  "3K projection: inconsistent incidence counts");
    const std::int64_t m = configurations / denominator;
    const std::uint64_t key = util::pair_key(kc, ke);
    const auto it = recovered.find(key);
    if (it == recovered.end()) {
      recovered.emplace(key, m);
    } else {
      util::ensures(it->second == m,
                    "3K projection: the two edge sides disagree");
    }
  }
  // NOTE: the result excludes (1,1)-edges, invisible at d=3.
  for (const auto& [key, m] : recovered) jdd.histogram().add(key, m);
  return jdd;
}

}  // namespace orbis::dk
