#include "core/dk_state.hpp"

#include <algorithm>
#include <bit>

#include "core/three_k_count.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace orbis::dk {

namespace {

double clustering_weight(std::uint32_t degree) {
  if (degree < 2) return 0.0;
  return 2.0 / (static_cast<double>(degree) *
                static_cast<double>(degree - 1));
}

}  // namespace

// Fibonacci hashing: the top bits of key * 2^64/φ.  Packed keys differ
// mostly in their low fields, which the multiply carries upward.
std::size_t DeltaJournal::home(std::uint64_t tagged) const noexcept {
  return static_cast<std::size_t>((tagged * 0x9E3779B97F4A7C15ULL) >> shift_);
}

void DeltaJournal::add(std::uint64_t tagged, std::int64_t net) {
  Map& map = (tagged & kTriangleBinTag) != 0 ? triangle : wedge;
  if (2 * (wedge.size() + triangle.size() + 1) > slots_.size()) grow();
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(tagged);; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.stamp != stamp_) {
      slot = {tagged, stamp_, static_cast<std::uint32_t>(map.size())};
      map.emplace_back(tagged & ~kTriangleBinTag, net);
      return;
    }
    if (slot.key == tagged) {
      map[slot.entry].second += net;
      return;
    }
  }
}

void DeltaJournal::grow() {
  const std::size_t slots = std::max(kMinSlots, 2 * slots_.size());
  slots_.assign(slots, Slot{});
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
  stamp_ = 1;
  const std::size_t mask = slots - 1;
  const auto refile = [&](const Map& map, std::uint64_t tag) {
    for (std::size_t e = 0; e < map.size(); ++e) {
      const std::uint64_t tagged = map[e].first | tag;
      std::size_t i = home(tagged);
      while (slots_[i].stamp == stamp_) i = (i + 1) & mask;
      slots_[i] = {tagged, stamp_, static_cast<std::uint32_t>(e)};
    }
  };
  refile(wedge, 0);
  refile(triangle, kTriangleBinTag);
}

void DeltaJournal::finish() {
  const auto zero = [](const Entry& entry) { return entry.second == 0; };
  std::erase_if(wedge, zero);
  std::erase_if(triangle, zero);
}

void DeltaJournal::clear() noexcept {
  wedge.clear();
  triangle.clear();
  // Past 2^32 - 1 swaps the stamp wraps: old stamps could then read as
  // live, so every slot is retired by hand once.
  if (++stamp_ == 0) {
    for (Slot& slot : slots_) slot.stamp = 0;
    stamp_ = 1;
  }
}

double ThreeKSums::mean_clustering() const noexcept {
  if (num_nodes == 0) return 0.0;
  return clustering_sum / static_cast<double>(num_nodes);
}

ThreeKSums three_k_sums(const EdgeIndex& index) {
  ThreeKScalars scalars(index.num_nodes());
  count_three_k(index, scalars);
  ThreeKSums sums;
  sums.s2 = static_cast<double>(scalars.s2);
  sums.num_nodes = index.num_nodes();
  for (NodeId v = 0; v < sums.num_nodes; ++v) {
    sums.clustering_sum += static_cast<double>(scalars.node_triangles[v]) *
                           clustering_weight(index.degree(v));
  }
  return sums;
}

// ---------------------------------------------------------------------------
// ThreeKResidual.
// ---------------------------------------------------------------------------

ThreeKResidual::ThreeKResidual(const ThreeKProfile& current,
                               const ThreeKProfile& target) {
  // Two merges of the sorted profiles: the first counts the bins where
  // they differ, so the table is sized once, and the second fills it.
  const auto for_each_difference = [&](auto visit) {
    const auto component = [&](const SortedBins& now, const SortedBins& want,
                               std::uint64_t tag) {
      SortedBins::merge(now, want,
                        [&](std::uint64_t key, std::int64_t a,
                            std::int64_t b) {
                          if (a != b) visit(key | tag, a - b);
                        });
    };
    component(current.wedges(), target.wedges(), 0);
    component(current.triangles(), target.triangles(), kTriangleBinTag);
  };
  std::size_t differing = 0;
  for_each_difference([&](std::uint64_t, std::int64_t) { ++differing; });
  table_.reserve_for(differing);
  for_each_difference([&](std::uint64_t key, std::int64_t r) {
    table_.occupy(table_.locate(key), key, r);
    distance_ += r * r;
  });
}

void ThreeKResidual::add(std::uint64_t tagged, std::int64_t net) {
  const std::size_t i = table_.locate(tagged);
  if (!table_.occupied(i)) {
    table_.occupy(i, tagged, net);
    if (table_.over_load_factor()) table_.grow();
    return;
  }
  table_.payload_at(i) += net;
  if (table_.payload_at(i) == 0) table_.erase_at(i);
}

std::int64_t ThreeKResidual::delta_if_applied(
    const DeltaJournal& journal) const {
  // The journal names every bin this pricing reads, so issue all the
  // probe-group prefetches before the first probe: by the time the
  // loops below reach entry k, its lines are usually already in flight
  // (docs/parallel.md, "Prefetching in the proposal loops").
  for (const auto& [key, net] : journal.wedge) table_.prefetch(key);
  for (const auto& [key, net] : journal.triangle) {
    table_.prefetch(key | kTriangleBinTag);
  }
  std::int64_t delta = 0;
  for (const auto& [key, net] : journal.wedge) {
    delta += net * (2 * at(key) + net);  // (r + net)² − r²
  }
  for (const auto& [key, net] : journal.triangle) {
    delta += net * (2 * at(key | kTriangleBinTag) + net);
  }
  return delta;
}

void ThreeKResidual::apply(const DeltaJournal& journal) {
  if (journal.all_zero()) return;
  distance_ += delta_if_applied(journal);
  if (!table_.has_storage()) table_.grow();
  for (const auto& [key, net] : journal.wedge) add(key, net);
  for (const auto& [key, net] : journal.triangle) {
    add(key | kTriangleBinTag, net);
  }
}

bool operator==(const ThreeKResidual& a, const ThreeKResidual& b) {
  if (a.distance_ != b.distance_ || a.num_bins() != b.num_bins()) {
    return false;
  }
  for (std::size_t slot = 0; slot < a.table_.capacity(); ++slot) {
    if (a.table_.occupied(slot) &&
        b.at(a.table_.key_at(slot)) != a.table_.payload_at(slot)) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// DkState.
// ---------------------------------------------------------------------------

DkState::DkState(const Graph& graph, TrackLevel level,
                 const ThreeKProfile* target)
    : owned_(std::make_unique<EdgeIndex>(graph)),
      index_(owned_.get()),
      level_(level),
      target_(target) {
  if (tracks_residual()) residual_ = count_residual();
}

DkState::DkState(EdgeIndex& index, TrackLevel level,
                 const ThreeKProfile* target)
    : index_(&index), level_(level), target_(target) {
  if (tracks_residual()) residual_ = count_residual();
}

ThreeKResidual DkState::count_residual() const {
  static const ThreeKProfile empty;
  const ThreeKProfile current = count_three_k_profile(*index_);
  const obs::Span span("dk.three_k.residual");
  return ThreeKResidual(current, target_ != nullptr ? *target_ : empty);
}

void DkState::evaluate_swap(NodeId a, NodeId b, NodeId c, NodeId d,
                            SwapDelta& out) const {
  const std::uint32_t ka = index_->degree(a);
  const std::uint32_t kb = index_->degree(b);
  const std::uint32_t kc = index_->degree(c);
  const std::uint32_t kd = index_->degree(d);
  util::expects(kb == kd || ka == kc,
                "DkState::evaluate_swap: swap must preserve the JDD");
  out.clear();
  // The caller's labels, whichever pair is walked: commit_swap hands
  // them to EdgeIndex::apply_swap.  Each endpoint keeps its row cell
  // whichever way the swap is labeled, so the rows later draws read do
  // not depend on the labels.
  out.a = a;
  out.b = b;
  out.c = c;
  out.d = d;
  // (b,a,d,c) names the same swap — remove ba and dc, add bc and da —
  // with the roles of the two pairs exchanged.
  if (kb == kd && (ka != kc || kb <= ka)) {
    price_equal_degree_pair(a, b, c, d, out);
  } else {
    price_equal_degree_pair(b, a, d, c, out);
  }
  out.journal.finish();
  for (const auto& [node, net] : out.triangle_nodes) {
    out.clustering_delta +=
        static_cast<double>(net) * clustering_weight(index_->degree(node));
  }
}

// Why only N(b) and N(d) are walked.  The swap changes four pairs: ab and
// cd disappear, ad and cb appear.  A triple of nodes changes shape only
// if it contains one of them:
//
//   * The four triples inside {a,b,c,d} hold no triangle before or after:
//     each contains one removed and one added pair.  Their wedges
//     exist iff a~c or b~d, and trade places pairwise under equal degree
//     keys: b-a-c becomes a-c-b and a-c-d becomes c-a-d when a~c, a-b-d
//     becomes a-d-b and c-d-b becomes c-b-d when b~d.  With deg b = deg d
//     the four keys cancel, so these triples contribute nothing.
//   * A triple {p,q,x}, x outside {a,b,c,d}, holds exactly one changed
//     pair pq.  Write A,B,C,D for x~a, x~b, x~c, x~d.  Summing the four
//     triples {a,b,x}, {a,d,x}, {c,d,x}, {c,b,x} before and after, every
//     term carries B or D (or B-D) as a factor: when x is adjacent to
//     neither b nor d, the wedge x-a-b that dies and the wedge x-a-d that
//     appears share a key because deg b = deg d, and likewise at c.  So
//     only x in N(b) ∪ N(d) matters, which is what keeps the hub rows of
//     a and c out of the pass.
//   * For x in N(b) ∩ N(d) (B = D = 1) the histogram terms cancel too
//     (b and d trade places), but the triangle counts of b and d move by
//     ±(C - A): if x~a, {a,b,x} dies while {a,d,x} appears, and if x~c,
//     {c,d,x} dies while {c,b,x} appears.
//
// Each remaining x costs at most three has_edge probes.
void DkState::price_equal_degree_pair(NodeId a, NodeId b, NodeId c, NodeId d,
                                      SwapDelta& out) const {
  const std::uint32_t ka = index_->degree(a);
  const std::uint32_t kc = index_->degree(c);
  const std::uint32_t k = index_->degree(b);  // == degree(d)
  std::int64_t s2 = 0;
  std::int64_t net_a = 0, net_b = 0, net_c = 0, net_d = 0;

  // x adjacent to exactly one of b, d: sign = +1 for b (m = b), -1 for d
  // (m = d).  With A = x~a and C = x~c the net change is
  //   A: wedges x-a-m and a-x-m +sign, triangle {a,m,x} -sign,
  //   C: wedges x-c-m and c-x-m -sign, triangle {c,m,x} +sign,
  //   !A: wedge a-m-x -sign,   !C: wedge c-m-x +sign,
  // and the triangle counts move by -sign*A at a, +sign*C at c and
  // sign*(C-A) at m and x.
  const auto price_exclusive = [&](NodeId x, std::int64_t sign,
                                   std::int64_t& net_m) {
    const bool on_a = index_->has_edge(x, a);
    const bool on_c = index_->has_edge(x, c);
    const std::int64_t net = sign * (static_cast<std::int64_t>(on_c) -
                                     static_cast<std::int64_t>(on_a));
    if (on_a) net_a -= sign;
    if (on_c) net_c += sign;
    net_m += net;
    if (net != 0) {
      out.triangle_nodes.emplace_back(x, static_cast<std::int32_t>(net));
    }
    // Same degrees on both sides: every term below cancels.
    if (on_a == on_c && ka == kc) return;
    const std::uint32_t kx = index_->degree(x);
    const auto wedge = [&](std::uint32_t end1, std::uint32_t center,
                           std::uint32_t end2, std::int64_t delta) {
      s2 += delta * static_cast<std::int64_t>(end1) *
            static_cast<std::int64_t>(end2);
      out.journal.add_wedge(util::wedge_key(end1, center, end2), delta);
    };
    const auto triangle = [&](std::uint32_t kp, std::int64_t delta) {
      out.journal.add_triangle(util::triangle_key(kp, k, kx), delta);
    };
    if (on_a) {
      wedge(kx, ka, k, sign);
      wedge(ka, kx, k, sign);
      triangle(ka, -sign);
    } else {
      wedge(ka, k, kx, -sign);
    }
    if (on_c) {
      wedge(kx, kc, k, -sign);
      wedge(kc, kx, k, -sign);
      triangle(kc, sign);
    } else {
      wedge(kc, k, kx, sign);
    }
  };

  for (const NodeId x : index_->neighbors(b)) {
    if (x == a || x == c || x == d) continue;
    if (index_->has_edge(x, d)) {
      const std::int64_t shift = static_cast<std::int64_t>(
                                     index_->has_edge(x, c)) -
                                 static_cast<std::int64_t>(
                                     index_->has_edge(x, a));
      net_b += shift;
      net_d -= shift;
      continue;
    }
    price_exclusive(x, +1, net_b);
  }
  for (const NodeId x : index_->neighbors(d)) {
    if (x == a || x == b || x == c || index_->has_edge(x, b)) continue;
    price_exclusive(x, -1, net_d);
  }

  for (const auto& [node, net] :
       {std::pair{a, net_a}, std::pair{b, net_b}, std::pair{c, net_c},
        std::pair{d, net_d}}) {
    if (net != 0) {
      out.triangle_nodes.emplace_back(node, static_cast<std::int32_t>(net));
    }
  }
  out.s2_delta = static_cast<double>(s2);
}

void DkState::commit_swap(const SwapDelta& delta) {
  util::expects(
      index_->degree(delta.b) == index_->degree(delta.d) ||
          index_->degree(delta.a) == index_->degree(delta.c),
      "DkState::commit_swap: swap must preserve the JDD");
  if (tracks_residual()) residual_.apply(delta.journal);
  index_->apply_swap(delta.a, delta.b, delta.c, delta.d);
}

void DkState::verify_consistency() const {
  if (!tracks_residual()) return;
  util::ensures(count_residual() == residual_,
                "DkState: 3K residual diverged from recount");
}

}  // namespace orbis::dk
