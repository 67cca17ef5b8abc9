#include "core/dk_state.hpp"

#include <algorithm>

#include "core/three_k_count.hpp"
#include "util/check.hpp"

namespace orbis::dk {

namespace {

double clustering_weight(std::uint32_t degree) {
  if (degree < 2) return 0.0;
  return 2.0 / (static_cast<double>(degree) *
                static_cast<double>(degree - 1));
}

// Below this size journal_add coalesces inline with a linear scan (the
// common case: a swap between typical-degree endpoints touches a dozen
// bins); past it, entries are appended raw and DeltaJournal::coalesce
// sort-merges once, keeping hub endpoints with many distinct neighbor
// degrees off a quadratic path.
constexpr std::size_t kInlineCoalesceLimit = 48;

void journal_add(DeltaJournal::Map& map, std::uint64_t key,
                 std::int64_t delta) {
  if (map.size() < kInlineCoalesceLimit) {
    for (auto& entry : map) {
      if (entry.first == key) {
        entry.second += delta;
        if (entry.second == 0) {
          entry = map.back();
          map.pop_back();
        }
        return;
      }
    }
  }
  map.emplace_back(key, delta);
}

void coalesce_map(DeltaJournal::Map& map) {
  if (map.size() < kInlineCoalesceLimit) return;  // already coalesced
  std::sort(map.begin(), map.end());
  std::size_t out = 0;
  for (std::size_t i = 0; i < map.size();) {
    std::int64_t net = 0;
    std::size_t j = i;
    while (j < map.size() && map[j].first == map[i].first) {
      net += map[j].second;
      ++j;
    }
    if (net != 0) map[out++] = {map[i].first, net};
    i = j;
  }
  map.resize(out);
}

}  // namespace

void DeltaJournal::coalesce() {
  coalesce_map(wedge);
  coalesce_map(triangle);
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

DkState::DkState(const Graph& graph, TrackLevel level)
    : owned_(std::make_unique<EdgeIndex>(graph)),
      index_(owned_.get()),
      level_(level) {
  if (tracks_histograms()) count_three_k(*index_, three_k_);
}

DkState::DkState(EdgeIndex& index, TrackLevel level)
    : index_(&index), level_(level) {
  if (tracks_histograms()) count_three_k(*index_, three_k_);
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
  // them to EdgeIndex::apply_swap, whose slot layout feeds later
  // proposal draws.
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
  // No-op below the inline-coalesce limit; one O(k log k) sort-merge
  // past it.
  out.journal.coalesce();
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
  const bool histograms = journals_bins();
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
      if (histograms) {
        journal_add(out.journal.wedge, util::wedge_key(end1, center, end2),
                    delta);
      }
    };
    const auto triangle = [&](std::uint32_t kp, std::int64_t delta) {
      if (histograms) {
        journal_add(out.journal.triangle, util::triangle_key(kp, k, kx),
                    delta);
      }
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
  if (tracks_histograms()) {
    for (const auto& [key, net] : delta.journal.wedge) {
      three_k_.wedges().add(key, net);
    }
    for (const auto& [key, net] : delta.journal.triangle) {
      three_k_.triangles().add(key, net);
    }
  }
  index_->apply_swap(delta.a, delta.b, delta.c, delta.d);
}

void DkState::verify_consistency() const {
  if (!tracks_histograms()) return;
  util::ensures(ThreeKProfile::from_graph(to_graph()) == three_k_,
                "DkState: 3K profile diverged from recount");
}

}  // namespace orbis::dk
