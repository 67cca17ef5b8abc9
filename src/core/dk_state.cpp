#include "core/dk_state.hpp"

#include <algorithm>
#include <cmath>

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

DkState::DkState(const Graph& graph, TrackLevel level)
    : owned_(std::make_unique<EdgeIndex>(graph)), index_(owned_.get()) {
  init(level);
}

DkState::DkState(EdgeIndex& index, TrackLevel level)
    : owned_(nullptr), index_(&index) {
  init(level);
}

void DkState::init(TrackLevel level) {
  level_ = level;
  const NodeId n = index_->num_nodes();

  for (const auto& e : index_->edges()) {
    const std::uint32_t du = index_->degree(e.u);
    const std::uint32_t dv = index_->degree(e.v);
    jdd_.histogram().increment(util::pair_key(du, dv));
    s_ += static_cast<double>(du) * static_cast<double>(dv);
  }

  if (tracks_scalars()) {
    mark_.assign(n, 0);
    mark_stamp_ = 0;
    // One pass: S2, every t_v and, at full_three_k, the histograms.
    ThreeKScalars scalars(n);
    if (tracks_histograms()) {
      count_three_k(*index_, scalars, three_k_);
    } else {
      count_three_k(*index_, scalars);
    }
    s2_ = static_cast<double>(scalars.s2);
    node_triangles_ = std::move(scalars.node_triangles);
    for (NodeId v = 0; v < n; ++v) {
      clustering_sum_ += static_cast<double>(node_triangles_[v]) *
                         clustering_weight(index_->degree(v));
    }
  }
}

double DkState::mean_clustering() const noexcept {
  if (index_->num_nodes() == 0) return 0.0;
  return clustering_sum_ / static_cast<double>(index_->num_nodes());
}

void DkState::bump_jdd(std::uint32_t k1, std::uint32_t k2,
                       std::int64_t delta) {
  jdd_.histogram().add(util::pair_key(k1, k2), delta);
}

void DkState::bump_wedge(std::uint32_t end1, std::uint32_t center,
                         std::uint32_t end2, std::int64_t delta) {
  s2_ += static_cast<double>(delta) * static_cast<double>(end1) *
         static_cast<double>(end2);
  if (!tracks_histograms()) return;
  three_k_.wedges().add(util::wedge_key(end1, center, end2), delta);
}

void DkState::bump_triangle(std::uint32_t a, std::uint32_t b,
                            std::uint32_t c, std::int64_t delta) {
  if (!tracks_histograms()) return;
  three_k_.triangles().add(util::triangle_key(a, b, c), delta);
}

void DkState::bump_node_triangles(NodeId v, std::int64_t delta) {
  node_triangles_[v] += delta;
  util::ensures(node_triangles_[v] >= 0,
                "DkState: node triangle count went negative");
  clustering_sum_ += static_cast<double>(delta) *
                     clustering_weight(index_->degree(v));
}

void DkState::remove_edge(NodeId u, NodeId v) {
  util::expects(index_->has_edge(u, v), "DkState::remove_edge: no such edge");
  const std::uint32_t du = index_->degree(u);
  const std::uint32_t dv = index_->degree(v);

  if (tracks_scalars()) {
    // Scan BEFORE structural removal so adjacency still reflects the
    // edge.  One mark pass classifies every incident wedge/triangle in
    // O(deg u + deg v) with no hash lookups: stamp N(v), sweep N(u)
    // (common neighbor -> dying triangle, else a wedge centered at u
    // dies), then re-sweep N(v) — entries still carrying the first
    // stamp are non-common and lose their wedge centered at v.
    const std::uint64_t in_v = ++mark_stamp_;
    const std::uint64_t common = ++mark_stamp_;
    const auto u_nbrs = index_->neighbors(u);
    const auto v_nbrs = index_->neighbors(v);
    for (const NodeId y : v_nbrs) {
      if (y != u) mark_[y] = in_v;
    }
    for (const NodeId x : u_nbrs) {
      if (x == v) continue;
      const std::uint32_t dx = index_->degree(x);
      if (mark_[x] == in_v) {
        mark_[x] = common;
        // Triangle (u,v,x) dies; pair (u,v) at center x opens into a wedge.
        bump_triangle(du, dv, dx, -1);
        bump_wedge(du, dx, dv, +1);
        bump_node_triangles(u, -1);
        bump_node_triangles(v, -1);
        bump_node_triangles(x, -1);
      } else {
        // Wedge x - u - v (centered at u) dies with the edge.
        bump_wedge(dx, du, dv, -1);
      }
    }
    for (const NodeId y : v_nbrs) {
      if (y == u) continue;
      if (mark_[y] == in_v) {
        bump_wedge(index_->degree(y), dv, du, -1);
      }
      // Common neighbors already handled from u's side.
    }
  }

  bump_jdd(du, dv, -1);
  s_ -= static_cast<double>(du) * static_cast<double>(dv);
  index_->remove_edge(u, v);
}

void DkState::add_edge(NodeId u, NodeId v) {
  util::expects(u != v, "DkState::add_edge: self-loop");
  util::expects(!index_->has_edge(u, v), "DkState::add_edge: edge exists");
  // Checked here, before any histogram bump, so a violation cannot leave
  // the bookkeeping half-updated.
  util::expects(index_->current_degree(u) < index_->degree(u) &&
                    index_->current_degree(v) < index_->degree(v),
                "DkState::add_edge: node at frozen degree");
  const std::uint32_t du = index_->degree(u);
  const std::uint32_t dv = index_->degree(v);

  if (tracks_scalars()) {
    // Scan BEFORE structural insertion: x ranges over old neighbors
    // only.  Mirror image of the removal pass.
    const std::uint64_t in_v = ++mark_stamp_;
    const std::uint64_t common = ++mark_stamp_;
    const auto u_nbrs = index_->neighbors(u);
    const auto v_nbrs = index_->neighbors(v);
    for (const NodeId y : v_nbrs) mark_[y] = in_v;
    for (const NodeId x : u_nbrs) {
      const std::uint32_t dx = index_->degree(x);
      if (mark_[x] == in_v) {
        mark_[x] = common;
        // Wedge u - x - v closes into a triangle.
        bump_wedge(du, dx, dv, -1);
        bump_triangle(du, dv, dx, +1);
        bump_node_triangles(u, +1);
        bump_node_triangles(v, +1);
        bump_node_triangles(x, +1);
      } else {
        // New wedge x - u - v centered at u.
        bump_wedge(dx, du, dv, +1);
      }
    }
    for (const NodeId y : v_nbrs) {
      if (mark_[y] == in_v) {
        bump_wedge(index_->degree(y), dv, du, +1);
      }
    }
  }

  bump_jdd(du, dv, +1);
  s_ += static_cast<double>(du) * static_cast<double>(dv);
  index_->add_edge(u, v);
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
  // The JDD bin moves of a 2K-preserving swap cancel exactly, and S is a
  // function of the JDD — both stay untouched.
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
  if (tracks_scalars()) {
    s2_ += delta.s2_delta;
    clustering_sum_ += delta.clustering_delta;
    for (const auto& [node, net] : delta.triangle_nodes) {
      node_triangles_[node] += net;
      util::ensures(node_triangles_[node] >= 0,
                    "DkState: node triangle count went negative");
    }
  }
  index_->apply_swap(delta.a, delta.b, delta.c, delta.d);
}

void DkState::verify_consistency() const {
  const Graph graph = to_graph();
  const auto fresh_jdd = JointDegreeDistribution::from_graph(graph);
  util::ensures(fresh_jdd == jdd_, "DkState: JDD diverged from recount");
  double fresh_s = 0.0;
  for (const auto& e : graph.edges()) {
    fresh_s += static_cast<double>(graph.degree(e.u)) *
               static_cast<double>(graph.degree(e.v));
  }
  util::ensures(std::fabs(fresh_s - s_) < 1e-6 * (1.0 + std::fabs(s_)),
                "DkState: likelihood S diverged from recount");
  if (tracks_scalars()) {
    if (tracks_histograms()) {
      util::ensures(ThreeKProfile::from_graph(graph) == three_k_,
                    "DkState: 3K profile diverged from recount");
    }
    util::ensures(triangles_per_node(graph) == node_triangles_,
                  "DkState: node triangle counts diverged from recount");
    const double fresh_s2 = dk::second_order_likelihood(graph);
    util::ensures(std::fabs(fresh_s2 - s2_) <
                      1e-6 * (1.0 + std::fabs(s2_)),
                  "DkState: S2 diverged from recount");
  }
}

}  // namespace orbis::dk
