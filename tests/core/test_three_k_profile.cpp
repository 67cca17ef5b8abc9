#include "core/three_k_profile.hpp"

#include <gtest/gtest.h>

#include "core/dk_state.hpp"
#include "core/streaming_extractor.hpp"
#include "core/three_k_count.hpp"
#include "gen/matching.hpp"
#include "graph/builders.hpp"
#include "metrics/clustering.hpp"
#include "topo/as_level.hpp"
#include "util/rng.hpp"

namespace orbis::dk {
namespace {

Graph paw() {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(0, 3);
  return g;
}

TEST(ThreeK, PawHandCount) {
  const auto profile = ThreeKProfile::from_graph(paw());
  // Wedges: d-a-b and d-a-c, both (1,3,2); pair (b,c) at center a closes
  // into the triangle so it is NOT a wedge.
  EXPECT_EQ(profile.wedge_count(1, 3, 2), 2);
  EXPECT_EQ(profile.wedge_count(2, 3, 1), 2);  // endpoint symmetry
  EXPECT_EQ(profile.total_wedges(), 2);
  // One triangle with degrees {2,2,3}.
  EXPECT_EQ(profile.triangle_count(2, 2, 3), 1);
  EXPECT_EQ(profile.triangle_count(3, 2, 2), 1);  // full symmetry
  EXPECT_EQ(profile.total_triangles(), 1);
}

TEST(ThreeK, TriangleGraph) {
  const auto profile = ThreeKProfile::from_graph(builders::complete(3));
  EXPECT_EQ(profile.total_wedges(), 0);
  EXPECT_EQ(profile.triangle_count(2, 2, 2), 1);
}

TEST(ThreeK, PathGraphWedgeChain) {
  const auto profile = ThreeKProfile::from_graph(builders::path(4));
  // Wedges: 0-1-2 (ends 1,2) and 1-2-3 (ends 2,1): both key (1,2,2).
  EXPECT_EQ(profile.wedge_count(1, 2, 2), 2);
  EXPECT_EQ(profile.total_wedges(), 2);
  EXPECT_EQ(profile.total_triangles(), 0);
}

TEST(ThreeK, CompleteGraphTrianglesOnly) {
  const auto profile = ThreeKProfile::from_graph(builders::complete(5));
  EXPECT_TRUE(profile.wedges().empty());  // no closed pair's bin survives
  EXPECT_EQ(profile.total_wedges(), 0);
  EXPECT_EQ(profile.triangle_count(4, 4, 4), 10);  // C(5,3)
}

TEST(ThreeK, StarWedgesOnly) {
  const auto profile = ThreeKProfile::from_graph(builders::star(6));
  EXPECT_EQ(profile.wedge_count(1, 5, 1), 10);  // C(5,2)
  EXPECT_EQ(profile.total_triangles(), 0);
}

TEST(ThreeK, CompleteBipartiteK23) {
  const auto profile =
      ThreeKProfile::from_graph(builders::complete_bipartite(2, 3));
  // Degrees: A-side = 3 (2 nodes), B-side = 2 (3 nodes).
  // Wedges centered on A: C(3,2)=3 each, ends degree 2 -> (2,3,2) x 6.
  // Wedges centered on B: C(2,2)=1 each, ends degree 3 -> (3,2,3) x 3.
  EXPECT_EQ(profile.wedge_count(2, 3, 2), 6);
  EXPECT_EQ(profile.wedge_count(3, 2, 3), 3);
  EXPECT_EQ(profile.total_wedges(), 9);
  EXPECT_EQ(profile.total_triangles(), 0);  // bipartite
}

TEST(ThreeK, TotalCountsMatchGlobalFormulas) {
  util::Rng rng(17);
  const auto g = builders::gnp(40, 0.2, rng);
  const auto profile = ThreeKProfile::from_graph(g);
  // Total wedges + 3 * triangles = Σ_v C(deg v, 2).
  std::int64_t neighbor_pairs = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto k = static_cast<std::int64_t>(g.degree(v));
    neighbor_pairs += k * (k - 1) / 2;
  }
  EXPECT_EQ(profile.total_wedges() + 3 * profile.total_triangles(),
            neighbor_pairs);
}

/// Keys strictly ascending and counts positive: the SortedBins form.
void expect_canonical(const SortedBins& bins) {
  for (std::size_t i = 0; i < bins.num_bins(); ++i) {
    EXPECT_GT(bins.bins()[i].second, 0) << "bin " << i;
    if (i > 0) {
      EXPECT_LT(bins.bins()[i - 1].first, bins.bins()[i].first) << "bin " << i;
    }
  }
}

/// Node i joined to i ± 1, ..., i ± k (mod n): 2k-regular, so one
/// degree class, and every node closes triangles with its near
/// neighbors.
Graph circulant(NodeId n, NodeId k) {
  Graph g(n);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId step = 1; step <= k; ++step) g.add_edge(v, (v + step) % n);
  }
  return g;
}

// Every count_three_k user against the two oracles (from_graph_naive and
// metrics::triangles_through), with exact equality: the sorted profile
// (strictly ascending keys, positive counts), DkState's residual, the
// histogram-free S2 (also as three_k_sums starts exploration from it)
// and per-node counts, and the streaming extractor.  The families cover
// the counter's phases: no center at all (0 and 1 nodes), one class,
// a center class of one node, every wedge closing (K_n), many classes,
// and hubs whose center classes span most of the dense scratch.  The
// counter takes each center class's closed pairs off that class's
// scratch cells, so the lowest class with no degree-1 node below it
// must come out exact when its closed pairs empty whole cells (K_n, a
// triangle-rich regular graph, a wheel whose rim is the lowest class).
TEST(ThreeK, FastMatchesNaiveOnFamilies) {
  std::vector<Graph> graphs;
  graphs.push_back(builders::complete(7));
  graphs.push_back(builders::complete(5));
  graphs.push_back(circulant(40, 3));
  {
    Graph wheel(13);
    for (NodeId v = 1; v <= 12; ++v) {
      wheel.add_edge(0, v);
      wheel.add_edge(v, v % 12 + 1);
    }
    graphs.push_back(wheel);
  }
  graphs.push_back(builders::cycle(9));
  graphs.push_back(builders::star(9));
  graphs.push_back(builders::grid(4, 5));
  graphs.push_back(builders::complete_bipartite(3, 4));
  graphs.push_back(paw());
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    util::Rng rng(seed);
    graphs.push_back(builders::gnp(35, 0.15, rng));
    graphs.push_back(builders::gnm(50, 120, rng));
    graphs.push_back(builders::random_tree(30, rng));
  }
  {
    // Power-law degrees with hubs, wired by matching_1k.
    topo::AsLevelOptions options;
    options.num_nodes = 2000;
    options.gamma = 1.9;
    options.max_degree_cap = 300;
    util::Rng rng(4);
    graphs.push_back(gen::matching_1k(
        DegreeDistribution::from_sequence(
            topo::power_law_degree_sequence(options)),
        rng));
  }
  {
    // The paw plus isolated nodes, one of them between edge endpoints.
    Graph g(8);
    g.add_edge(0, 1);
    g.add_edge(0, 2);
    g.add_edge(1, 2);
    g.add_edge(0, 4);
    graphs.push_back(g);
  }
  graphs.push_back(Graph(0));
  graphs.push_back(Graph(1));

  for (std::size_t i = 0; i < graphs.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "graph family index " << i);
    const Graph& g = graphs[i];
    const auto naive = ThreeKProfile::from_graph_naive(g);
    const double naive_s2 = naive.second_order_likelihood();
    const auto fast = ThreeKProfile::from_graph(g);
    EXPECT_EQ(fast, naive);
    expect_canonical(fast.wedges());
    expect_canonical(fast.triangles());
    EXPECT_EQ(second_order_likelihood(g), naive_s2);

    const DkState full(g, TrackLevel::full_three_k);
    EXPECT_TRUE(full.residual() == ThreeKResidual(naive, ThreeKProfile{}));
    EXPECT_EQ(three_k_sums(full.index()).s2, naive_s2);
    const auto per_node = triangles_per_node(g);
    ASSERT_EQ(per_node.size(), g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const std::int64_t oracle = metrics::triangles_through(g, v);
      EXPECT_EQ(per_node[v], oracle) << "node " << v;
    }

    StreamingDkExtractor extractor(3);
    bool more = true;
    while (more) {
      for (const auto& e : g.edges()) extractor.consume(e.u, e.v);
      more = extractor.needs_another_pass();
      extractor.end_pass();
    }
    extractor.declare_nodes(g.num_nodes());
    EXPECT_EQ(extractor.finish().three_k, naive);
  }
}

Graph power_law_hub_graph() {
  topo::AsLevelOptions options;
  options.num_nodes = 3000;
  options.gamma = 1.8;
  options.max_degree_cap = 600;
  util::Rng rng(6);
  return gen::matching_1k(DegreeDistribution::from_sequence(
                              topo::power_law_degree_sequence(options)),
                          rng);
}

// finish_three_k runs the same counter over the extractor's CSR: equal
// profiles, and a peak that covers the CSR and everything the counting
// held at once (scratch, bins, triangle keys, the closed pairs filed by
// center class, sort copies, forward orientation), which
// count_three_k_profile reports on the Graph.
TEST(ThreeK, StreamingExtractorEqualsFromGraphAndCountsItsBuffers) {
  const Graph g = power_law_hub_graph();
  // Drop isolated nodes: the extractor's CSR never sees them.
  std::vector<NodeId> id(g.num_nodes(), 0);
  NodeId kept = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.degree(v) > 0) id[v] = kept++;
  }
  Graph h(kept);
  for (const auto& e : g.edges()) h.add_edge(id[e.u], id[e.v]);

  StreamingDkExtractor extractor(3);
  bool more = true;
  while (more) {
    for (const auto& e : h.edges()) extractor.consume(e.u, e.v);
    more = extractor.needs_another_pass();
    extractor.end_pass();
  }
  EXPECT_EQ(extractor.finish().three_k, ThreeKProfile::from_graph(h));

  std::size_t counting_peak = 0;
  const ThreeKProfile counted = count_three_k_profile(h, &counting_peak);
  // Each triangle's key (8 B) and its three closed pairs (4 B each) are
  // held together through the center-pair pass.
  ASSERT_GT(counted.total_triangles(), 0);
  EXPECT_GE(counting_peak,
            static_cast<std::size_t>(counted.total_triangles()) *
                (sizeof(std::uint64_t) + 3 * sizeof(std::uint32_t)));
  const std::size_t n = h.num_nodes();
  const std::size_t csr_bytes = (n + 1) * sizeof(std::uint64_t) +
                                n * sizeof(std::uint32_t) +
                                2 * h.num_edges() * sizeof(std::uint32_t);
  EXPECT_GE(extractor.peak_accumulator_bytes(), csr_bytes + counting_peak);
}

TEST(ThreeK, SecondOrderLikelihoodHandComputed) {
  // Paw wedges: two wedges with end degrees (1,2): S2 = 2 * 1 * 2 = 4.
  const auto profile = ThreeKProfile::from_graph(paw());
  EXPECT_DOUBLE_EQ(profile.second_order_likelihood(), 4.0);
  // Star on n nodes: C(n-1,2) wedges with ends (1,1): S2 = C(n-1,2).
  const auto star = ThreeKProfile::from_graph(builders::star(6));
  EXPECT_DOUBLE_EQ(star.second_order_likelihood(), 10.0);
}

TEST(ThreeK, TriangleDegreeSum) {
  // Paw: one triangle with degrees 2+2+3 = 7.
  const auto profile = ThreeKProfile::from_graph(paw());
  EXPECT_DOUBLE_EQ(profile.triangle_degree_sum(), 7.0);
}

TEST(ThreeK, ProjectionTo2KPaw) {
  const auto profile = ThreeKProfile::from_graph(paw());
  const auto jdd = profile.project_to_2k();
  EXPECT_EQ(jdd.m_of(2, 3), 2);
  EXPECT_EQ(jdd.m_of(1, 3), 1);
  EXPECT_EQ(jdd.m_of(2, 2), 1);
}

TEST(ThreeK, InclusionIdentityOnRandomGraphs) {
  // P3 -> P2 (paper Table 1 row d=3) on random graphs.  Note (1,1)-edges
  // are invisible at d=3; gnm graphs of this density have none in their
  // GCC, and isolated K2 components are legitimately dropped by the
  // identity, so compare bin-by-bin excluding (1,1).
  for (const std::uint64_t seed : {11ull, 12ull, 13ull, 14ull}) {
    util::Rng rng(seed);
    const auto g = builders::gnm(70, 160, rng);
    const auto profile = ThreeKProfile::from_graph(g);
    const auto projected = profile.project_to_2k();
    const auto direct = JointDegreeDistribution::from_graph(g);
    for (const auto& entry : direct.entries()) {
      if (entry.k1 == 1 && entry.k2 == 1) continue;
      EXPECT_EQ(projected.m_of(entry.k1, entry.k2), entry.count)
          << "bin (" << entry.k1 << "," << entry.k2 << ") seed " << seed;
    }
  }
}

TEST(ThreeK, EmptyAndTinyGraphs) {
  EXPECT_EQ(ThreeKProfile::from_graph(Graph(0)).total_wedges(), 0);
  EXPECT_EQ(ThreeKProfile::from_graph(builders::path(2)).total_wedges(), 0);
  const auto p3 = ThreeKProfile::from_graph(builders::path(3));
  EXPECT_EQ(p3.wedge_count(1, 2, 1), 1);
}

}  // namespace
}  // namespace orbis::dk
