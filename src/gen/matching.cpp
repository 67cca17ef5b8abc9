#include "gen/matching.hpp"

#include "gen/errors.hpp"
#include "gen/pseudograph.hpp"
#include "gen/rewiring.hpp"
#include "graph/multigraph.hpp"
#include "util/check.hpp"

namespace orbis::gen {

namespace {

constexpr std::size_t max_repair_tries_per_edge = 1024;
constexpr int max_construction_restarts = 64;

/// Turns a multigraph with the exact target distribution into a simple
/// graph with the same distribution by swap-repairing every bad edge.
/// When `preserve_jdd` is set, swap partners must match degree classes so
/// the joint degree distribution survives the repair.
Graph repair_to_simple(const Multigraph& multigraph, bool preserve_jdd,
                       util::Rng& rng, MatchingStats* stats) {
  const auto target_degrees = multigraph.degree_sequence();
  std::vector<Edge> bad;
  Graph g = Graph::from_edges_dedup(multigraph.num_nodes(), multigraph.edges(),
                                    &bad);
  if (stats != nullptr) {
    stats->initial_bad_edges = bad.size();
    stats->repair_swaps = 0;
  }

  for (std::size_t cursor = 0; cursor < bad.size(); ++cursor) {
    const Edge pending = bad[cursor];
    const NodeId u = pending.u;
    const NodeId v = pending.v;
    bool repaired = false;
    for (std::size_t attempt = 0;
         attempt < max_repair_tries_per_edge && !repaired; ++attempt) {
      if (g.num_edges() == 0) break;
      const Edge good = g.edge_at(rng.uniform(g.num_edges()));

      // Two ways to orient the swap partner; try both in random order.
      for (int flip = 0; flip < 2 && !repaired; ++flip) {
        const NodeId x = (flip == 0) ? good.u : good.v;
        const NodeId y = (flip == 0) ? good.v : good.u;
        // Replace {pending(u,v), good(x,y)} with {(u,y), (x,v)}.
        if (preserve_jdd) {
          // The replacement preserves the JDD iff the partner edge has the
          // same degree classes, aligned so u,x share a class and v,y do.
          if (target_degrees[x] != target_degrees[u] ||
              target_degrees[y] != target_degrees[v]) {
            continue;
          }
        }
        if (u == y || x == v) continue;
        if (g.has_edge(u, y) || g.has_edge(x, v)) continue;
        if (util::pair_key(u, y) == util::pair_key(x, v)) continue;
        g.remove_edge(x, y);
        g.add_edge(u, y);
        g.add_edge(x, v);
        repaired = true;
        if (stats != nullptr) ++stats->repair_swaps;
      }
    }
    if (!repaired) {
      throw GenerationError(
          "matching: unrepairable deadlock — no valid swap partner for a "
          "bad edge (target distribution may admit no simple realization)");
    }
  }

  // Postcondition: the repair preserved the degree sequence exactly.
  const auto realized = g.degree_sequence();
  util::ensures(realized == target_degrees,
                "matching: repair broke the degree sequence");
  return g;
}

/// Some configuration draws are unrepairable even for realizable targets
/// (e.g. the single edge of a rare degree-class pair came out as a loop —
/// then no class-aligned swap partner exists).  Redrawing the pairing
/// fixes those cases; genuinely unrealizable targets keep failing and are
/// reported after the restart budget.
template <typename MakeMultigraph>
Graph construct_with_restarts(MakeMultigraph make, bool preserve_jdd,
                              util::Rng& rng, MatchingStats* stats) {
  for (int restart = 0; restart < max_construction_restarts; ++restart) {
    try {
      return repair_to_simple(make(), preserve_jdd, rng, stats);
    } catch (const GenerationError&) {
      if (restart + 1 == max_construction_restarts) throw;
    }
  }
  throw GenerationError("matching: construction restarts exhausted");
}

}  // namespace

Graph matching_1k(const dk::DegreeDistribution& target, util::Rng& rng,
                  MatchingStats* stats) {
  return construct_with_restarts(
      [&] { return pseudograph_1k(target, rng); },
      /*preserve_jdd=*/false, rng, stats);
}

Graph matching_2k(const dk::JointDegreeDistribution& target, util::Rng& rng,
                  MatchingStats* stats) {
  // Fast path: configuration grouping + JDD-preserving swap repair.  This
  // can fail for realizable targets when the single edge of a rare
  // degree-class pair comes out bad (no class-aligned swap partner
  // exists), so the restart budget is kept small here.
  for (int restart = 0; restart < 8; ++restart) {
    try {
      return repair_to_simple(pseudograph_2k(target, rng),
                              /*preserve_jdd=*/true, rng, stats);
    } catch (const GenerationError&) {
      // fall through to the next restart / the polish path
    }
  }

  // Polish path: build an exact-1K simple graph, then walk it to the
  // exact target JDD with 2K-targeting 1K-preserving rewiring.  Plateau
  // Metropolis usually reaches D2 = 0 directly; if a descent stalls in a
  // local basin, alternate short warm (annealing) rounds with cold ones.
  Graph polished = matching_1k(target.project_to_1k(), rng, stats);
  double final_distance = -1.0;
  const double temperatures[] = {0.0, 2.0, 0.0, 8.0, 0.0, 32.0, 0.0};
  for (const double temperature : temperatures) {
    TargetingOptions options;
    options.temperature = temperature;
    options.attempts_per_edge = temperature == 0.0 ? 1500 : 100;
    polished = target_2k(polished, target, options, rng, nullptr,
                         &final_distance);
    if (temperature == 0.0 && final_distance == 0.0) return polished;
  }
  throw GenerationError(
      "matching_2k: JDD-targeting polish did not reach the target "
      "(distance " +
      std::to_string(final_distance) + ")");
}

}  // namespace orbis::gen
