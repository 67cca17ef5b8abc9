// High-level facade: construct a dK-random graph for d = 0..3 from target
// distributions alone (paper §5.1 pipeline) or by randomizing an original.
//
//   d=0: G(n,p) (stochastic) or G(n,m) (exact edge count),
//   d=1: stochastic / pseudograph / matching,
//   d=2: stochastic / pseudograph / matching / targeting,
//   d=3: targeting pipeline — matching_1k bootstrap, then 2K-targeting
//        1K-preserving rewiring, then 3K-targeting 2K-preserving rewiring
//        (the paper bootstraps identically, §5.1).
// Targeting (d = 2 and 3) runs through gen::Pipeline (gen/pipeline.hpp),
// the same stage machine orbis_tool and the topology server drive.
//
// When an original graph is available, prefer gen::randomize (§4.1.4),
// which the paper found the easiest to use.
#pragma once

#include "core/series.hpp"
#include "gen/rewiring.hpp"
#include "graph/graph.hpp"
#include "svc/run_context.hpp"
#include "util/rng.hpp"

namespace orbis::gen {

enum class Method {
  stochastic,
  pseudograph,
  matching,
  targeting,
};

struct GenerateOptions {
  Method method = Method::matching;
  /// Used by Method::targeting and d == 3.
  TargetingOptions targeting = {};
};

/// Generate a dK-random graph from distributions (no original needed),
/// seeding from `rng`, which continues past every draw the run made
/// (multi-stage callers that share one Rng use this form).  Targeting
/// runs ctx.chains chains per stage and honors ctx.stop at its leg
/// boundaries, returning the best graph at the last leg boundary
/// (check ctx.stop.stop_requested()).  Pseudograph output is simplified
/// (loops/parallels dropped) but NOT GCC-extracted — callers decide, as
/// in the paper.  Throws std::invalid_argument for unsupported (d,
/// method) pairs and GenerationError when a construction cannot
/// complete.
Graph generate_dk_random(const dk::DkDistributions& target, int d,
                         const GenerateOptions& options, util::Rng& rng,
                         const svc::RunContext& ctx = {});

/// The same, seeded from ctx.seed: exactly the Rng form with
/// Rng(ctx.seed).
Graph generate_dk_random(const dk::DkDistributions& target, int d,
                         const GenerateOptions& options,
                         const svc::RunContext& ctx);

/// dK-randomizing rewiring of `original` (gen::randomize) seeded from
/// ctx.seed: cancellable via ctx.stop (returns the partially rewired
/// graph on stop), progress-reporting via ctx.progress.
Graph dk_random_like(const Graph& original, int d,
                     const svc::RunContext& ctx);

/// Options-taking form for callers that also tune the rewiring knobs
/// (budget, move mix, ...); options.d is replaced by `d`.
Graph dk_random_like(const Graph& original, int d, RandomizeOptions options,
                     const svc::RunContext& ctx,
                     RewiringStats* stats = nullptr);

}  // namespace orbis::gen
