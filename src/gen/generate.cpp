#include "gen/generate.hpp"

#include <cmath>
#include <utility>

#include "gen/errors.hpp"
#include "gen/matching.hpp"
#include "gen/pipeline.hpp"
#include "gen/pseudograph.hpp"
#include "gen/stochastic.hpp"
#include "graph/builders.hpp"
#include "util/check.hpp"

namespace orbis::gen {

namespace {

/// The paper's §5.1 targeting pipeline (gen/pipeline.hpp), run to the
/// end or to ctx.stop; on a stop it returns the best graph at the last
/// leg boundary.  `rng` continues past every draw the run made.
Graph run_pipeline(const dk::DkDistributions& target, int d,
                   const GenerateOptions& options, util::Rng& rng,
                   const svc::RunContext& ctx) {
  PipelineOptions pipeline_options;
  pipeline_options.d = d;
  pipeline_options.targeting = options.targeting;
  Pipeline pipeline(target, std::move(pipeline_options), rng, ctx);
  pipeline.run({});
  rng = pipeline.rng();
  return pipeline.graph();
}

Graph generate_0k(const dk::DkDistributions& target, Method method,
                  util::Rng& rng) {
  const auto n = static_cast<NodeId>(target.num_nodes);
  if (method == Method::stochastic) {
    return stochastic_0k(n, target.average_degree, rng);
  }
  // Exact edge-count variant for every non-stochastic method.
  return builders::gnm(n, static_cast<std::size_t>(target.num_edges), rng);
}

Graph generate_1k(const dk::DkDistributions& target, Method method,
                  util::Rng& rng) {
  switch (method) {
    case Method::stochastic:
      return stochastic_1k(target.degree, rng);
    case Method::pseudograph:
      return pseudograph_1k(target.degree, rng).to_simple();
    case Method::matching:
    case Method::targeting:  // 1K needs no targeting pass
      return matching_1k(target.degree, rng);
  }
  throw std::invalid_argument("generate_1k: unknown method");
}

Graph generate_2k(const dk::DkDistributions& target,
                  const GenerateOptions& options, util::Rng& rng,
                  const svc::RunContext& ctx) {
  switch (options.method) {
    case Method::stochastic:
      return stochastic_2k(target.joint, rng);
    case Method::pseudograph:
      return pseudograph_2k(target.joint, rng).to_simple();
    case Method::matching:
      return matching_2k(target.joint, rng);
    case Method::targeting:
      return run_pipeline(target, 2, options, rng, ctx);
  }
  throw std::invalid_argument("generate_2k: unknown method");
}

}  // namespace

Graph generate_dk_random(const dk::DkDistributions& target, int d,
                         const GenerateOptions& options, util::Rng& rng,
                         const svc::RunContext& ctx) {
  util::expects(d >= 0 && d <= 3, "generate_dk_random: d must be in [0,3]");
  switch (d) {
    case 0:
      return generate_0k(target, options.method, rng);
    case 1:
      return generate_1k(target, options.method, rng);
    case 2:
      return generate_2k(target, options, rng, ctx);
    default:
      if (options.method != Method::targeting) {
        throw std::invalid_argument(
            "generate_3k: only Method::targeting can construct 3K-random "
            "graphs from distributions (paper §4.1.2: pseudograph/matching "
            "do not generalize beyond d = 2)");
      }
      return run_pipeline(target, 3, options, rng, ctx);
  }
}

Graph generate_dk_random(const dk::DkDistributions& target, int d,
                         const GenerateOptions& options,
                         const svc::RunContext& ctx) {
  util::Rng rng = ctx.make_rng();
  return generate_dk_random(target, d, options, rng, ctx);
}

Graph dk_random_like(const Graph& original, int d,
                     const svc::RunContext& ctx) {
  return dk_random_like(original, d, RandomizeOptions{}, ctx);
}

Graph dk_random_like(const Graph& original, int d, RandomizeOptions options,
                     const svc::RunContext& ctx, RewiringStats* stats) {
  options.d = d;
  util::Rng rng = ctx.make_rng();
  return randomize(original, options, rng, stats, ctx);
}

}  // namespace orbis::gen
