#include "metrics/summary.hpp"

#include <sstream>

#include "core/three_k_count.hpp"
#include "graph/algorithms.hpp"
#include "metrics/clustering.hpp"
#include "metrics/distance.hpp"
#include "metrics/scalar.hpp"
#include "metrics/spectrum.hpp"
#include "obs/trace.hpp"
#include "util/errors.hpp"

namespace orbis::metrics {

ScalarMetrics compute_scalar_metrics(const Graph& g,
                                     const SummaryOptions& options,
                                     const svc::RunContext& ctx) {
  ScalarMetrics result;
  if (g.num_nodes() == 0) return result;

  // Phase accounting: the cheap scalar bundle counts as one phase,
  // plus one per enabled heavyweight phase.
  const std::uint64_t budget =
      1 + (options.with_distance ? 1 : 0) + (options.with_s2 ? 1 : 0) +
      (options.with_spectrum ? 1 : 0);
  std::uint64_t done = 0;
  const auto checkpoint = [&]() {
    ++done;
    if (ctx.progress != nullptr) {
      ctx.progress->report(
          0, obs::ProgressSample{.attempts = done, .budget = budget});
    }
    if (ctx.stop.stop_requested()) {
      throw InterruptedError("compute_scalar_metrics: cancelled");
    }
  };

  // One trace span per phase, closed before the phase's checkpoint.
  const auto phase = [&](const char* name, const auto& body) {
    {
      const obs::Span span(name);
      body();
    }
    checkpoint();
  };

  GccResult gcc;
  const Graph& core = gcc.graph;
  phase("metrics.scalars", [&] {
    gcc = largest_connected_component(g);
    result.gcc_nodes = core.num_nodes();
    result.gcc_edges = core.num_edges();
    result.average_degree = core.average_degree();
    result.assortativity = assortativity(core);
    result.mean_clustering = mean_clustering(core);
    result.likelihood_s = likelihood_s(core);
  });
  if (options.with_distance) {
    phase("metrics.distance", [&] {
      const auto distances = distance_distribution(core);
      result.mean_distance = distances.mean();
      result.distance_stddev = distances.stddev();
    });
  }
  if (options.with_s2) {
    phase("metrics.s2",
          [&] { result.s2 = dk::second_order_likelihood(core); });
  }
  if (options.with_spectrum) {
    phase("metrics.spectrum", [&] {
      const auto spectrum = connected_laplacian_extremes(core);
      result.lambda1 = spectrum.lambda1;
      result.lambda_max = spectrum.lambda_max;
    });
  }
  return result;
}

std::string to_string(const ScalarMetrics& m) {
  std::ostringstream out;
  out << "kbar=" << m.average_degree << " r=" << m.assortativity
      << " C=" << m.mean_clustering << " d=" << m.mean_distance
      << " sigma_d=" << m.distance_stddev << " S2=" << m.s2
      << " lambda1=" << m.lambda1 << " lambda_max=" << m.lambda_max
      << " (gcc " << m.gcc_nodes << "/" << m.gcc_edges << ")";
  return out.str();
}

}  // namespace orbis::metrics
