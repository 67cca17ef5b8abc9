// ScalarMetrics: the paper's Table-2 bundle, computed in one call.
//
//   k̄    average degree            r     assortativity coefficient
//   C̄    mean clustering           d̄     average hop distance
//   σd   distance std deviation    S2    second-order likelihood
//   λ1   smallest non-zero         λn-1  largest normalized-Laplacian
//        eigenvalue                      eigenvalue
//
// Following §5, all values are computed on the giant connected component.
#pragma once

#include <string>

#include "graph/graph.hpp"
#include "svc/run_context.hpp"

namespace orbis::metrics {

struct ScalarMetrics {
  double average_degree = 0.0;   // k̄
  double assortativity = 0.0;    // r
  double mean_clustering = 0.0;  // C̄
  double mean_distance = 0.0;    // d̄
  double distance_stddev = 0.0;  // σd
  double likelihood_s = 0.0;     // S  (Σ_edges k_u k_v)
  double s2 = 0.0;               // S2 (Σ_wedges k1 k3)
  double lambda1 = 0.0;          // λ1
  double lambda_max = 0.0;       // λ_{n-1}
  std::uint64_t gcc_nodes = 0;
  std::uint64_t gcc_edges = 0;
};

struct SummaryOptions {
  bool with_spectrum = true;   // Lanczos runs (skip for speed if unneeded)
  bool with_distance = true;   // all-pairs BFS, 64 sources a pass
  bool with_s2 = true;         // 3K extraction for S2
};

/// Compute the scalar bundle on g's giant connected component.
/// ctx.stop is polled between metric phases (the phases themselves —
/// BFS sweep, 3K extraction, Lanczos — run to completion; they are each
/// a bounded fraction of the total); a requested stop throws
/// orbis::InterruptedError.  ctx.progress gets one sample per completed
/// phase: attempts = phases done, budget = phases enabled.  Each phase
/// is one obs::Span: metrics.scalars, metrics.distance, metrics.s2 and
/// metrics.spectrum.
ScalarMetrics compute_scalar_metrics(const Graph& g,
                                     const SummaryOptions& options = {},
                                     const svc::RunContext& ctx = {});

/// One-line rendering for logs.
std::string to_string(const ScalarMetrics& metrics);

}  // namespace orbis::metrics
