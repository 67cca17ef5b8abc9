// Spectrum of the normalized Laplacian (paper §2).
//
// L = I - D^{-1/2} A D^{-1/2}; all eigenvalues lie in [0, 2].  The paper
// tracks the extremes: λ1, the smallest NON-ZERO eigenvalue (connectivity
// / resilience bound), and λ_{n-1}, the largest (bipartiteness bound).
//
// Implementation: one matrix-free Lanczos run with the known null vector
// v0 ∝ D^{1/2} 1 deflated out, fully reorthogonalized by classical
// Gram–Schmidt applied twice (CGS2).  On a connected graph v0 spans L's
// kernel, so the smallest Ritz value in the deflated space is λ1; v0 is
// orthogonal to every other eigenvector, so the largest is λ_{n-1}.  The
// run stops once both extremes move by less than the tolerance between
// probes.  Metrics are defined on the GCC; disconnected inputs are
// reduced to their largest component first.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"

namespace orbis::metrics {

struct SpectrumResult {
  double lambda1 = 0.0;      // smallest non-zero eigenvalue
  double lambda_max = 0.0;   // largest eigenvalue (λ_{n-1})
  std::size_t iterations = 0;  // Lanczos steps of the one run
};

struct SpectrumOptions {
  std::size_t max_iterations = 300;  // Lanczos basis size cap
  double tolerance = 1e-9;           // Ritz value convergence threshold
  std::uint64_t seed = 1;            // start-vector randomization
};

/// Extreme normalized-Laplacian eigenvalues of g's largest component.
SpectrumResult laplacian_extremes(const Graph& g,
                                  const SpectrumOptions& options = {});

/// The same on a graph that is already connected (e.g. a GCC the caller
/// holds), without extracting and copying its component again.  Every
/// node needs degree >= 1 (std::invalid_argument otherwise); on a
/// disconnected graph λ1 reads 0.
SpectrumResult connected_laplacian_extremes(
    const Graph& g, const SpectrumOptions& options = {});

/// Eigenvalues of a symmetric tridiagonal matrix (diagonal + off-diagonal)
/// via the implicit-shift QL algorithm; ascending order.  Exposed for
/// testing and reuse.
std::vector<double> tridiagonal_eigenvalues(std::vector<double> diagonal,
                                            std::vector<double> off_diagonal);

}  // namespace orbis::metrics
