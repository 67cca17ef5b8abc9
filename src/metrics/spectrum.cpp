#include "metrics/spectrum.hpp"

#include <algorithm>
#include <cmath>

#include "graph/algorithms.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace orbis::metrics {

namespace {

using Vector = std::vector<double>;

/// a·b over n entries.  Four independent partial sums let the adds
/// overlap instead of waiting on one dependency chain.
double dot(const double* a, const double* b, std::size_t n) {
  double s0 = 0.0;
  double s1 = 0.0;
  double s2 = 0.0;
  double s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) s0 += a[i] * b[i];
  return (s0 + s1) + (s2 + s3);
}

double norm(const Vector& a) {
  return std::sqrt(dot(a.data(), a.data(), a.size()));
}

void scale(Vector& x, double alpha) {
  for (auto& value : x) value *= alpha;
}

/// One classical Gram–Schmidt pass: every coefficient of w against the
/// orthonormal `rows` first, then every update; the coefficients land in
/// `coefficients`, one per row.  Rows go four at a time, so one load of
/// w feeds four dots and one store of w carries four updates.
void project_out(const std::vector<const double*>& rows, Vector& w,
                 Vector& coefficients) {
  const std::size_t n = w.size();
  const std::size_t count = rows.size();
  double* const y = w.data();
  coefficients.resize(count);
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const double* const r[4] = {rows[i], rows[i + 1], rows[i + 2],
                                rows[i + 3]};
    double sum[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t k = 0; k < n; ++k) {
      for (int h = 0; h < 4; ++h) sum[h] += r[h][k] * y[k];
    }
    for (int h = 0; h < 4; ++h) coefficients[i + h] = sum[h];
  }
  for (; i < count; ++i) coefficients[i] = dot(rows[i], y, n);

  for (i = 0; i + 4 <= count; i += 4) {
    const double* const r[4] = {rows[i], rows[i + 1], rows[i + 2],
                                rows[i + 3]};
    const double c[4] = {coefficients[i], coefficients[i + 1],
                         coefficients[i + 2], coefficients[i + 3]};
    for (std::size_t k = 0; k < n; ++k) {
      y[k] -= (c[0] * r[0][k] + c[1] * r[1][k]) +
              (c[2] * r[2][k] + c[3] * r[3][k]);
    }
  }
  for (; i < count; ++i) {
    const double c = coefficients[i];
    const double* const row = rows[i];
    for (std::size_t k = 0; k < n; ++k) y[k] -= c * row[k];
  }
}

/// y = L x for the normalized Laplacian of g (all degrees must be >= 1).
class LaplacianOperator {
 public:
  explicit LaplacianOperator(const Graph& g) : graph_(g) {
    inv_sqrt_degree_.resize(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto d = g.degree(v);
      util::expects(d > 0, "LaplacianOperator: isolated node");
      inv_sqrt_degree_[v] = 1.0 / std::sqrt(static_cast<double>(d));
    }
  }

  std::size_t dimension() const { return graph_.num_nodes(); }

  void apply(const Vector& x, Vector& y) const {
    for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
      double acc = 0.0;
      for (const NodeId w : graph_.neighbors(v)) {
        acc += x[w] * inv_sqrt_degree_[w];
      }
      y[v] = x[v] - inv_sqrt_degree_[v] * acc;
    }
  }

  /// Normalized kernel vector v0 ∝ D^{1/2} 1.
  Vector kernel_vector() const {
    Vector v0(graph_.num_nodes());
    for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
      v0[v] = std::sqrt(static_cast<double>(graph_.degree(v)));
    }
    scale(v0, 1.0 / norm(v0));
    return v0;
  }

 private:
  const Graph& graph_;
  Vector inv_sqrt_degree_;
};

struct LanczosResult {
  std::vector<double> ritz_values;  // ascending
  std::size_t iterations = 0;
};

/// Lanczos on L with the kernel vector v0 deflated, fully
/// reorthogonalized by CGS2 (two classical Gram–Schmidt passes against
/// v0 and the whole basis).  The first pass's coefficients on q_j and
/// q_{j-1} are the recurrence's α_j and β_{j-1}, so the three-term
/// recurrence needs no updates of its own; α_j is read from it.
LanczosResult lanczos(const LaplacianOperator& op,
                      const SpectrumOptions& options) {
  const std::size_t n = op.dimension();
  util::expects(options.max_iterations >= 1,
                "laplacian_extremes: max_iterations must be at least 1");
  const std::size_t max_iter = std::min(options.max_iterations, n);
  util::Rng rng(options.seed);

  const Vector v0 = op.kernel_vector();
  std::vector<Vector> basis;  // q_0 .. q_j, one allocation each
  basis.reserve(max_iter);
  // v0, then pointers into q_0 .. q_j: the rows every pass projects out.
  std::vector<const double*> rows{v0.data()};
  std::vector<double> alpha;
  std::vector<double> beta;  // beta[j] couples q_j and q_{j+1}
  Vector coefficients;

  // Random start vector, projected off v0.
  Vector q(n);
  for (auto& value : q) value = rng.uniform_real() - 0.5;
  project_out(rows, q, coefficients);
  const double q_norm = norm(q);
  util::ensures(q_norm > 1e-12, "lanczos: degenerate start vector");
  scale(q, 1.0 / q_norm);
  basis.push_back(std::move(q));
  rows.push_back(basis.back().data());

  Vector w(n);
  double previous_extreme_low = 1e300;
  double previous_extreme_high = -1e300;
  LanczosResult result;

  for (std::size_t j = 0;; ++j) {
    op.apply(basis[j], w);
    project_out(rows, w, coefficients);
    alpha.push_back(coefficients[j + 1]);
    project_out(rows, w, coefficients);

    result.iterations = j + 1;
    const double b_j = norm(w);

    // Krylov space exhausted (invariant subspace found) or budget spent:
    // the current tridiagonal matrix is final.
    if (b_j < 1e-10 || j + 1 == max_iter) {
      result.ritz_values = tridiagonal_eigenvalues(alpha, beta);
      return result;
    }

    // Convergence probe on the extreme Ritz values every few steps.
    if (j >= 2 && j % 5 == 0) {
      auto ritz = tridiagonal_eigenvalues(alpha, beta);
      const double low = ritz.front();
      const double high = ritz.back();
      const bool converged =
          std::fabs(low - previous_extreme_low) < options.tolerance &&
          std::fabs(high - previous_extreme_high) < options.tolerance;
      previous_extreme_low = low;
      previous_extreme_high = high;
      if (converged) {
        result.ritz_values = std::move(ritz);
        return result;
      }
    }

    beta.push_back(b_j);
    Vector next = w;
    scale(next, 1.0 / b_j);
    basis.push_back(std::move(next));
    rows.push_back(basis.back().data());
  }
}

}  // namespace

std::vector<double> tridiagonal_eigenvalues(std::vector<double> diagonal,
                                            std::vector<double> off_diagonal) {
  // Implicit-shift QL ("tqli" without eigenvectors).
  const std::size_t n = diagonal.size();
  util::expects(off_diagonal.size() + 1 == n || (n == 0 && off_diagonal.empty()),
                "tridiagonal_eigenvalues: off-diagonal size must be n-1");
  if (n == 0) return {};
  std::vector<double>& d = diagonal;
  std::vector<double> e(std::move(off_diagonal));
  e.push_back(0.0);

  // Implicit-shift QL with deflation (Numerical Recipes "tqli" layout,
  // eigenvalues only).
  for (std::size_t l = 0; l < n; ++l) {
    std::size_t iterations = 0;
    std::size_t m;
    do {
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::fabs(d[m]) + std::fabs(d[m + 1]);
        if (std::fabs(e[m]) <= 1e-15 * dd) break;
      }
      if (m != l) {
        util::ensures(++iterations <= 64,
                      "tridiagonal_eigenvalues: QL failed to converge");
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = std::hypot(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        bool underflow = false;
        for (std::size_t i = m; i-- > l;) {
          double f = s * e[i];
          const double b = c * e[i];
          r = std::hypot(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            underflow = true;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
        }
        if (underflow) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
  std::sort(d.begin(), d.end());
  return d;
}

SpectrumResult laplacian_extremes(const Graph& g,
                                  const SpectrumOptions& options) {
  return connected_laplacian_extremes(largest_connected_component(g).graph,
                                      options);
}

SpectrumResult connected_laplacian_extremes(const Graph& g,
                                            const SpectrumOptions& options) {
  SpectrumResult result;
  if (g.num_nodes() < 2) return result;

  const LaplacianOperator op(g);

  if (g.num_nodes() == 2) {
    result.lambda1 = 2.0;
    result.lambda_max = 2.0;
    result.iterations = 1;
    return result;
  }

  // With v0 deflated the bottom Ritz value is λ1, and the top one is
  // still λ_{n-1}: v0 is the λ = 0 eigenvector, orthogonal to it.
  const auto lanczos_run = lanczos(op, options);
  result.lambda1 = std::max(0.0, lanczos_run.ritz_values.front());
  result.lambda_max = lanczos_run.ritz_values.back();
  result.iterations = lanczos_run.iterations;
  return result;
}

}  // namespace orbis::metrics
