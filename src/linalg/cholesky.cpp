#include "linalg/cholesky.h"

#include <cmath>
#include <stdexcept>

namespace hydra::linalg {

bool cholesky_factorize(const Matrix& a, Matrix& l) {
  HYDRA_REQUIRE(a.rows() == a.cols(), "cholesky: matrix must be square");
  const std::size_t n = a.rows();
  l.assign(n, n);
  const double* av = a.raw();
  double* lv = l.raw();
  for (std::size_t j = 0; j < n; ++j) {
    const double* lj = lv + j * n;
    double diag = av[j * n + j];
    for (std::size_t k = 0; k < j; ++k) diag -= lj[k] * lj[k];
    if (!(diag > 0.0) || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    lv[j * n + j] = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      const double* li = lv + i * n;
      double acc = av[i * n + j];
      for (std::size_t k = 0; k < j; ++k) acc -= li[k] * lj[k];
      lv[i * n + j] = acc / ljj;
    }
  }
  return true;
}

std::optional<Matrix> cholesky(const Matrix& a) {
  Matrix l;
  if (!cholesky_factorize(a, l)) return std::nullopt;
  return l;
}

void cholesky_solve_into(const Matrix& l, const Vector& b, Vector& y, Vector& x) {
  HYDRA_REQUIRE(l.rows() == l.cols() && l.rows() == b.size(), "cholesky_solve: size mismatch");
  const std::size_t n = b.size();
  const double* lv = l.raw();
  const double* bv = b.raw();
  // Forward substitution: L y = b.
  y.assign(n);
  double* yv = y.raw();
  for (std::size_t i = 0; i < n; ++i) {
    double acc = bv[i];
    for (std::size_t k = 0; k < i; ++k) acc -= lv[i * n + k] * yv[k];
    yv[i] = acc / lv[i * n + i];
  }
  // Back substitution: Lᵀ x = y.
  x.assign(n);
  double* xv = x.raw();
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = yv[ii];
    for (std::size_t k = ii + 1; k < n; ++k) acc -= lv[k * n + ii] * xv[k];
    xv[ii] = acc / lv[ii * n + ii];
  }
}

Vector cholesky_solve(const Matrix& l, const Vector& b) {
  Vector y;
  Vector x;
  cholesky_solve_into(l, b, y, x);
  return x;
}

const Vector& solve_spd_into(const Matrix& a, const Vector& b, SpdWorkspace& ws) {
  HYDRA_REQUIRE(a.rows() == a.cols() && a.rows() == b.size(), "solve_spd: size mismatch");
  const std::size_t n = a.rows();
  // Scale regularization to the matrix magnitude so it is meaningful for both
  // tiny and large Hessians.
  double max_abs = 0.0;
  const double* av = a.raw();
  for (std::size_t i = 0; i < n * n; ++i) max_abs = std::fmax(max_abs, std::fabs(av[i]));
  if (max_abs == 0.0) max_abs = 1.0;

  double reg = 0.0;
  for (int attempt = 0; attempt < 40; ++attempt) {
    // The unregularized first attempt factorizes `a` itself; only a shifted
    // retry needs the copy in ws.work.
    const Matrix* target = &a;
    if (reg > 0.0) {
      ws.work = a;
      double* wv = ws.work.raw();
      for (std::size_t i = 0; i < n; ++i) wv[i * n + i] += reg;
      target = &ws.work;
    }
    if (cholesky_factorize(*target, ws.l)) {
      cholesky_solve_into(ws.l, b, ws.y, ws.x);
      if (ws.x.all_finite()) return ws.x;
    }
    reg = (reg == 0.0) ? 1e-12 * max_abs : reg * 10.0;
  }
  throw std::runtime_error("solve_spd: matrix not factorizable even with regularization");
}

Vector solve_spd(const Matrix& a, const Vector& b) {
  SpdWorkspace ws;
  return solve_spd_into(a, b, ws);
}

}  // namespace hydra::linalg
