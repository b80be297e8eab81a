#include "gp/terms.h"

#include <cmath>
#include <limits>

namespace hydra::gp {

namespace {

/// Starting value of the max-shift u_max in the log-sum-exp.
constexpr double kShiftFloor = -1e308;

/// Whether the single-term shortcut reproduces the general formula bit for
/// bit at log-term value u.  For u in [kShiftFloor, +inf) the general path
/// computes u_max = u, w = exp(u − u) = exp(+0) = 1, wsum = 1, p = 1 and
/// value = u + log(1) = u + 0.0 (which maps −0.0 to +0.0, so the shortcut
/// adds the 0.0 too).  Below the floor, at +inf and at NaN it does not.
bool single_term_exact(double u) {
  return u >= kShiftFloor && u < std::numeric_limits<double>::infinity();
}

}  // namespace

Monomial::Monomial(double coeff, std::size_t num_vars)
    : coeff_(coeff), log_coeff_(std::log(coeff)), exponents_(num_vars, 0.0) {
  HYDRA_REQUIRE(std::isfinite(coeff) && coeff > 0.0, "monomial coefficient must be positive");
}

Monomial& Monomial::with(VarId v, double exponent) {
  HYDRA_REQUIRE(v < exponents_.size(), "monomial variable index out of range");
  HYDRA_REQUIRE(std::isfinite(exponent), "monomial exponent must be finite");
  exponents_[v] += exponent;
  return *this;
}

double Monomial::exponent(VarId v) const {
  HYDRA_REQUIRE(v < exponents_.size(), "monomial variable index out of range");
  return exponents_[v];
}

double Monomial::eval(const std::vector<double>& x) const {
  HYDRA_REQUIRE(x.size() == exponents_.size(), "monomial evaluation point size mismatch");
  double acc = coeff_;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (exponents_[i] == 0.0) continue;
    HYDRA_REQUIRE(x[i] > 0.0, "monomial variables must be positive");
    acc *= std::pow(x[i], exponents_[i]);
  }
  return acc;
}

double Monomial::log_eval(const linalg::Vector& y) const {
  HYDRA_REQUIRE(y.size() == exponents_.size(), "monomial log point size mismatch");
  return log_eval_unchecked(y.raw());
}

Monomial operator*(const Monomial& a, const Monomial& b) {
  HYDRA_REQUIRE(a.exponents_.size() == b.exponents_.size(), "monomial size mismatch");
  Monomial out(a.coeff_ * b.coeff_, a.exponents_.size());
  for (std::size_t i = 0; i < out.exponents_.size(); ++i) {
    out.exponents_[i] = a.exponents_[i] + b.exponents_[i];
  }
  return out;
}

Monomial Monomial::reciprocal() const {
  Monomial out(1.0 / coeff_, exponents_.size());
  for (std::size_t i = 0; i < exponents_.size(); ++i) out.exponents_[i] = -exponents_[i];
  return out;
}

Monomial Monomial::scaled(double factor) const {
  HYDRA_REQUIRE(std::isfinite(factor) && factor > 0.0, "scale factor must be positive");
  Monomial out = *this;
  out.coeff_ *= factor;
  out.log_coeff_ = std::log(out.coeff_);
  return out;
}

Posynomial::Posynomial(Monomial m) : num_vars_(m.num_vars()) { terms_.push_back(std::move(m)); }

Posynomial& Posynomial::operator+=(const Monomial& m) {
  HYDRA_REQUIRE(m.num_vars() == num_vars_, "posynomial term size mismatch");
  terms_.push_back(m);
  return *this;
}

Posynomial& Posynomial::operator+=(const Posynomial& p) {
  HYDRA_REQUIRE(p.num_vars_ == num_vars_, "posynomial size mismatch");
  for (const auto& t : p.terms_) terms_.push_back(t);
  return *this;
}

double Posynomial::eval(const std::vector<double>& x) const {
  double acc = 0.0;
  for (const auto& t : terms_) acc += t.eval(x);
  return acc;
}

double Posynomial::shifted_weights(const double* y, double* w, double& u_max) const {
  const std::size_t k = terms_.size();
  // u_t = a_tᵀ y + log c_t, max-shifted for stability.
  u_max = kShiftFloor;
  for (std::size_t t = 0; t < k; ++t) {
    w[t] = terms_[t].log_eval_unchecked(y);
    u_max = std::fmax(u_max, w[t]);
  }
  double wsum = 0.0;
  for (std::size_t t = 0; t < k; ++t) {
    w[t] = std::exp(w[t] - u_max);
    wsum += w[t];
  }
  return wsum;
}

LogEval Posynomial::log_eval(const linalg::Vector& y, bool need_hess) const {
  LogEval out;
  log_eval_into(y, need_hess, out);
  return out;
}

void Posynomial::log_eval_into(const linalg::Vector& y, bool need_hess, LogEval& out) const {
  HYDRA_REQUIRE(!terms_.empty(), "cannot evaluate the log of an empty posynomial");
  HYDRA_REQUIRE(y.size() == num_vars_, "posynomial log point size mismatch");
  const std::size_t n = num_vars_;
  const std::size_t k = terms_.size();
  const double* yv = y.raw();
  out.grad.assign(n);
  double* g = out.grad.raw();
  out.has_hess = false;

  if (k == 1) {
    // Single term (period bounds, condensed SCP objectives): p = 1, so
    // ∇F = 0 + a and ∇²F = a·aᵀ − a·aᵀ, which is +0 in every entry as long
    // as no product a_r·a_c overflows (x + (−x) = +0 for finite x).
    const double u = terms_[0].log_eval_unchecked(yv);
    if (single_term_exact(u)) {
      const double* a = terms_[0].exponents().data();
      double a_max = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        g[i] += a[i];
        a_max = std::fmax(a_max, std::fabs(a[i]));
      }
      out.value = u + 0.0;
      if (!need_hess) return;
      if (a_max * a_max < std::numeric_limits<double>::infinity()) {
        out.hess.assign(n, n);
        out.has_hess = true;
        return;
      }
      out.grad.assign(n);  // overflowing products: take the general path
    }
  }

  if (out.weights.size() < k) out.weights.resize(k);  // grow-only scratch
  double* w = out.weights.data();
  double u_max = 0.0;
  const double wsum = shifted_weights(yv, w, u_max);
  out.value = u_max + std::log(wsum);
  for (std::size_t t = 0; t < k; ++t) {
    w[t] /= wsum;  // softmax weight p_t
    const double* a = terms_[t].exponents().data();
    for (std::size_t i = 0; i < n; ++i) g[i] += w[t] * a[i];
  }

  if (need_hess) {
    // H = Σ p_k a_k a_kᵀ − g gᵀ  (positive semidefinite).
    out.hess.assign(n, n);
    for (std::size_t t = 0; t < k; ++t) out.hess.add_outer(terms_[t].exponents().data(), w[t]);
    out.hess.add_outer(g, -1.0);
    out.has_hess = true;
  }
}

double Posynomial::log_value(const linalg::Vector& y) const {
  HYDRA_REQUIRE(!terms_.empty(), "cannot evaluate the log of an empty posynomial");
  HYDRA_REQUIRE(y.size() == num_vars_, "posynomial log point size mismatch");
  if (terms_.size() == 1) {
    const double u = terms_[0].log_eval_unchecked(y.raw());
    if (single_term_exact(u)) return u + 0.0;
  }
  thread_local std::vector<double> scratch;
  if (scratch.size() < terms_.size()) scratch.resize(terms_.size());
  double u_max = 0.0;
  const double wsum = shifted_weights(y.raw(), scratch.data(), u_max);
  return u_max + std::log(wsum);
}

Posynomial Posynomial::times(const Monomial& m) const {
  Posynomial out(num_vars_);
  for (const auto& t : terms_) out += t * m;
  return out;
}

}  // namespace hydra::gp
