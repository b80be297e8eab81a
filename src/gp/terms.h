// Monomials and posynomials — the building blocks of geometric programs.
//
// A *monomial* over positive variables x_1..x_n is  c · Π x_i^{a_i}  with
// coefficient c > 0 and arbitrary real exponents a_i.  A *posynomial* is a sum
// of monomials.  Under the substitution x_i = exp(y_i) a monomial becomes
// exp(aᵀy + log c) and a posynomial's logarithm becomes a log-sum-exp —
// a smooth convex function.  This header provides both representations plus
// the value/gradient/Hessian evaluations the barrier solver needs.
//
// This mirrors what GPkit [20] does symbolically in Python; exponents are
// stored densely because HYDRA's programs have at most a few dozen variables.
//
// The log-space evaluations are the solvers' inner loop, so they run as an
// allocation-free kernel: each monomial caches log(c), `log_eval_into` reuses
// the caller's buffers and evaluates every term once, a value probe
// (`log_probe`) keeps what `log_finish` needs to add the derivatives later,
// and single-term posynomials skip exp/log and the Hessian.  None of this changes a result
// bit — see docs/architecture.md, "Solver-level reuse", for the exactness
// rule the kernel follows.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "util/contracts.h"

namespace hydra::gp {

/// Index of an optimization variable within a GpProblem.
using VarId = std::size_t;

class Monomial {
 public:
  /// Creates the constant monomial `coeff` over `num_vars` variables.
  /// Requires coeff > 0 (GP coefficients are strictly positive).
  Monomial(double coeff, std::size_t num_vars);

  /// Adds `exponent` to the power of variable `v`; returns *this for chaining:
  ///   Monomial(2.0, n).with(x, 1.0).with(y, -1.0)   represents 2·x/y.
  Monomial& with(VarId v, double exponent);

  double coeff() const { return coeff_; }
  /// std::log(coeff()), cached wherever the coefficient is set.
  double log_coeff() const { return log_coeff_; }
  std::size_t num_vars() const { return exponents_.size(); }
  double exponent(VarId v) const;
  const std::vector<double>& exponents() const { return exponents_; }

  /// Value in the original (positive-orthant) domain.
  double eval(const std::vector<double>& x) const;

  /// log of the monomial at log-point y:  aᵀy + log c.
  double log_eval(const linalg::Vector& y) const;

  /// log_eval without the size check: `y` must hold num_vars() entries.
  /// Same expression and order (log c first, then a_i·y_i for i = 0..n-1).
  double log_eval_unchecked(const double* y) const {
    double acc = log_coeff_;
    const double* a = exponents_.data();
    for (std::size_t i = 0; i < exponents_.size(); ++i) acc += a[i] * y[i];
    return acc;
  }

  /// Product of two monomials (exponents add, coefficients multiply).
  friend Monomial operator*(const Monomial& a, const Monomial& b);

  /// Reciprocal monomial (1/m): exponents negate, coefficient inverts.
  Monomial reciprocal() const;

  /// Monomial scaled by a positive constant.
  Monomial scaled(double factor) const;

 private:
  double coeff_;
  double log_coeff_;
  std::vector<double> exponents_;
};

/// Evaluation bundle for the log-space image of a posynomial.  A caller that
/// evaluates repeatedly keeps one of these and passes it to
/// Posynomial::log_eval_into, which reshapes the buffers in place instead of
/// allocating.  The barrier solver uses the same bundle as its FnEval.
struct LogEval {
  double value = 0.0;      ///< F(y) = log Σ exp(a_kᵀ y + b_k)
  linalg::Vector grad;     ///< ∇F(y)
  linalg::Matrix hess;     ///< ∇²F(y); meaningful only when has_hess
  bool has_hess = false;
  /// ∇²F(y) is +0 in every entry.  Posynomial::log_finish sets this instead
  /// of writing `hess`; log_eval_into writes the zero matrix as well.
  bool hess_zero = false;
  /// What Posynomial::log_probe keeps for log_finish: the unnormalised
  /// weights w_t = exp(u_t − u_max) (softmax weights after log_finish), their
  /// sum in term order, and whether the single-term shortcut took the value
  /// (then no weights were computed).
  std::vector<double> weights;
  double wsum = 0.0;
  bool single_term = false;
};

class Posynomial {
 public:
  explicit Posynomial(std::size_t num_vars) : num_vars_(num_vars) {}

  /// Builds a posynomial holding a single monomial.
  explicit Posynomial(Monomial m);

  Posynomial& operator+=(const Monomial& m);
  Posynomial& operator+=(const Posynomial& p);

  std::size_t num_vars() const { return num_vars_; }
  std::size_t num_terms() const { return terms_.size(); }
  const std::vector<Monomial>& terms() const { return terms_; }
  bool empty() const { return terms_.empty(); }

  /// Value in the original domain.
  double eval(const std::vector<double>& x) const;

  /// Log-space value, gradient and (optionally) Hessian at y.
  /// Uses the max-shifted softmax formulation for numerical stability.
  /// A thin wrapper over log_eval_into with a fresh bundle.
  LogEval log_eval(const linalg::Vector& y, bool need_hess) const;

  /// log_eval into caller-owned buffers: `out.grad` (and `out.hess` when
  /// need_hess) are reshaped in place, every term is evaluated once, and
  /// `out.has_hess` reports whether the Hessian was written.  Bit-identical
  /// to the reference formulation for every input.  It is log_probe
  /// followed by log_finish.
  void log_eval_into(const linalg::Vector& y, bool need_hess, LogEval& out) const;

  /// Value-only first half of log_eval_into: sets and returns `out.value`
  /// and keeps in `out` what log_finish needs (weights, their sum, the
  /// single-term flag).  Leaves `out.grad`/`out.hess` alone.
  double log_probe(const linalg::Vector& y, LogEval& out) const;

  /// Second half of log_eval_into: `out` must hold log_probe at this same y.
  /// Finishes the gradient and, when need_hess, the Hessian from what the
  /// probe kept, without re-evaluating any term.  A Hessian that is +0 in
  /// every entry (single-term posynomials) is reported by `out.hess_zero`
  /// and not written; `out.has_hess` is set only when `hess` was written.
  void log_finish(const linalg::Vector& y, bool need_hess, LogEval& out) const;

  /// log_probe into thread-local scratch: the value alone, for callers that
  /// will not ask for derivatives at the same point.
  double log_value(const linalg::Vector& y) const;

  /// Multiplies every term by a monomial (posynomial × monomial is closed).
  Posynomial times(const Monomial& m) const;

 private:
  /// Shared first half of the log-sum-exp: writes w_t = exp(u_t − u_max) for
  /// every term into `w`, sets `u_max`, returns Σ w_t (summed in term order).
  double shifted_weights(const double* y, double* w, double& u_max) const;

  std::size_t num_vars_;
  std::vector<Monomial> terms_;
};

}  // namespace hydra::gp
