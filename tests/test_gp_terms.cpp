// Unit + property tests for monomials/posynomials, including finite-difference
// verification of the log-space gradient and Hessian the solver relies on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "gp/terms.h"
#include "util/rng.h"

namespace gp = hydra::gp;
namespace la = hydra::linalg;

TEST(Monomial, EvaluatesPowerProduct) {
  // 2 · x^2 / y at (3, 4) = 2·9/4 = 4.5.
  const gp::Monomial m = gp::Monomial(2.0, 2).with(0, 2.0).with(1, -1.0);
  EXPECT_DOUBLE_EQ(m.eval({3.0, 4.0}), 4.5);
}

TEST(Monomial, WithAccumulatesExponents) {
  const gp::Monomial m = gp::Monomial(1.0, 1).with(0, 1.0).with(0, 1.5);
  EXPECT_DOUBLE_EQ(m.exponent(0), 2.5);
}

TEST(Monomial, RejectsNonPositiveCoefficient) {
  EXPECT_THROW(gp::Monomial(0.0, 1), std::invalid_argument);
  EXPECT_THROW(gp::Monomial(-1.0, 1), std::invalid_argument);
}

TEST(Monomial, ProductAndReciprocal) {
  const gp::Monomial a = gp::Monomial(2.0, 2).with(0, 1.0);
  const gp::Monomial b = gp::Monomial(3.0, 2).with(1, -2.0);
  const gp::Monomial prod = a * b;
  EXPECT_DOUBLE_EQ(prod.coeff(), 6.0);
  EXPECT_DOUBLE_EQ(prod.exponent(0), 1.0);
  EXPECT_DOUBLE_EQ(prod.exponent(1), -2.0);

  const gp::Monomial inv = prod.reciprocal();
  EXPECT_DOUBLE_EQ(inv.coeff(), 1.0 / 6.0);
  EXPECT_DOUBLE_EQ(inv.exponent(0), -1.0);
  EXPECT_DOUBLE_EQ(inv.exponent(1), 2.0);
  // m · 1/m == 1 pointwise.
  EXPECT_NEAR((prod * inv).eval({0.7, 1.9}), 1.0, 1e-12);
}

TEST(Monomial, LogEvalMatchesLogOfEval) {
  const gp::Monomial m = gp::Monomial(5.0, 3).with(0, 1.0).with(1, -0.5).with(2, 2.0);
  const std::vector<double> x{1.5, 2.5, 0.5};
  la::Vector y(3);
  for (std::size_t i = 0; i < 3; ++i) y[i] = std::log(x[i]);
  EXPECT_NEAR(m.log_eval(y), std::log(m.eval(x)), 1e-12);
}

TEST(Posynomial, EvalIsSumOfTerms) {
  gp::Posynomial p(2);
  p += gp::Monomial(1.0, 2).with(0, 1.0);   // x
  p += gp::Monomial(2.0, 2).with(1, 1.0);   // 2y
  EXPECT_DOUBLE_EQ(p.eval({3.0, 4.0}), 11.0);
}

TEST(Posynomial, TimesMonomialDistributes) {
  gp::Posynomial p(2);
  p += gp::Monomial(1.0, 2).with(0, 1.0);
  p += gp::Monomial(1.0, 2).with(1, 1.0);
  const gp::Posynomial q = p.times(gp::Monomial(2.0, 2).with(0, -1.0));  // (x+y)·2/x
  const std::vector<double> x{2.0, 6.0};
  EXPECT_NEAR(q.eval(x), 2.0 * (x[0] + x[1]) / x[0], 1e-12);
}

TEST(Posynomial, LogEvalValueIsLogSumExp) {
  gp::Posynomial p(1);
  p += gp::Monomial(1.0, 1).with(0, 1.0);   // x
  p += gp::Monomial(1.0, 1).with(0, -1.0);  // 1/x
  la::Vector y(1);
  y[0] = 0.3;
  const auto le = p.log_eval(y, false);
  const double x = std::exp(0.3);
  EXPECT_NEAR(le.value, std::log(x + 1.0 / x), 1e-12);
}

TEST(Posynomial, LogEvalStableForHugeExponents) {
  gp::Posynomial p(1);
  p += gp::Monomial(1.0, 1).with(0, 1.0);
  la::Vector y(1);
  y[0] = 800.0;  // exp(800) overflows double; max-shift must handle it
  const auto le = p.log_eval(y, true);
  EXPECT_NEAR(le.value, 800.0, 1e-9);
  EXPECT_TRUE(std::isfinite(le.grad[0]));
}

namespace {

/// Finite-difference gradient check of log_eval on random posynomials.
void check_derivatives(const gp::Posynomial& p, const la::Vector& y) {
  const double h = 1e-5;
  const auto le = p.log_eval(y, true);
  for (std::size_t i = 0; i < y.size(); ++i) {
    la::Vector yp = y, ym = y;
    yp[i] += h;
    ym[i] -= h;
    const auto lep = p.log_eval(yp, false);
    const auto lem = p.log_eval(ym, false);
    const double fd_grad = (lep.value - lem.value) / (2.0 * h);
    EXPECT_NEAR(le.grad[i], fd_grad, 1e-6) << "grad mismatch at coord " << i;
    // Hessian row i from central differences of the gradient.
    for (std::size_t j = 0; j < y.size(); ++j) {
      EXPECT_NEAR(le.hess(i, j), (lep.grad[j] - lem.grad[j]) / (2.0 * h), 1e-5)
          << "hess mismatch at (" << i << "," << j << ")";
    }
  }
}

}  // namespace

TEST(Posynomial, GradientAndHessianMatchFiniteDifferences) {
  hydra::util::Xoshiro256 rng(12345);
  for (int rep = 0; rep < 10; ++rep) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 3));
    gp::Posynomial p(n);
    const int terms = 1 + static_cast<int>(rng.uniform_int(0, 4));
    for (int t = 0; t < terms; ++t) {
      gp::Monomial m(rng.uniform(0.1, 5.0), n);
      for (std::size_t v = 0; v < n; ++v) m.with(v, rng.uniform(-2.0, 2.0));
      p += m;
    }
    la::Vector y(n);
    for (std::size_t v = 0; v < n; ++v) y[v] = rng.uniform(-1.0, 1.0);
    check_derivatives(p, y);
  }
}

TEST(Posynomial, HessianIsPositiveSemidefiniteOnRandomDirections) {
  // Convexity of log-sum-exp: dᵀHd >= 0 for all d.
  hydra::util::Xoshiro256 rng(777);
  gp::Posynomial p(3);
  for (int t = 0; t < 4; ++t) {
    gp::Monomial m(rng.uniform(0.5, 2.0), 3);
    for (std::size_t v = 0; v < 3; ++v) m.with(v, rng.uniform(-3.0, 3.0));
    p += m;
  }
  la::Vector y(3);
  const auto le = p.log_eval(y, true);
  for (int rep = 0; rep < 50; ++rep) {
    la::Vector d(3);
    for (std::size_t v = 0; v < 3; ++v) d[v] = rng.uniform(-1.0, 1.0);
    EXPECT_GE(dot(d, le.hess * d), -1e-10);
  }
}

TEST(Posynomial, EmptyLogEvalThrows) {
  gp::Posynomial p(2);
  EXPECT_THROW(p.log_eval(la::Vector(2), false), std::invalid_argument);
}

TEST(Posynomial, SizeMismatchThrows) {
  gp::Posynomial p(2);
  EXPECT_THROW(p += gp::Monomial(1.0, 3), std::invalid_argument);
}

TEST(Posynomial, LogPointSizeMismatchThrows) {
  gp::Posynomial p(2);
  p += gp::Monomial(1.0, 2).with(0, 1.0);
  gp::LogEval out;
  EXPECT_THROW(p.log_eval_into(la::Vector(3), true, out), std::invalid_argument);
  EXPECT_THROW(p.log_value(la::Vector(1)), std::invalid_argument);
  EXPECT_THROW(p.terms()[0].log_eval(la::Vector(3)), std::invalid_argument);
}

// --- Bit-exactness of the evaluation kernel ---------------------------------
//
// The kernel (cached log c, single-pass terms, the single-term shortcut,
// caller-owned buffers) must reproduce the straightforward formulation below
// bit for bit: the solvers' iterates, and with them every sweep row, depend
// on it.  The reference is kept verbatim as the specification.

namespace {

double reference_monomial_log_eval(const gp::Monomial& m, const la::Vector& y) {
  double acc = std::log(m.coeff());
  for (std::size_t i = 0; i < m.num_vars(); ++i) acc += m.exponent(i) * y[i];
  return acc;
}

gp::LogEval reference_log_eval(const gp::Posynomial& p, const la::Vector& y, bool need_hess) {
  const std::size_t n = p.num_vars();
  const std::size_t k = p.num_terms();
  const auto& terms = p.terms();
  std::vector<double> u(k);
  double u_max = -1e308;
  for (std::size_t t = 0; t < k; ++t) {
    u[t] = reference_monomial_log_eval(terms[t], y);
    u_max = std::fmax(u_max, u[t]);
  }
  double wsum = 0.0;
  std::vector<double> w(k);
  for (std::size_t t = 0; t < k; ++t) {
    w[t] = std::exp(u[t] - u_max);
    wsum += w[t];
  }
  gp::LogEval out;
  out.value = u_max + std::log(wsum);
  out.grad = la::Vector(n);
  for (std::size_t t = 0; t < k; ++t) {
    const double pt = w[t] / wsum;
    for (std::size_t i = 0; i < n; ++i) out.grad[i] += pt * terms[t].exponent(i);
  }
  if (need_hess) {
    out.hess = la::Matrix(n, n);
    la::Vector a(n);
    for (std::size_t t = 0; t < k; ++t) {
      const double pt = w[t] / wsum;
      for (std::size_t i = 0; i < n; ++i) a[i] = terms[t].exponent(i);
      out.hess.add_outer(a, pt);
    }
    out.hess.add_outer(out.grad, -1.0);
    out.has_hess = true;
  }
  return out;
}

double reference_log_value(const gp::Posynomial& p, const la::Vector& y) {
  double u_max = -1e308;
  for (const auto& t : p.terms()) u_max = std::fmax(u_max, reference_monomial_log_eval(t, y));
  double wsum = 0.0;
  for (const auto& t : p.terms()) wsum += std::exp(reference_monomial_log_eval(t, y) - u_max);
  return u_max + std::log(wsum);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Byte-identical arrays, except that a NaN matches any NaN: the sign of a
/// NaN produced by inf − inf depends on whether the compiler emitted x·(−1)
/// as a multiply or a sign flip, which differs between translation units.
/// Finite inputs never produce NaN, and there the check is a plain memcmp.
bool same_array(const double* a, const double* b, std::size_t count) {
  if (std::memcmp(a, b, count * sizeof(double)) == 0) return true;
  for (std::size_t i = 0; i < count; ++i) {
    if (!same_bits(a[i], b[i]) && !(std::isnan(a[i]) && std::isnan(b[i]))) return false;
  }
  return true;
}

/// Compares the kernel against the reference at y, both through the
/// returning wrapper and through a long-lived (dirty) caller buffer.
void expect_bit_exact(const gp::Posynomial& p, const la::Vector& y, gp::LogEval& reused,
                      const std::string& context) {
  SCOPED_TRACE(context);
  const std::size_t n = p.num_vars();
  const double value = p.log_value(y);
  const double ref_value = reference_log_value(p, y);
  EXPECT_TRUE(same_array(&value, &ref_value, 1)) << "log_value";
  for (const bool need_hess : {false, true}) {
    const gp::LogEval ref = reference_log_eval(p, y, need_hess);
    p.log_eval_into(y, need_hess, reused);
    const gp::LogEval fresh = p.log_eval(y, need_hess);
    for (const gp::LogEval* got : {static_cast<const gp::LogEval*>(&reused), &fresh}) {
      EXPECT_TRUE(same_array(&got->value, &ref.value, 1)) << "value, need_hess=" << need_hess;
      ASSERT_EQ(got->grad.size(), n);
      EXPECT_TRUE(same_array(got->grad.raw(), ref.grad.raw(), n))
          << "gradient, need_hess=" << need_hess;
      EXPECT_EQ(got->has_hess, need_hess);
      if (need_hess) {
        ASSERT_EQ(got->hess.rows(), n);
        ASSERT_EQ(got->hess.cols(), n);
        EXPECT_TRUE(same_array(got->hess.raw(), ref.hess.raw(), n * n)) << "Hessian";
      }
    }
  }
}

/// Seeded random posynomial: sparse exponents (so many are exactly 0.0),
/// optionally passed through reciprocal() (whose zero exponents are -0.0)
/// or scaled(), with a good share of single-term posynomials.
gp::Posynomial random_posynomial(hydra::util::Xoshiro256& rng, std::size_t n) {
  gp::Posynomial p(n);
  const std::size_t terms = rng.uniform(0.0, 1.0) < 0.4 ? 1 : rng.uniform_int(2, 6);
  for (std::size_t t = 0; t < terms; ++t) {
    gp::Monomial m(std::exp(rng.uniform(-8.0, 8.0)), n);
    for (std::size_t v = 0; v < n; ++v) {
      if (rng.uniform(0.0, 1.0) < 0.5) m.with(v, rng.uniform(-3.0, 3.0));
    }
    const double shape = rng.uniform(0.0, 1.0);
    if (shape < 0.3) m = m.reciprocal();
    else if (shape < 0.5) m = m.scaled(rng.uniform(0.01, 100.0));
    p += m;
  }
  return p;
}

}  // namespace

TEST(Monomial, CachedLogCoefficientMatchesLogOfCoefficient) {
  const gp::Monomial m = gp::Monomial(3.7, 2).with(0, 1.5).with(1, -2.0);
  for (const gp::Monomial& derived :
       {m, m.reciprocal(), m.scaled(0.3), m * m.reciprocal(), m * m}) {
    EXPECT_TRUE(same_bits(derived.log_coeff(), std::log(derived.coeff())));
  }
}

TEST(Posynomial, KernelIsBitExactAgainstReferenceOnRandomPosynomials) {
  hydra::util::Xoshiro256 rng(0xB17E);
  gp::LogEval reused;  // deliberately shared across sizes and shapes
  int single_term = 0;
  for (int rep = 0; rep < 400; ++rep) {
    const std::size_t n = rng.uniform_int(1, 8);
    const gp::Posynomial p = random_posynomial(rng, n);
    if (p.num_terms() == 1) ++single_term;
    la::Vector y(n);
    for (std::size_t v = 0; v < n; ++v) y[v] = rng.uniform(-4.0, 4.0);
    expect_bit_exact(p, y, reused, "random posynomial #" + std::to_string(rep));
    // Finite data: the comparison above was a plain memcmp.
    ASSERT_TRUE(std::isfinite(reused.value) && reused.grad.all_finite());
    for (std::size_t i = 0; i < n * n; ++i) ASSERT_TRUE(std::isfinite(reused.hess.raw()[i]));
  }
  EXPECT_GE(single_term, 100) << "the single-term shortcut must be exercised";
}

TEST(Posynomial, ReciprocalMonomialWithNegativeZeroExponentsIsBitExact) {
  // reciprocal() negates +0.0 exponents into -0.0: the general formula maps
  // them to a +0.0 gradient entry (0.0 + 1·(-0.0)) and the shortcut must too.
  const gp::Monomial m = gp::Monomial(2.5, 4).with(1, 0.75).with(3, -1.25);
  const gp::Posynomial p(m.reciprocal());
  ASSERT_TRUE(std::signbit(p.terms()[0].exponent(0)));
  gp::LogEval reused;
  for (const double y0 : {-1.0, 0.0, 2.5}) {
    la::Vector y(4, y0);
    expect_bit_exact(p, y, reused, "reciprocal at " + std::to_string(y0));
    const gp::LogEval le = p.log_eval(y, true);
    EXPECT_FALSE(std::signbit(le.grad[0]));
  }
  // log c = +0.0 plus -0.0 products: the value must come out +0.0.
  const gp::Posynomial unit(gp::Monomial(1.0, 1).with(0, -1.0));
  expect_bit_exact(unit, la::Vector(1, 0.0), reused, "unit monomial");
  EXPECT_FALSE(std::signbit(unit.log_value(la::Vector(1, 0.0))));
}

TEST(Posynomial, SingleTermShortcutFallsBackOutsideItsExactDomain) {
  gp::LogEval reused;
  const double inf = std::numeric_limits<double>::infinity();
  // u = +inf (the general formula gives NaN), u below the -1e308 shift floor,
  // u = -inf, and u = NaN: the kernel must reproduce the reference bits.
  const gp::Posynomial steep(gp::Monomial(1.0, 1).with(0, 4.0));
  for (const double y0 : {1e308, -1e308, -inf, inf, std::nan("")}) {
    expect_bit_exact(steep, la::Vector(1, y0), reused, "edge y=" + std::to_string(y0));
  }
  // Exponents whose products a_r·a_c overflow: the reference Hessian is
  // inf − inf = NaN, so the zero-Hessian shortcut must not apply.
  const gp::Posynomial huge(gp::Monomial(2.0, 2).with(0, 1e200).with(1, -3.0));
  expect_bit_exact(huge, la::Vector(2, 0.0), reused, "overflowing exponent products");
}
