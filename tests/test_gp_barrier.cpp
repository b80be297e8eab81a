// Direct tests of the barrier interior-point core (below the GP wrapper):
// known convex programs, strict-feasibility enforcement, unboundedness, and
// the value-only / full evaluation contract, including the reuse of the
// accepted line-search probe.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "gp/barrier.h"

namespace gp = hydra::gp;
namespace la = hydra::linalg;

namespace {

/// f(y) = Σ (y_i − c_i)² — smooth, strongly convex, minimum at c.
gp::SmoothFn quadratic(std::vector<double> center) {
  return [center](const la::Vector& y, gp::EvalLevel level, gp::FnEval& out) {
    const std::size_t n = y.size();
    out.value = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = y[i] - center[i];
      out.value += d * d;
    }
    if (level == gp::EvalLevel::kFull) {
      out.grad = la::Vector(n);
      out.hess = la::Matrix(n, n);
      for (std::size_t i = 0; i < n; ++i) {
        out.grad[i] = 2.0 * (y[i] - center[i]);
        out.hess(i, i) = 2.0;
      }
    }
  };
}

/// Linear constraint a·y + b < 0.
gp::SmoothFn halfspace(std::vector<double> a, double b) {
  return [a, b](const la::Vector& y, gp::EvalLevel level, gp::FnEval& out) {
    out.value = b;
    for (std::size_t i = 0; i < y.size(); ++i) out.value += a[i] * y[i];
    if (level == gp::EvalLevel::kFull) {
      out.grad = la::Vector(y.size());
      for (std::size_t i = 0; i < y.size(); ++i) out.grad[i] = a[i];
      out.hess = la::Matrix(y.size(), y.size());
    }
  };
}

/// What a wrapped callback saw: its kFull calls, and whether each came at
/// the point and into the bundle of its latest kValue call.
struct CallLog {
  int value_calls = 0;
  int full_calls = 0;
  bool hint_held = true;
  std::vector<std::vector<double>> full_points;
  std::vector<double> last_value_point;
  const gp::FnEval* last_value_bundle = nullptr;
};

gp::SmoothFn logged(gp::SmoothFn fn, CallLog& log) {
  return [fn, &log](const la::Vector& y, gp::EvalLevel level, gp::FnEval& out) {
    const std::vector<double> point(y.raw(), y.raw() + y.size());
    if (level == gp::EvalLevel::kValue) {
      ++log.value_calls;
      log.last_value_point = point;
      log.last_value_bundle = &out;
    } else {
      ++log.full_calls;
      log.hint_held = log.hint_held && point == log.last_value_point &&
                      &out == log.last_value_bundle;
      log.full_points.push_back(point);
    }
    fn(y, level, out);
  };
}

/// Log-space image of a posynomial.  With `reuse` a kFull call finishes
/// the kValue probe (as the GP solver's callbacks do); without it the
/// callback ignores that hint and evaluates from scratch.
gp::SmoothFn log_fn(const gp::Posynomial& p, bool reuse) {
  return [&p, reuse](const la::Vector& y, gp::EvalLevel level, gp::FnEval& out) {
    if (level == gp::EvalLevel::kValue) {
      if (reuse) p.log_probe(y, out);
      else out.value = p.log_value(y);
    } else {
      if (reuse) p.log_finish(y, /*need_hess=*/true, out);
      else p.log_eval_into(y, /*need_hess=*/true, out);
    }
  };
}

bool same_bits(const la::Vector& a, const la::Vector& b) {
  return a.size() == b.size() && std::memcmp(a.raw(), b.raw(), a.size() * sizeof(double)) == 0;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace

TEST(Barrier, UnconstrainedQuadraticFindsCenter) {
  la::Vector y0(2);
  const auto r = gp::barrier_minimize(quadratic({3.0, -1.5}), {}, y0);
  EXPECT_EQ(r.status, gp::BarrierStatus::kOptimal);
  EXPECT_NEAR(r.y[0], 3.0, 1e-6);
  EXPECT_NEAR(r.y[1], -1.5, 1e-6);
  EXPECT_NEAR(r.objective, 0.0, 1e-9);
}

TEST(Barrier, ActiveHalfspaceConstraint) {
  // min (y0 − 3)² s.t. y0 <= 1: optimum at the boundary y0 = 1.
  la::Vector y0(1);
  y0[0] = 0.0;
  const auto r =
      gp::barrier_minimize(quadratic({3.0}), {halfspace({1.0}, -1.0)}, y0);
  EXPECT_EQ(r.status, gp::BarrierStatus::kOptimal);
  EXPECT_NEAR(r.y[0], 1.0, 1e-4);
  EXPECT_NEAR(r.objective, 4.0, 1e-3);
}

TEST(Barrier, InactiveConstraintDoesNotBias) {
  // Same program but the constraint sits far from the optimum.
  la::Vector y0(1);
  const auto r =
      gp::barrier_minimize(quadratic({3.0}), {halfspace({1.0}, -100.0)}, y0);
  EXPECT_NEAR(r.y[0], 3.0, 1e-5);
}

TEST(Barrier, MultipleConstraintsPolytope) {
  // min ||y − (5,5)||² over the box −1 <= y_i <= 2: optimum at (2,2).
  la::Vector y0(2);
  const std::vector<gp::SmoothFn> cons{
      halfspace({1.0, 0.0}, -2.0), halfspace({-1.0, 0.0}, -1.0),
      halfspace({0.0, 1.0}, -2.0), halfspace({0.0, -1.0}, -1.0)};
  const auto r = gp::barrier_minimize(quadratic({5.0, 5.0}), cons, y0);
  EXPECT_NEAR(r.y[0], 2.0, 1e-4);
  EXPECT_NEAR(r.y[1], 2.0, 1e-4);
}

TEST(Barrier, InfeasibleStartRejected) {
  la::Vector y0(1);
  y0[0] = 5.0;  // violates y <= 1
  EXPECT_THROW(gp::barrier_minimize(quadratic({0.0}), {halfspace({1.0}, -1.0)}, y0),
               std::invalid_argument);
  // Boundary (not strictly feasible) also rejected.
  y0[0] = 1.0;
  EXPECT_THROW(gp::barrier_minimize(quadratic({0.0}), {halfspace({1.0}, -1.0)}, y0),
               std::invalid_argument);
}

TEST(Barrier, EmptyStartRejected) {
  EXPECT_THROW(gp::barrier_minimize(quadratic({}), {}, la::Vector()),
               std::invalid_argument);
}

TEST(Barrier, UnboundedLinearObjectiveDetected) {
  // min y0 with no constraints diverges to −inf.
  la::Vector y0(1);
  const auto r = gp::barrier_minimize(halfspace({1.0}, 0.0), {}, y0);
  EXPECT_EQ(r.status, gp::BarrierStatus::kUnbounded);
}

TEST(Barrier, ValueLevelNeverAsksForDerivatives) {
  // The contract: EvalLevel::kValue calls may leave grad/hess empty.  A
  // callback that *counts* full evaluations shows line searches stay cheap.
  int full_evals = 0;
  int value_evals = 0;
  const auto counting = [&](const la::Vector& y, gp::EvalLevel level, gp::FnEval& out) {
    const double d = y[0] - 2.0;
    out.value = d * d;
    if (level == gp::EvalLevel::kFull) {
      ++full_evals;
      out.grad = la::Vector(1);
      out.grad[0] = 2.0 * d;
      out.hess = la::Matrix(1, 1);
      out.hess(0, 0) = 2.0;
    } else {
      ++value_evals;
    }
  };
  la::Vector y0(1);
  const auto r = gp::barrier_minimize(counting, {}, y0);
  EXPECT_EQ(r.status, gp::BarrierStatus::kOptimal);
  EXPECT_NEAR(r.y[0], 2.0, 1e-6);
  EXPECT_GT(value_evals, 0);
  EXPECT_GT(full_evals, 0);
}

TEST(Barrier, TighterToleranceGivesBetterCentering) {
  la::Vector y0(1);
  y0[0] = -3.0;
  gp::BarrierOptions loose;
  loose.duality_gap_tol = 1e-3;
  gp::BarrierOptions tight;
  tight.duality_gap_tol = 1e-10;
  // min (y+5)² s.t. y >= 0 (−y < 0): optimum y = 0... flip: use y >= 0 via
  // halfspace(-1, 0): −y + 0 < 0 ⇔ y > 0. Feasible start −3 violates; use +1.
  y0[0] = 1.0;
  const auto r_loose =
      gp::barrier_minimize(quadratic({-5.0}), {halfspace({-1.0}, 0.0)}, y0, loose);
  const auto r_tight =
      gp::barrier_minimize(quadratic({-5.0}), {halfspace({-1.0}, 0.0)}, y0, tight);
  // Both approach y = 0 from inside; the tighter run must not be further out.
  EXPECT_GT(r_loose.y[0], 0.0);
  EXPECT_GT(r_tight.y[0], 0.0);
  EXPECT_LE(r_tight.y[0], r_loose.y[0] + 1e-9);
}

TEST(Barrier, EvaluatesDerivativesOncePerAcceptedIterate) {
  // min (y − 3)² s.t. y < 1 from y = 0: one constraint, so t rises from 8
  // past 1e8 in six stages.  Derivatives are evaluated at the start and at
  // each accepted iterate, always at the point of the latest value probe,
  // and never again when t rises (y stays put then).
  CallLog obj_log;
  CallLog con_log;
  la::Vector y0(1);
  const auto r = gp::barrier_minimize(logged(quadratic({3.0}), obj_log),
                                      {logged(halfspace({1.0}, -1.0), con_log)}, y0);
  ASSERT_EQ(r.status, gp::BarrierStatus::kOptimal);
  EXPECT_NEAR(r.y[0], 1.0, 1e-4);
  for (const CallLog* log : {&obj_log, &con_log}) {
    EXPECT_TRUE(log->hint_held);
    // Every step of this program moves, so accepted iterates = newton_steps.
    EXPECT_EQ(log->full_calls, r.newton_steps + 1);
    for (std::size_t k = 1; k < log->full_points.size(); ++k) {
      EXPECT_NE(log->full_points[k], log->full_points[k - 1]) << "re-evaluated at a rise of t";
    }
    EXPECT_GT(log->value_calls, log->full_calls);
  }
}

TEST(Barrier, CallbackIgnoringTheReuseHintGetsTheSameBits) {
  // A small GP in log space: min x/y + 2·y s.t. (x + y)/4 <= 1 plus the
  // box 0.5 <= x, y <= 3 (single-term, zero-Hessian constraints).
  gp::Posynomial obj(2);
  obj += gp::Monomial(1.0, 2).with(0, 1.0).with(1, -1.0);
  obj += gp::Monomial(2.0, 2).with(1, 1.0);
  gp::Posynomial sum(2);
  sum += gp::Monomial(0.25, 2).with(0, 1.0);
  sum += gp::Monomial(0.25, 2).with(1, 1.0);
  std::vector<gp::Posynomial> cons{sum};
  for (const std::size_t v : {0, 1}) {
    cons.emplace_back(gp::Monomial(0.5, 2).with(v, -1.0));
    cons.emplace_back(gp::Monomial(1.0 / 3.0, 2).with(v, 1.0));
  }
  const auto solve = [&](bool reuse) {
    std::vector<gp::SmoothFn> fns;
    for (const auto& c : cons) fns.push_back(log_fn(c, reuse));
    la::Vector y0(2);
    y0[0] = std::log(2.0);
    y0[1] = std::log(1.5);
    return gp::barrier_minimize(log_fn(obj, reuse), fns, y0);
  };
  const gp::BarrierResult reused = solve(true);
  const gp::BarrierResult fresh = solve(false);
  EXPECT_EQ(reused.status, gp::BarrierStatus::kOptimal);
  EXPECT_EQ(reused.status, fresh.status);
  EXPECT_EQ(reused.newton_steps, fresh.newton_steps);
  EXPECT_TRUE(same_bits(reused.y, fresh.y));
  EXPECT_TRUE(same_bits(reused.objective, fresh.objective));
}

TEST(Barrier, ZeroHessianFlagMatchesAWrittenZeroHessian) {
  // Linear constraints on y0 that either write their +0 Hessian or report
  // it with hess_zero.  The objective (y0 − 3)² + (y1 − (−0))² has −0.0
  // off-diagonal Hessian entries, which only the constraints' +0 Hessians
  // turn into +0, and y1 starts at −0.0 with a +0 gradient.  The sign of
  // that off-diagonal zero then decides the sign of the y1 steps, which the
  // probed points record: skipping the +0 Hessians must not change a bit.
  std::vector<double> probed;
  const auto objective = [&probed](const la::Vector& y, gp::EvalLevel level, gp::FnEval& out) {
    if (level == gp::EvalLevel::kValue) probed.insert(probed.end(), y.raw(), y.raw() + 2);
    const double d0 = y[0] - 3.0;
    const double d1 = y[1] - (-0.0);
    out.value = d0 * d0 + d1 * d1;
    if (level == gp::EvalLevel::kFull) {
      out.grad = la::Vector(2);
      out.grad[0] = 2.0 * d0;
      out.grad[1] = 2.0 * d1;
      out.hess = la::Matrix(2, 2, -0.0);
      out.hess(0, 0) = 2.0;
      out.hess(1, 1) = 2.0;
    }
  };
  const auto flagged = [](std::vector<double> a, double b) {
    const gp::SmoothFn written = halfspace(a, b);
    return [written](const la::Vector& y, gp::EvalLevel level, gp::FnEval& out) {
      written(y, level, out);
      if (level == gp::EvalLevel::kFull) {
        out.hess = la::Matrix();
        out.hess_zero = true;
      }
    };
  };
  la::Vector y0(2);
  y0[1] = -0.0;
  const gp::BarrierResult written = gp::barrier_minimize(
      objective, {halfspace({1.0, 0.0}, -1.0), halfspace({-1.0, 0.0}, -5.0)}, y0);
  const std::vector<double> written_probes = std::move(probed);
  probed.clear();
  const gp::BarrierResult skipped = gp::barrier_minimize(
      objective, {flagged({1.0, 0.0}, -1.0), flagged({-1.0, 0.0}, -5.0)}, y0);
  EXPECT_EQ(written.status, gp::BarrierStatus::kOptimal);
  EXPECT_NEAR(written.y[0], 1.0, 1e-4);
  ASSERT_GT(written_probes.size(), 4u);
  EXPECT_TRUE(std::signbit(written_probes[3])) << "the first step keeps y1 at -0.0";
  ASSERT_EQ(probed.size(), written_probes.size());
  EXPECT_EQ(std::memcmp(probed.data(), written_probes.data(), probed.size() * sizeof(double)), 0);
  EXPECT_EQ(written.newton_steps, skipped.newton_steps);
  EXPECT_TRUE(same_bits(written.y, skipped.y));
  EXPECT_TRUE(same_bits(written.objective, skipped.objective));
}
