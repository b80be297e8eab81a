// Tests for the GP interior-point solver against problems with known
// analytic optima, plus infeasibility/unboundedness detection and KKT-style
// optimality probes.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "gp/problem.h"
#include "gp/solver.h"
#include "util/rng.h"

namespace gp = hydra::gp;

namespace {

gp::SolveResult solve(const gp::GpProblem& p,
                      std::optional<std::vector<double>> guess = std::nullopt) {
  return gp::GpSolver().solve(p, guess);
}

}  // namespace

TEST(GpSolver, MinimizeVariableWithLowerBound) {
  // min x s.t. x >= 3  →  x* = 3.
  gp::GpProblem p;
  const auto x = p.add_variable();
  p.set_objective(gp::Posynomial(p.monomial(1.0).with(x, 1.0)));
  p.add_bounds(x, 3.0, 100.0);
  const auto r = solve(p);
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_NEAR(r.x[0], 3.0, 1e-5);
  EXPECT_NEAR(r.objective, 3.0, 1e-5);
}

TEST(GpSolver, ClassicXPlusInverseX) {
  // min x + 1/x over x > 0  →  x* = 1, objective 2.
  gp::GpProblem p;
  const auto x = p.add_variable();
  gp::Posynomial obj = p.posynomial();
  obj += p.monomial(1.0).with(x, 1.0);
  obj += p.monomial(1.0).with(x, -1.0);
  p.set_objective(obj);
  const auto r = solve(p, std::vector<double>{5.0});
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_NEAR(r.x[0], 1.0, 1e-5);
  EXPECT_NEAR(r.objective, 2.0, 1e-8);
}

TEST(GpSolver, WeightedGeometricTradeoff) {
  // min a/x + b·x  →  x* = sqrt(a/b), f* = 2·sqrt(ab).
  const double a = 8.0, b = 2.0;
  gp::GpProblem p;
  const auto x = p.add_variable();
  gp::Posynomial obj = p.posynomial();
  obj += p.monomial(a).with(x, -1.0);
  obj += p.monomial(b).with(x, 1.0);
  p.set_objective(obj);
  const auto r = solve(p, std::vector<double>{1.0});
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_NEAR(r.x[0], 2.0, 1e-5);
  EXPECT_NEAR(r.objective, 8.0, 1e-7);
}

TEST(GpSolver, TwoVariableVolumeProblem) {
  // Classic box design: min x·y subject to x·y⁻¹ = aspect bounded, area floor:
  //   min x·y  s.t.  4/(x·y) <= 1 (x·y >= 4),  x/y <= 2,  y/x <= 2.
  // Optimum: x·y = 4 (any point on the hyperbola within aspect bounds).
  gp::GpProblem p;
  const auto x = p.add_variable();
  const auto y = p.add_variable();
  p.set_objective(gp::Posynomial(p.monomial(1.0).with(x, 1.0).with(y, 1.0)));
  p.add_constraint_leq1(gp::Posynomial(p.monomial(4.0).with(x, -1.0).with(y, -1.0)));
  p.add_constraint_leq1(gp::Posynomial(p.monomial(0.5).with(x, 1.0).with(y, -1.0)));
  p.add_constraint_leq1(gp::Posynomial(p.monomial(0.5).with(y, 1.0).with(x, -1.0)));
  const auto r = solve(p, std::vector<double>{3.0, 3.0});
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_NEAR(r.x[0] * r.x[1], 4.0, 1e-4);
  EXPECT_LE(r.x[0] / r.x[1], 2.0 + 1e-6);
  EXPECT_LE(r.x[1] / r.x[0], 2.0 + 1e-6);
}

TEST(GpSolver, PosynomialConstraintActiveAtOptimum) {
  // min 1/(x·y) s.t. x + y <= 1: symmetric, x* = y* = 1/2, f* = 4.
  gp::GpProblem p;
  const auto x = p.add_variable();
  const auto y = p.add_variable();
  p.set_objective(gp::Posynomial(p.monomial(1.0).with(x, -1.0).with(y, -1.0)));
  gp::Posynomial c = p.posynomial();
  c += p.monomial(1.0).with(x, 1.0);
  c += p.monomial(1.0).with(y, 1.0);
  p.add_constraint_leq1(c);
  const auto r = solve(p, std::vector<double>{0.25, 0.25});
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_NEAR(r.x[0], 0.5, 1e-4);
  EXPECT_NEAR(r.x[1], 0.5, 1e-4);
  EXPECT_NEAR(r.objective, 4.0, 1e-3);
}

TEST(GpSolver, InfeasibleBoxDetected) {
  // x >= 5 and x <= 2 cannot hold.
  gp::GpProblem p;
  const auto x = p.add_variable();
  p.set_objective(gp::Posynomial(p.monomial(1.0).with(x, 1.0)));
  p.add_constraint_leq1(gp::Posynomial(p.monomial(5.0).with(x, -1.0)));  // x >= 5
  p.add_constraint_leq1(gp::Posynomial(p.monomial(0.5).with(x, 1.0)));   // x <= 2
  const auto r = solve(p);
  EXPECT_EQ(r.status, gp::SolveStatus::kInfeasible);
}

TEST(GpSolver, InfeasibleCoupledConstraintsDetected) {
  // x·y >= 10 and x <= 1, y <= 1.
  gp::GpProblem p;
  const auto x = p.add_variable();
  const auto y = p.add_variable();
  p.set_objective(gp::Posynomial(p.monomial(1.0).with(x, 1.0)));
  p.add_constraint_leq1(gp::Posynomial(p.monomial(10.0).with(x, -1.0).with(y, -1.0)));
  p.add_constraint_leq1(gp::Posynomial(p.monomial(1.0).with(x, 1.0)));
  p.add_constraint_leq1(gp::Posynomial(p.monomial(1.0).with(y, 1.0)));
  const auto r = solve(p);
  EXPECT_EQ(r.status, gp::SolveStatus::kInfeasible);
}

TEST(GpSolver, UnboundedObjectiveDetected) {
  // min 1/x with no constraints: inf is 0, attained at x → ∞ (log-space
  // unbounded below).
  gp::GpProblem p;
  const auto x = p.add_variable();
  p.set_objective(gp::Posynomial(p.monomial(1.0).with(x, -1.0)));
  const auto r = solve(p);
  // Either flagged unbounded or driven to a tiny objective — both acceptable;
  // never "optimal at a sizable value".
  if (r.status == gp::SolveStatus::kOptimal) {
    EXPECT_LT(r.objective, 1e-6);
  } else {
    EXPECT_EQ(r.status, gp::SolveStatus::kUnbounded);
  }
}

TEST(GpSolver, PhaseOneFindsInteriorFromInfeasibleGuess) {
  // Feasible region: 10 <= x <= 12; guess starts far outside.
  gp::GpProblem p;
  const auto x = p.add_variable();
  p.set_objective(gp::Posynomial(p.monomial(1.0).with(x, 1.0)));
  p.add_bounds(x, 10.0, 12.0);
  const auto r = solve(p, std::vector<double>{0.001});
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_NEAR(r.x[0], 10.0, 1e-4);
}

TEST(GpSolver, SolutionIsFeasibleAndBetterThanRandomFeasiblePoints) {
  // Randomized sanity: optimum must beat random feasible points.
  hydra::util::Xoshiro256 rng(4242);
  for (int rep = 0; rep < 8; ++rep) {
    gp::GpProblem p;
    const auto x = p.add_variable();
    const auto y = p.add_variable();
    const double cx = rng.uniform(0.5, 3.0);
    const double cy = rng.uniform(0.5, 3.0);
    gp::Posynomial obj = p.posynomial();
    obj += p.monomial(cx).with(x, 1.0).with(y, -1.0);
    obj += p.monomial(cy).with(y, 1.0);
    obj += p.monomial(1.0).with(x, -1.0);
    p.set_objective(obj);
    p.add_bounds(x, 0.1, 10.0);
    p.add_bounds(y, 0.1, 10.0);

    const auto r = solve(p, std::vector<double>{1.0, 1.0});
    ASSERT_TRUE(r.ok()) << r.message;
    EXPECT_TRUE(p.is_feasible(r.x, 1e-6));
    for (int probe = 0; probe < 50; ++probe) {
      const std::vector<double> pt{rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0)};
      EXPECT_LE(r.objective, p.objective().eval(pt) + 1e-6);
    }
  }
}

TEST(GpSolver, MatchesAnalyticSolutionOnConstrainedFamily) {
  // min x s.t. a/x + u <= 1 with u < 1  →  x* = a/(1−u).  (This is exactly the
  // paper's Eq. (6) shape — the subproblem HYDRA solves per core.)
  hydra::util::Xoshiro256 rng(31337);
  for (int rep = 0; rep < 20; ++rep) {
    const double a = rng.uniform(0.5, 50.0);
    const double u = rng.uniform(0.0, 0.9);
    gp::GpProblem p;
    const auto x = p.add_variable();
    p.set_objective(gp::Posynomial(p.monomial(1.0).with(x, 1.0)));
    gp::Posynomial c = p.posynomial();
    c += p.monomial(a).with(x, -1.0);
    if (u > 0.0) c += p.monomial(u);
    p.add_constraint_leq1(c);
    const double expected = a / (1.0 - u);
    const auto r = solve(p, std::vector<double>{expected * 10.0});
    ASSERT_TRUE(r.ok()) << r.message;
    EXPECT_NEAR(r.x[0], expected, expected * 1e-4);
  }
}

TEST(GpSolver, BoydBoxDesignProblem) {
  // Boyd et al. tutorial §2.3 shape: maximize box volume h·w·d subject to a
  // wall-area limit 2(hw + hd) <= Awall and floor-area limit wd <= Aflr with
  // aspect bounds.  Stated as a GP: minimize (hwd)^-1.
  const double a_wall = 200.0, a_flr = 50.0;
  gp::GpProblem p;
  const auto h = p.add_variable();
  const auto w = p.add_variable();
  const auto d = p.add_variable();
  p.set_objective(
      gp::Posynomial(p.monomial(1.0).with(h, -1.0).with(w, -1.0).with(d, -1.0)));
  gp::Posynomial wall = p.posynomial();
  wall += p.monomial(2.0 / a_wall).with(h, 1.0).with(w, 1.0);
  wall += p.monomial(2.0 / a_wall).with(h, 1.0).with(d, 1.0);
  p.add_constraint_leq1(wall);
  p.add_constraint_leq1(gp::Posynomial(p.monomial(1.0 / a_flr).with(w, 1.0).with(d, 1.0)));
  // Generous aspect-ratio box bounds keep the problem bounded.
  p.add_bounds(h, 0.1, 100.0);
  p.add_bounds(w, 0.1, 100.0);
  p.add_bounds(d, 0.1, 100.0);

  const auto r = gp::GpSolver().solve(p, std::vector<double>{1.0, 1.0, 1.0});
  ASSERT_TRUE(r.ok()) << r.message;
  // Analytic optimum (tutorial): V* = (Awall/4)·sqrt(Aflr) when the wall and
  // floor constraints are both active with w = d... wait — check numerically:
  // both constraints active, symmetric in w,d only through the floor. KKT
  // gives w·d = Aflr and 2h(w + d) = Awall, volume = h·w·d maximized when
  // w = d = sqrt(Aflr): h = Awall/(4·sqrt(Aflr)), V = Awall·sqrt(Aflr)/4.
  const double wd = std::sqrt(a_flr);
  const double h_star = a_wall / (4.0 * wd);
  const double v_star = h_star * a_flr;
  EXPECT_NEAR(r.x[1], wd, wd * 1e-3);
  EXPECT_NEAR(r.x[2], wd, wd * 1e-3);
  EXPECT_NEAR(r.x[0], h_star, h_star * 1e-3);
  EXPECT_NEAR(r.x[0] * r.x[1] * r.x[2], v_star, v_star * 1e-3);
}

TEST(GpSolver, ActiveConstraintsAreTightAtOptimum) {
  // For the box problem the wall and floor constraints must both be active —
  // a complementary-slackness style optimality probe.
  const double a_wall = 200.0, a_flr = 50.0;
  gp::GpProblem p;
  const auto h = p.add_variable();
  const auto w = p.add_variable();
  const auto d = p.add_variable();
  p.set_objective(
      gp::Posynomial(p.monomial(1.0).with(h, -1.0).with(w, -1.0).with(d, -1.0)));
  gp::Posynomial wall = p.posynomial();
  wall += p.monomial(2.0 / a_wall).with(h, 1.0).with(w, 1.0);
  wall += p.monomial(2.0 / a_wall).with(h, 1.0).with(d, 1.0);
  p.add_constraint_leq1(wall);
  p.add_constraint_leq1(gp::Posynomial(p.monomial(1.0 / a_flr).with(w, 1.0).with(d, 1.0)));
  const auto r = gp::GpSolver().solve(p, std::vector<double>{1.0, 1.0, 1.0});
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_NEAR(p.constraints()[0].eval(r.x), 1.0, 1e-4);
  EXPECT_NEAR(p.constraints()[1].eval(r.x), 1.0, 1e-4);
}

TEST(GpSolver, RejectsMalformedPrograms) {
  gp::GpProblem p;
  EXPECT_THROW(solve(p), std::invalid_argument);  // no variables / objective
  const auto x = p.add_variable();
  (void)x;
  EXPECT_THROW(solve(p), std::invalid_argument);  // still no objective
}

TEST(GpProblem, IsFeasibleChecksAllConstraints) {
  gp::GpProblem p;
  const auto x = p.add_variable();
  p.set_objective(gp::Posynomial(p.monomial(1.0).with(x, 1.0)));
  p.add_bounds(x, 1.0, 2.0);
  EXPECT_TRUE(p.is_feasible({1.5}));
  EXPECT_FALSE(p.is_feasible({0.5}));
  EXPECT_FALSE(p.is_feasible({2.5}));
  EXPECT_FALSE(p.is_feasible({-1.0}));
}

TEST(GpSolver, UnboundedWithConstraintCarriesDiagnostic) {
  // min 1/x with x >= 1: infimum 0 at x → ∞, log-space unbounded below.  The
  // lone constraint is satisfied along the whole escape ray, so this is the
  // deterministic unbounded verdict (unlike the unconstrained variant above,
  // which may legitimately stop at a tiny objective).
  gp::GpProblem p;
  const auto x = p.add_variable();
  p.add_constraint_leq1(gp::Posynomial(p.monomial(1.0).with(x, -1.0)));  // x >= 1
  p.set_objective(gp::Posynomial(p.monomial(1.0).with(x, -1.0)));
  const auto r = solve(p);
  EXPECT_EQ(r.status, gp::SolveStatus::kUnbounded);
  EXPECT_FALSE(r.message.empty());
}

TEST(GpSolver, Phase1MarginDecidesBothSidesOfTheBoundary) {
  // The box [2.0, 2.2] has interior width log(1.1) ≈ 0.095 in log space, so
  // phase I can push the violation slack to roughly −0.048.  The margin is the
  // dial that decides the verdict: the default (1e-9) certifies feasibility,
  // while a margin beyond the reachable slack must flip the SAME program to
  // kInfeasible — with the margin spelled out in the diagnostic.
  const auto make_box = [] {
    gp::GpProblem p;
    const auto x = p.add_variable();
    p.add_bounds(x, 2.0, 2.2);
    p.set_objective(gp::Posynomial(p.monomial(1.0).with(x, 1.0)));
    return p;
  };

  const auto feasible = gp::GpSolver().solve(make_box());
  ASSERT_TRUE(feasible.ok()) << feasible.message;
  EXPECT_NEAR(feasible.x[0], 2.0, 1e-4);

  gp::SolveOptions strict;
  strict.phase1_margin = 1.0;  // unreachable: no point sits e^1 deep inside
  const auto rejected = gp::GpSolver(strict).solve(make_box());
  EXPECT_EQ(rejected.status, gp::SolveStatus::kInfeasible);
  EXPECT_NE(rejected.message.find("margin"), std::string::npos) << rejected.message;
}

TEST(GpSolver, DegenerateTinyboxReportsInfeasibleWithDiagnostic) {
  // Width 2e-10 around 2.0: the deepest interior point clears the constraints
  // by less than the default phase-I margin, so the primal barrier gives up
  // with a diagnosed kInfeasible.  (The primal-dual reference solver of the
  // differential suite solves this instance — that rescue lives in
  // test_gp_differential.)
  gp::GpProblem p;
  const auto x = p.add_variable();
  p.add_bounds(x, 2.0, 2.0 + 2e-10);
  p.set_objective(gp::Posynomial(p.monomial(1.0).with(x, 1.0)));
  const auto r = solve(p);
  EXPECT_EQ(r.status, gp::SolveStatus::kInfeasible);
  EXPECT_NE(r.message.find("phase I"), std::string::npos) << r.message;
}

TEST(GpSolver, EveryNonOptimalExitCarriesAMessage) {
  // The SolveResult contract: message is ALWAYS non-empty off the happy path.
  // Drive the two deterministic failure verdicts and assert it.
  {
    gp::GpProblem p;  // infeasible: x >= 5 and x <= 2
    const auto x = p.add_variable();
    p.set_objective(gp::Posynomial(p.monomial(1.0).with(x, 1.0)));
    p.add_constraint_leq1(gp::Posynomial(p.monomial(5.0).with(x, -1.0)));
    p.add_constraint_leq1(gp::Posynomial(p.monomial(0.5).with(x, 1.0)));
    const auto r = solve(p);
    ASSERT_EQ(r.status, gp::SolveStatus::kInfeasible);
    EXPECT_FALSE(r.message.empty());
  }
  {
    gp::GpProblem p;  // unbounded: min 1/x, x >= 1
    const auto x = p.add_variable();
    p.add_constraint_leq1(gp::Posynomial(p.monomial(1.0).with(x, -1.0)));
    p.set_objective(gp::Posynomial(p.monomial(1.0).with(x, -1.0)));
    const auto r = solve(p);
    ASSERT_EQ(r.status, gp::SolveStatus::kUnbounded);
    EXPECT_FALSE(r.message.empty());
  }
}

TEST(GpSolver, RejectsBadInitialGuesses) {
  gp::GpProblem p;
  const auto x = p.add_variable();
  p.set_objective(gp::Posynomial(p.monomial(1.0).with(x, 1.0)));
  p.add_bounds(x, 1.0, 2.0);
  // Wrong dimension.
  EXPECT_THROW(solve(p, std::vector<double>{1.0, 1.0}), std::invalid_argument);
  // Non-positive entries are outside the GP domain.
  EXPECT_THROW(solve(p, std::vector<double>{0.0}), std::invalid_argument);
  EXPECT_THROW(solve(p, std::vector<double>{-3.0}), std::invalid_argument);
}

TEST(GpProblem, VariablesMustPrecedeConstraints) {
  gp::GpProblem p;
  const auto x = p.add_variable();
  p.add_bounds(x, 1.0, 2.0);
  EXPECT_THROW(p.add_variable(), std::invalid_argument);
}
