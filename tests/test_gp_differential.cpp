// Differential testing harness for the GP solver registry: the incumbent
// barrier stack (`scp/barrier`) and the primal-dual interior-point backend
// (`ipm/filter`) are run on the same problems and must agree — on objective
// value at mutual optimality (1e-6 relative), on feasibility of every
// returned point (re-verified against the problem, never trusted from the
// solver), and on infeasible/unbounded verdicts.  Problem sources:
//
//   1. every committed corpus workload's joint-period GP (the production
//      problem shape, via core::make_joint_period_gp),
//   2. 200+ seeded random GPs from tests/gp_testlib.h (feasible by
//      construction, so "both optimal" is an assertion, not a hope),
//   3. deliberately infeasible and unbounded programs,
//   4. the gp_tinybox-class degenerate box where phase I fails and only the
//      IPM survives — the `pick-best` rescue the meta-backend exists for.
//
// A 60+-iteration fuzz pass at the end exists for the sanitizer CI job: it
// asserts nothing beyond "no crash, sane verdict, non-empty diagnostics".
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/joint_period.h"
#include "gp/solver_registry.h"
#include "gp_testlib.h"
#include "io/taskset_io.h"
#include "util/rng.h"

namespace core = hydra::core;
namespace gp = hydra::gp;
namespace testlib = hydra::testlib;

namespace {

const std::string kCorpusDir = std::string(HYDRA_SOURCE_DIR) + "/tests/corpus";

/// Relative difference with an absolute floor, symmetric in its arguments.
double rel_diff(double a, double b) {
  return std::fabs(a - b) / std::fmax(1.0, std::fmax(std::fabs(a), std::fabs(b)));
}

gp::SolveResult solve_backend(const gp::GpProblem& problem, const std::string& backend) {
  return gp::solve_with_backend(problem, std::nullopt, backend);
}

/// The full differential contract for one problem.  `expect_optimal` is set
/// for feasible-by-construction instances, where anything short of mutual
/// optimality is a solver bug rather than a hard problem.
void check_differential(const gp::GpProblem& problem, const std::string& context,
                        bool expect_optimal) {
  const gp::SolveResult scp = solve_backend(problem, "scp/barrier");
  const gp::SolveResult ipm = solve_backend(problem, "ipm/filter");

  SCOPED_TRACE(context + " [scp: " + scp.message + "] [ipm: " + ipm.message + "]");
  EXPECT_EQ(scp.backend, "scp/barrier");
  EXPECT_EQ(ipm.backend, "ipm/filter");

  if (expect_optimal) {
    ASSERT_EQ(scp.status, gp::SolveStatus::kOptimal) << "barrier failed a feasible GP";
    ASSERT_EQ(ipm.status, gp::SolveStatus::kOptimal) << "IPM failed a feasible GP";
  }

  // Non-optimal exits always carry a diagnostic (satellite contract).
  for (const auto* r : {&scp, &ipm}) {
    if (r->status != gp::SolveStatus::kOptimal) {
      EXPECT_FALSE(r->message.empty()) << "silent non-optimal exit";
    }
  }

  // Returned points are re-verified against the problem, never trusted.
  if (scp.status == gp::SolveStatus::kOptimal) {
    ASSERT_EQ(scp.x.size(), problem.num_variables());
    EXPECT_TRUE(problem.is_feasible(scp.x, 1e-6)) << "barrier returned an infeasible point";
  }
  if (ipm.status == gp::SolveStatus::kOptimal) {
    ASSERT_EQ(ipm.x.size(), problem.num_variables());
    EXPECT_TRUE(problem.is_feasible(ipm.x, 1e-6)) << "IPM returned an infeasible point";
    EXPECT_TRUE(std::isfinite(ipm.kkt_residual));
    if (ipm.converged) {
      EXPECT_LE(ipm.kkt_residual, 1e-6) << "converged IPM with large KKT residual";
    }
  }

  // Mutual optimality: the objectives must agree to 1e-6 relative.
  if (scp.status == gp::SolveStatus::kOptimal && ipm.status == gp::SolveStatus::kOptimal &&
      scp.converged && ipm.converged) {
    EXPECT_LE(rel_diff(scp.objective, ipm.objective), 1e-6)
        << "objective disagreement: barrier=" << scp.objective
        << " ipm=" << ipm.objective;
  }

  // Verdict agreement on hard conclusions: if either side proves the problem
  // infeasible or unbounded, the other must not claim an optimum.
  const auto hard_verdict = [](const gp::SolveResult& r) {
    return r.status == gp::SolveStatus::kInfeasible || r.status == gp::SolveStatus::kUnbounded;
  };
  if (hard_verdict(scp)) {
    EXPECT_NE(ipm.status, gp::SolveStatus::kOptimal)
        << "barrier says " << static_cast<int>(scp.status) << " but IPM found an optimum";
  }
  if (hard_verdict(ipm)) {
    EXPECT_NE(scp.status, gp::SolveStatus::kOptimal)
        << "IPM says " << static_cast<int>(ipm.status) << " but barrier found an optimum";
  }
}

/// Joint-period GP for a corpus instance under its first-fit allocation, or
/// nullopt when the workload has no GP stage.
std::optional<gp::GpProblem> corpus_gp(const core::Instance& instance) {
  const auto assignment = testlib::corpus_first_fit(instance);
  if (!assignment.has_value()) return std::nullopt;
  return core::make_joint_period_gp(assignment->instance, assignment->alloc.rt_partition,
                                    assignment->core_of);
}

/// The gp_tinybox degenerate shape: a box of width 2e-10 around 2.0.  Phase I
/// cannot certify strict feasibility within its margin, so the barrier stack
/// reports kInfeasible; the IPM's slack formulation does not need an interior
/// point and solves it.
gp::GpProblem tinybox_problem() {
  gp::GpProblem p;
  const auto x = p.add_variable("x");
  p.add_bounds(x, 2.0, 2.0 + 2e-10);
  gp::Posynomial obj = p.posynomial();
  obj += p.monomial(1.0).with(x, 1.0);
  p.set_objective(obj);
  return p;
}

}  // namespace

// --- 1. Corpus workloads -----------------------------------------------------

TEST(GpDifferential, CorpusJointPeriodGpsAgree) {
  const auto files = testlib::corpus_workloads(kCorpusDir);
  ASSERT_GE(files.size(), 10u) << "corpus shrank under " << kCorpusDir;
  std::size_t gp_count = 0;
  for (const auto& file : files) {
    const core::Instance instance = hydra::io::load_instance(file.string());
    const auto problem = corpus_gp(instance);
    if (!problem.has_value()) continue;
    ++gp_count;
    check_differential(*problem, "corpus:" + file.filename().string(),
                       /*expect_optimal=*/true);
  }
  // Most corpus workloads admit a first-fit allocation and hence a GP stage;
  // if this count collapses the corpus no longer exercises the solvers.
  EXPECT_GE(gp_count, 5u);
}

// --- 2. Seeded random GPs ----------------------------------------------------

TEST(GpDifferential, TwoHundredSeededRandomGpsAgree) {
  hydra::util::Xoshiro256 rng(0xD1FFu);
  for (int i = 0; i < 200; ++i) {
    const testlib::RandomGp sample = testlib::make_random_gp(rng);
    ASSERT_TRUE(sample.problem.is_feasible(sample.witness, 1e-9))
        << "generator invariant broken at draw " << i;
    check_differential(sample.problem, "random-gp #" + std::to_string(i),
                       /*expect_optimal=*/true);
  }
}

TEST(GpDifferential, InfeasibleRandomGpsGetMatchingVerdicts) {
  hydra::util::Xoshiro256 rng(0xBADFu);
  for (int i = 0; i < 40; ++i) {
    const testlib::RandomGp sample = testlib::make_infeasible_gp(rng);
    const gp::SolveResult scp = solve_backend(sample.problem, "scp/barrier");
    const gp::SolveResult ipm = solve_backend(sample.problem, "ipm/filter");
    SCOPED_TRACE("infeasible-gp #" + std::to_string(i) + " [scp: " + scp.message +
                 "] [ipm: " + ipm.message + "]");
    EXPECT_EQ(scp.status, gp::SolveStatus::kInfeasible);
    EXPECT_NE(ipm.status, gp::SolveStatus::kOptimal);
    EXPECT_FALSE(scp.message.empty());
    EXPECT_FALSE(ipm.message.empty());
  }
}

// --- 3. Hard-verdict programs ------------------------------------------------

TEST(GpDifferential, UnboundedBelowAgreesAcrossBackends) {
  // min 1/x with x >= 1 and no upper bound: infimum 0, never attained.
  gp::GpProblem p;
  const auto x = p.add_variable("x");
  gp::Posynomial lower = p.posynomial();
  lower += p.monomial(1.0).with(x, -1.0);  // 1/x <= 1, i.e. x >= 1
  p.add_constraint_leq1(lower);
  gp::Posynomial obj = p.posynomial();
  obj += p.monomial(1.0).with(x, -1.0);
  p.set_objective(obj);

  const gp::SolveResult scp = solve_backend(p, "scp/barrier");
  const gp::SolveResult ipm = solve_backend(p, "ipm/filter");
  EXPECT_EQ(scp.status, gp::SolveStatus::kUnbounded) << scp.message;
  EXPECT_EQ(ipm.status, gp::SolveStatus::kUnbounded) << ipm.message;
  EXPECT_FALSE(scp.message.empty());
  EXPECT_FALSE(ipm.message.empty());
}

// --- 4. The pick-best rescue -------------------------------------------------

TEST(GpDifferential, PickBestRescuesTinyboxClassInstance) {
  const gp::GpProblem p = tinybox_problem();

  // The incumbent stack genuinely fails this instance…
  const gp::SolveResult scp = solve_backend(p, "scp/barrier");
  ASSERT_EQ(scp.status, gp::SolveStatus::kInfeasible)
      << "tinybox no longer defeats phase I — rescue test needs a new instance: "
      << scp.message;

  // …the IPM solves it…
  const gp::SolveResult ipm = solve_backend(p, "ipm/filter");
  ASSERT_EQ(ipm.status, gp::SolveStatus::kOptimal) << ipm.message;
  EXPECT_NEAR(ipm.objective, 2.0, 1e-6);
  EXPECT_TRUE(p.is_feasible(ipm.x, 1e-6));

  // …and pick-best adopts the rescue, stamping the backend that won.
  const gp::SolveResult best = solve_backend(p, "pick-best");
  EXPECT_EQ(best.status, gp::SolveStatus::kOptimal) << best.message;
  EXPECT_EQ(best.backend, "ipm/filter");
  EXPECT_NEAR(best.objective, 2.0, 1e-6);
}

TEST(GpDifferential, PickBestPrefersPrimaryWhenBothSolve) {
  hydra::util::Xoshiro256 rng(0x9E37u);
  const testlib::RandomGp sample = testlib::make_random_gp(rng);
  const gp::SolveResult scp = solve_backend(sample.problem, "scp/barrier");
  const gp::SolveResult best = solve_backend(sample.problem, "pick-best");
  ASSERT_EQ(scp.status, gp::SolveStatus::kOptimal) << scp.message;
  ASSERT_EQ(best.status, gp::SolveStatus::kOptimal) << best.message;
  // The primary short-circuits on converged optimality: same point, same stamp.
  EXPECT_EQ(best.backend, "scp/barrier");
  EXPECT_LE(rel_diff(best.objective, scp.objective), 1e-12);
}

// --- 5. Sanitizer fuzz pass --------------------------------------------------

TEST(GpDifferential, FuzzSixtyPlusIterationsNoCrash) {
  // Runs every backend (including the meta-backend) over mixed feasible /
  // infeasible draws.  Under the ASan/UBSan CI job this is the crash net;
  // assertions here are deliberately weak so sanitizers are the oracle.
  hydra::util::Xoshiro256 rng(0xF022u);
  const auto& registry = gp::SolverRegistry::global();
  const std::vector<std::string> backends = registry.names();
  ASSERT_GE(backends.size(), 3u);
  for (int i = 0; i < 72; ++i) {
    const bool infeasible = (i % 3 == 2);
    const testlib::RandomGp sample =
        infeasible ? testlib::make_infeasible_gp(rng) : testlib::make_random_gp(rng);
    const std::string& backend = backends[static_cast<std::size_t>(i) % backends.size()];
    const gp::SolveResult r = solve_backend(sample.problem, backend);
    SCOPED_TRACE("fuzz #" + std::to_string(i) + " backend=" + backend);
    EXPECT_FALSE(r.backend.empty());
    if (r.status == gp::SolveStatus::kOptimal) {
      EXPECT_EQ(r.x.size(), sample.problem.num_variables());
      EXPECT_TRUE(std::isfinite(r.objective));
    } else {
      EXPECT_FALSE(r.message.empty());
    }
  }
}
