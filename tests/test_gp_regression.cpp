// Regression pins for the signomial-SCP stack on the two adversarial corpus
// workloads built for it (gp_tinybox: nearly degenerate period box;
// gp_hugespan: four-orders-of-magnitude span).  These freeze observable
// behaviour — feasibility verdict, cumulative tightness to tolerance, the
// best-iterate rule — so solver-registry refactors cannot silently shift the
// production SCP route.  Golden values were captured from the pre-registry
// solver stack; a legitimate solver change that moves them must update the
// constants knowingly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "core/joint_period.h"
#include "core/period_adapt.h"
#include "gp/scp.h"
#include "gp/solver_registry.h"
#include "gp_testlib.h"
#include "io/taskset_io.h"

namespace core = hydra::core;
namespace gp = hydra::gp;
namespace testlib = hydra::testlib;

namespace {

const std::string kCorpusDir = std::string(HYDRA_SOURCE_DIR) + "/tests/corpus";

struct ScpRun {
  core::Instance instance;
  core::JointPeriodResult result;
};

/// First-fit allocation + SCP joint-period optimization, the production route
/// the sweep's optimal/period-adapt schemes take.
ScpRun run_scp(const std::string& workload) {
  ScpRun run;
  run.instance = hydra::io::load_instance(kCorpusDir + "/" + workload);
  const core::PeriodAdaptAllocator first_fit;
  const core::Allocation alloc = first_fit.allocate(run.instance);
  EXPECT_TRUE(alloc.feasible) << workload << ": first-fit allocation regressed";
  if (!alloc.feasible) return run;
  std::vector<std::size_t> core_of(alloc.placements.size());
  for (std::size_t s = 0; s < core_of.size(); ++s) core_of[s] = alloc.placements[s].core;
  core::JointPeriodOptions options;
  options.objective = core::JointObjective::kSignomialScp;
  run.result = core::optimize_joint_periods(run.instance, alloc.rt_partition, core_of, options);
  return run;
}

void expect_periods_in_box(const ScpRun& run) {
  ASSERT_EQ(run.result.periods.size(), run.instance.security_tasks.size());
  for (std::size_t s = 0; s < run.result.periods.size(); ++s) {
    const auto& task = run.instance.security_tasks[s];
    EXPECT_GE(run.result.periods[s], task.period_des * (1.0 - 1e-9));
    EXPECT_LE(run.result.periods[s], task.period_max * (1.0 + 1e-9));
  }
}

}  // namespace

TEST(GpRegression, TinyboxScpStaysFeasibleAndPinned) {
  const ScpRun run = run_scp("gp_tinybox_2core_g.txt");
  ASSERT_TRUE(run.result.feasible);
  expect_periods_in_box(run);
  // The 4 ms box pins every period to essentially Tdes: tightness ≈ ω count.
  EXPECT_NEAR(run.result.cumulative_tightness, 2.0, 1e-6);
  // Both tasks sit at the tight end of their boxes.
  EXPECT_NEAR(run.result.periods[0], 400.0, 1e-3);
  EXPECT_NEAR(run.result.periods[1], 900.0, 1e-3);
}

TEST(GpRegression, HugespanScpStaysFeasibleAndPinned) {
  const ScpRun run = run_scp("gp_hugespan_2core_h.txt");
  ASSERT_TRUE(run.result.feasible);
  expect_periods_in_box(run);
  // Optimum deep inside the four-decade box, far from both bounds: the SCP
  // fixed point lands at Ts = 1150/3 ms ⇒ η = 3/23.
  EXPECT_NEAR(run.result.cumulative_tightness, 0.130434782609, 1e-6);
  EXPECT_NEAR(run.result.periods[0], 1150.0 / 3.0, 1e-3);
}

TEST(GpRegression, BestIterateRuleReturnsBestObservedRound) {
  // max 3/x + 1/y  s.t.  1/x + 1/y <= 0.8,  x,y ∈ [1.5, 30] — the coupled
  // instance from test_gp_scp, here instrumented through on_round: the result
  // must equal the best objective seen across all condensation rounds of all
  // starts (rounds are not guaranteed monotone, so "last iterate" would be
  // the wrong rule — that is exactly the regression this test pins).
  gp::GpProblem cons;
  const auto x = cons.add_variable("x");
  const auto y = cons.add_variable("y");
  cons.add_bounds(x, 1.5, 30.0);
  cons.add_bounds(y, 1.5, 30.0);
  gp::Posynomial budget = cons.posynomial();
  budget += cons.monomial(1.25).with(x, -1.0);
  budget += cons.monomial(1.25).with(y, -1.0);
  cons.add_constraint_leq1(budget);

  gp::Posynomial obj = cons.posynomial();
  obj += cons.monomial(3.0).with(x, -1.0);
  obj += cons.monomial(1.0).with(y, -1.0);

  gp::ScpOptions options;
  double best_seen = 0.0;
  int rounds_seen = 0;
  options.on_round = [&](int, const std::vector<double>&, double objective) {
    best_seen = std::max(best_seen, objective);
    ++rounds_seen;
  };
  const gp::ScpResult r =
      gp::maximize_posynomial_scp(cons, obj, {{2.0, 2.0}, {20.0, 20.0}}, options);
  ASSERT_TRUE(r.feasible);
  ASSERT_GT(rounds_seen, 0);
  // Best-iterate rule: never worse than any observed round, and not better
  // than anything that was actually observed.
  EXPECT_GE(r.objective, best_seen - 1e-12);
  EXPECT_LE(r.objective, best_seen + 1e-12);
  EXPECT_TRUE(cons.is_feasible(r.x, 1e-7));
}

// --- Golden bit pins ---------------------------------------------------------
//
// The GP evaluation kernel (gp/terms, gp/barrier) is tuned for speed under one
// rule: the floating-point expression tree and its evaluation order never
// change, so every iterate is bit-identical.  These pins make that rule a
// ctest failure instead of a perfbench digest drift: for every corpus
// workload's joint-period GP, each backend's Newton-step count and a hash of
// the raw bits of SolveResult::x are frozen, and so is the bit hash of the
// full SCP route (condensation rounds over single-term objectives).  A change
// that legitimately moves the iterates must re-record these constants
// knowingly; the failure message prints the observed row.

namespace {

/// FNV-1a over the raw IEEE-754 bits, so -0.0 vs +0.0 and last-ulp
/// differences all change the hash.
std::uint64_t bits_hash(const std::vector<double>& x) {
  std::uint64_t h = 1469598103934665603ull;
  for (const double v : x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "0x%016llxull", static_cast<unsigned long long>(v));
  return buffer;
}

struct BitPin {
  const char* workload;
  const char* backend;
  int newton_steps;     ///< joint GP solve from the all-ones start
  std::uint64_t x_bits; ///< bits_hash of that solve's SolveResult::x
  std::uint64_t scp_bits;  ///< bits_hash of the SCP route's periods
};

const BitPin kBitPins[] = {
  {"boundary_quad_core_j.workload", "scp/barrier", 85, 0xf7a706cbb2a73391ull, 0x94bde3dafce3cb20ull},
  {"boundary_quad_core_j.workload", "ipm/filter", 18, 0xa39e987315e028a6ull, 0xee2e35b5e219b490ull},
  {"easy_2core_a.txt", "scp/barrier", 80, 0x0b385a436c922fabull, 0x0b385a436c922fabull},
  {"easy_2core_a.txt", "ipm/filter", 12, 0x05f914d3232a7d23ull, 0x07cea8353c69bbd2ull},
  {"gp_hugespan_2core_h.txt", "scp/barrier", 84, 0xc2716b74a1294ea7ull, 0xd75abb4d71b37f86ull},
  {"gp_hugespan_2core_h.txt", "ipm/filter", 13, 0xebaf5b7aaf097939ull, 0xeb7c2601bd208edbull},
  {"gp_tinybox_2core_g.txt", "scp/barrier", 73, 0xf8978b508250f0e1ull, 0xf8978b508250f0e1ull},
  {"gp_tinybox_2core_g.txt", "ipm/filter", 13, 0x1baa15e1a671539eull, 0x87d70b1693e97a3cull},
  {"mid_2core_b.txt", "scp/barrier", 86, 0x327ec0056d88e5a8ull, 0xdf1221d28c43bd5eull},
  {"mid_2core_b.txt", "ipm/filter", 16, 0x41cc54db4479f8cdull, 0xc53f519cb7ec6aabull},
  {"quad_core_e.txt", "scp/barrier", 86, 0x805e0170a0411d56ull, 0x39a5ede52dfa9398ull},
  {"quad_core_e.txt", "ipm/filter", 20, 0x81d14b0e9b376ce4ull, 0x8d2c87ba287673e5ull},
  {"split_2core_d.taskset", "scp/barrier", 78, 0xa39d5767adf51ddcull, 0xa39d5767adf51ddcull},
  {"split_2core_d.taskset", "ipm/filter", 12, 0xd799a8e7d2bea776ull, 0xe771081ecdf16026ull},
  {"tight_2core_c.txt", "scp/barrier", 84, 0xc8cc54177acc214dull, 0xa662c1a9c32d5541ull},
  {"tight_2core_c.txt", "ipm/filter", 17, 0x7a85f8a98bca09deull, 0x093ba1d16d9c0a4eull},
};

}  // namespace

TEST(GpRegression, GoldenBitPinsOnCorpusJointPeriodGps) {
  std::string observed;
  std::size_t checked = 0;
  for (const auto& file : testlib::corpus_workloads(kCorpusDir)) {
    const std::string workload = file.filename().string();
    const auto ff = testlib::corpus_first_fit(hydra::io::load_instance(file.string()));
    if (!ff.has_value()) continue;
    const gp::GpProblem problem =
        core::make_joint_period_gp(ff->instance, ff->alloc.rt_partition, ff->core_of);
    for (const std::string backend : {"scp/barrier", "ipm/filter"}) {
      const gp::GpBackendScope scope(backend);
      const gp::SolveResult sr = gp::solve_with_backend(problem);
      ASSERT_TRUE(sr.ok()) << workload << " " << backend << ": " << sr.message;
      core::JointPeriodOptions options;
      options.objective = core::JointObjective::kSignomialScp;
      const core::JointPeriodResult scp = core::optimize_joint_periods(
          ff->instance, ff->alloc.rt_partition, ff->core_of, options);
      ASSERT_TRUE(scp.feasible) << workload << " " << backend;

      const std::string row = "  {\"" + workload + "\", \"" + backend + "\", " +
                              std::to_string(sr.newton_steps) + ", " + hex(bits_hash(sr.x)) +
                              ", " + hex(bits_hash(scp.periods)) + "},\n";
      observed += row;
      const BitPin* pin = nullptr;
      for (const BitPin& p : kBitPins) {
        if (workload == p.workload && backend == p.backend) pin = &p;
      }
      if (pin == nullptr) {
        ADD_FAILURE() << "no pin recorded; observed row:\n" << row;
        continue;
      }
      EXPECT_EQ(sr.newton_steps, pin->newton_steps) << "observed row:\n" << row;
      EXPECT_EQ(bits_hash(sr.x), pin->x_bits) << "observed row:\n" << row;
      EXPECT_EQ(bits_hash(scp.periods), pin->scp_bits) << "observed row:\n" << row;
      ++checked;
    }
  }
  EXPECT_EQ(checked, std::size(kBitPins)) << "observed pins:\n" << observed;
}
