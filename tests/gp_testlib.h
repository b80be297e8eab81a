// Seeded random-GP generator shared by the differential solver suite
// (test_gp_differential) and the sanitizer fuzz pass.  Every draw is a pure
// function of the Xoshiro256 stream, so a failing seed reproduces exactly.
//
// Feasible instances are feasible BY CONSTRUCTION: a strictly positive
// witness point is drawn first, box bounds are grown around it, and every
// extra posynomial constraint is rescaled so its value at the witness lands
// strictly below 1.  Infeasible variants then contradict the box with an
// explicit lower-bound constraint that no in-box point can satisfy (the
// GpProblem::add_bounds contract rejects lo > hi, so the contradiction must
// be expressed as a plain `c/x <= 1` constraint).
//
// The corpus helpers at the end give the solver suites the production GP
// shape: each committed corpus workload under its first-fit assignment.
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "core/period_adapt.h"
#include "gp/problem.h"
#include "util/rng.h"

namespace hydra::testlib {

struct RandomGp {
  gp::GpProblem problem;
  /// Strictly feasible point used to scale the constraints; only meaningful
  /// when `feasible_by_construction` holds.
  std::vector<double> witness;
  bool feasible_by_construction = true;
};

struct RandomGpOptions {
  std::size_t max_variables = 5;     ///< >= 1
  std::size_t max_constraints = 4;   ///< extra posynomial constraints beyond the box
  std::size_t max_terms = 3;         ///< monomials per posynomial
  double exponent_span = 2.5;        ///< exponents drawn from [-span, span]
};

/// Draws one feasible-by-construction GP: compact box bounds around a random
/// witness, plus random posynomial constraints scaled to hold strictly at it.
/// The box makes the feasible set compact, so the objective is attained.
inline RandomGp make_random_gp(util::Xoshiro256& rng, const RandomGpOptions& opt = {}) {
  RandomGp out;
  gp::GpProblem& p = out.problem;

  const std::size_t n = rng.uniform_int(1, opt.max_variables);
  std::vector<std::size_t> vars;
  vars.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    vars.push_back(p.add_variable("x" + std::to_string(i)));
  }

  out.witness.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.witness[i] = rng.uniform(0.2, 5.0);
    // Strictly interior box: witness / scale < witness < witness * scale.
    const double scale = rng.uniform(1.5, 20.0);
    p.add_bounds(vars[i], out.witness[i] / scale, out.witness[i] * scale);
  }

  // Random posynomial drawer over a random non-empty subset of variables.
  const auto draw_posynomial = [&](std::size_t max_terms) {
    gp::Posynomial poly = p.posynomial();
    const std::size_t terms = rng.uniform_int(1, max_terms);
    for (std::size_t t = 0; t < terms; ++t) {
      gp::Monomial mono = p.monomial(rng.uniform(0.1, 3.0));
      const std::size_t touched = rng.uniform_int(1, n);
      for (std::size_t k = 0; k < touched; ++k) {
        const std::size_t v = rng.uniform_int(0, n - 1);
        mono = mono.with(vars[v], rng.uniform(-opt.exponent_span, opt.exponent_span));
      }
      poly += mono;
    }
    return poly;
  };

  const std::size_t extra = rng.uniform_int(0, opt.max_constraints);
  for (std::size_t c = 0; c < extra; ++c) {
    gp::Posynomial poly = draw_posynomial(opt.max_terms);
    // Rescale so the witness satisfies the constraint strictly: multiplying a
    // posynomial's coefficients by target/value(x*) sets its value at x* to
    // `target` without changing its shape.
    const double at_witness = poly.eval(out.witness);
    const double target = rng.uniform(0.3, 0.9);
    gp::Posynomial rescaled = p.posynomial();
    for (const auto& mono : poly.terms()) {
      rescaled += mono.scaled(target / at_witness);
    }
    p.add_constraint_leq1(rescaled, "rand" + std::to_string(c));
  }

  p.set_objective(draw_posynomial(opt.max_terms + 1));
  return out;
}

/// Draws a GP that is infeasible by construction: a feasible base whose box
/// is then contradicted by `2*hi_0 / x_0 <= 1` (i.e. x_0 >= 2*hi_0 while the
/// box caps x_0 at hi_0).  The margin factor 2 keeps phase I's verdict far
/// from its strict-feasibility tolerance.
inline RandomGp make_infeasible_gp(util::Xoshiro256& rng, const RandomGpOptions& opt = {}) {
  RandomGp out = make_random_gp(rng, opt);
  gp::GpProblem& p = out.problem;
  // Bounds were added first, one box per variable; recover hi_0 from the
  // witness draw instead of the problem to keep this header independent of
  // constraint internals: re-derive by evaluating the box constraint is
  // brittle, so just add a constraint stronger than any in-box value.
  // x_0 <= witness_0 * 20 always (scale < 20), so require x_0 >= 40*witness_0.
  gp::Posynomial contradiction = p.posynomial();
  contradiction += p.monomial(40.0 * out.witness[0]).with(0, -1.0);
  p.add_constraint_leq1(contradiction, "contradiction");
  out.feasible_by_construction = false;
  return out;
}

/// Corpus workload files in `dir` (taskset/workload extensions), sorted so
/// every suite walks them in the same order.
inline std::vector<std::filesystem::path> corpus_workloads(const std::string& dir) {
  const std::set<std::string> extensions{".txt", ".workload", ".taskset"};
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    if (extensions.count(entry.path().extension().string()) == 0) continue;
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// A corpus instance with its first-fit assignment: the input of the
/// joint-period GP (core::make_joint_period_gp / optimize_joint_periods).
struct CorpusAssignment {
  core::Instance instance;
  core::Allocation alloc;
  std::vector<std::size_t> core_of;  ///< core of each security task
};

/// First-fit assignment of `instance`, or nullopt when the workload has no GP
/// stage (no security tasks, or no feasible allocation to optimize over).
inline std::optional<CorpusAssignment> corpus_first_fit(core::Instance instance) {
  if (instance.security_tasks.empty()) return std::nullopt;
  CorpusAssignment out;
  try {
    out.alloc = core::PeriodAdaptAllocator().allocate(instance);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (!out.alloc.feasible) return std::nullopt;
  for (const auto& placement : out.alloc.placements) out.core_of.push_back(placement.core);
  out.instance = std::move(instance);
  return out;
}

}  // namespace hydra::testlib
