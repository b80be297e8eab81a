#include "gp/problem.h"

#include <optional>

#include "util/contracts.h"

namespace hydra::gp {

VarId GpProblem::add_variable() {
  HYDRA_REQUIRE(!objective_.has_value() && constraints_.empty(),
                "add all variables before the objective and constraints");
  return num_variables_++;
}

void GpProblem::set_objective(Posynomial objective) {
  HYDRA_REQUIRE(objective.num_vars() == num_variables(), "objective variable count mismatch");
  HYDRA_REQUIRE(!objective.empty(), "objective must have at least one term");
  objective_ = std::move(objective);
}

void GpProblem::add_constraint_leq1(Posynomial p) {
  HYDRA_REQUIRE(p.num_vars() == num_variables(), "constraint variable count mismatch");
  HYDRA_REQUIRE(!p.empty(), "constraint must have at least one term");
  constraints_.push_back(std::move(p));
}

void GpProblem::add_bounds(VarId v, double lo, double hi) {
  HYDRA_REQUIRE(v < num_variables(), "variable id out of range");
  HYDRA_REQUIRE(lo > 0.0 && lo <= hi, "bounds must satisfy 0 < lo <= hi");
  // lo <= x  ⇔  lo · x⁻¹ <= 1 ;  x <= hi  ⇔  (1/hi) · x <= 1.
  add_constraint_leq1(Posynomial(monomial(lo).with(v, -1.0)));
  add_constraint_leq1(Posynomial(monomial(1.0 / hi).with(v, 1.0)));
}

const Posynomial& GpProblem::objective() const {
  HYDRA_REQUIRE(objective_.has_value(), "objective not set");
  return *objective_;
}

bool GpProblem::is_feasible(const std::vector<double>& x, double tol) const {
  HYDRA_REQUIRE(x.size() == num_variables(), "point size mismatch");
  for (double xi : x) {
    if (!(xi > 0.0)) return false;
  }
  for (const auto& c : constraints_) {
    if (c.eval(x) > 1.0 + tol) return false;
  }
  return true;
}

}  // namespace hydra::gp
