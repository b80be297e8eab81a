// The paper's own route to Eq. (7) (arXiv:1711.04808, appendix): a
// one-variable geometric program, solved by the GP backend of the innermost
// gp::GpBackendScope.  Production answers Eq. (7) in closed form
// (core::adapt_period); this route is kept only to cross-check that answer.
#pragma once

#include "core/period_adaptation.h"
#include "rt/interference.h"
#include "rt/task.h"

namespace hydra::oracle {

/// min Ts  s.t.  Tdes·Ts⁻¹ ≤ 1,  (1/Tmax)·Ts ≤ 1,  (Cs + A)·Ts⁻¹ + B ≤ 1,
/// where A + B·Ts is `bound`.  Infeasible when the solver finds no point;
/// the period is clamped to [Tdes, Tmax].  Agrees with core::adapt_period
/// to solver tolerance.
core::PeriodAdaptation adapt_period_gp(const rt::SecurityTask& task,
                                       const rt::InterferenceBound& bound);

}  // namespace hydra::oracle
