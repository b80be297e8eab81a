#include "core/registry.h"

#include "core/contego.h"
#include "core/hydra.h"
#include "core/optimal.h"
#include "core/period_adapt.h"
#include "core/single_core.h"
#include "core/util_fit.h"

namespace hydra::core {

namespace {

AllocatorRegistry build_global() {
  AllocatorRegistry registry(
      "allocation scheme",
      [](Allocator& allocator, const std::string& name) { allocator.set_name(name); });
  registry.add("hydra", "HYDRA, paper defaults (Algorithm 1, closed-form Eq. 7)",
               [] { return std::make_unique<HydraAllocator>(); });
  registry.add("hydra/exact-rta",
               "HYDRA with exact response-time analysis (tighter periods)", [] {
                 HydraOptions options;
                 options.test = ScheduleTest::kExactRta;
                 return std::make_unique<HydraAllocator>(options);
               });
  registry.add("single-core", "all security tasks isolated on a dedicated core",
               [] { return std::make_unique<SingleCoreAllocator>(); });
  registry.add("optimal",
               "exhaustive assignment search, signomial SCP joint periods",
               [] { return std::make_unique<OptimalAllocator>(); });
  registry.add("contego",
               "Contego-style adaptive allocation: minimum-mode placement, "
               "slack-aware opportunistic tightening",
               [] { return std::make_unique<ContegoAllocator>(); });
  registry.add("period-adapt",
               "period-adaptation-only baseline: fixed first-fit partition, "
               "per-core slack-aware period optimization",
               [] { return std::make_unique<PeriodAdaptAllocator>(); });
  registry.add("period-adapt/gp",
               "period adaptation with joint GP (signomial SCP) refinement of "
               "the fixed partition",
               [] {
                 PeriodAdaptOptions options;
                 options.joint_gp = true;
                 return std::make_unique<PeriodAdaptAllocator>(options);
               });
  registry.add("util/worst-fit",
               "utilization-aware worst-fit: least security-loaded feasible core",
               [] { return std::make_unique<UtilFitAllocator>(); });
  return registry;
}

}  // namespace

}  // namespace hydra::core

template <>
hydra::core::AllocatorRegistry& hydra::core::AllocatorRegistry::global() {
  static Registry registry = core::build_global();
  return registry;
}
