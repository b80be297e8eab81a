// Name-indexed construction of allocation schemes, so CLI flags like
// `--schemes hydra,single-core,optimal` and config files can pick strategies
// without compiling against their option structs.
//
// The global registry ships the paper's three schemes plus the documented
// ablation variants as named entries:
//
//     hydra                  Algorithm 1, paper defaults
//     hydra/gp               GP subproblem solver instead of the closed form
//     hydra/exact-rta        exact response-time analysis (tighter periods)
//     hydra/first-fit        first feasible core instead of argmax tightness
//     hydra/least-loaded     least-loaded feasible core
//     hydra/worst-tightness  adversarial argmin-tightness baseline
//     hydra/tie=lowest-index lowest-index tie break (default spreads load)
//     single-core            dedicated security core
//     single-core/joint      + joint GP refinement of the dedicated core
//     optimal                exhaustive assignment search, signomial SCP
//     optimal/sum-surrogate  exhaustive search, sum-surrogate GP objective
//     contego                Contego-style adaptive allocation (minimum-mode
//                            placement + slack-aware opportunistic tightening)
//     contego/no-adapt       ablation: every monitor stays in minimum mode
//     period-adapt           period-adaptation-only baseline (fixed first-fit
//                            partition, per-core period optimization)
//     period-adapt/gp        + joint GP (signomial SCP) refinement
//     util/worst-fit         place on the least security-loaded feasible core
//     util/best-fit          place on the most security-loaded feasible core
//
// New schemes register with `add` (typically at startup); registered names
// are stable identifiers that appear verbatim in result rows and sinks.
// docs/allocator-authoring.md walks through adding one end to end;
// docs/scheme-catalog.md is the generated catalog of this registry.
#pragma once

#include "core/allocator.h"
#include "util/registry.h"

namespace hydra::core {

/// Scheme registry.  `make` stamps the registered name on the result
/// (Allocator::name() reports exactly the name it was made under).
using AllocatorRegistry = util::Registry<Allocator>;

/// Everything docs/scheme-catalog.md holds above the scheme rows; render the
/// catalog with util::catalog_markdown(AllocatorRegistry::global(), this).
extern const char kSchemeCatalogPreamble[];

}  // namespace hydra::core

template <>
hydra::core::AllocatorRegistry& hydra::core::AllocatorRegistry::global();
