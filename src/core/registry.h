// Name-indexed construction of allocation schemes, so CLI flags like
// `--schemes hydra,single-core,optimal` and config files can pick strategies
// without compiling against their option structs.
//
// The global registry ships the paper's three schemes (hydra, single-core,
// optimal), the adaptive baselines of the follow-up work (contego,
// period-adapt, period-adapt/gp, util/worst-fit) and hydra/exact-rta, which
// the design-space exploration compares against; docs/scheme-catalog.md is
// the generated list with one-line descriptions.
//
// New schemes register with `add` (typically at startup); registered names
// are stable identifiers that appear verbatim in result rows and sinks.
// docs/allocator-authoring.md walks through adding one end to end.
#pragma once

#include "core/allocator.h"
#include "util/registry.h"

namespace hydra::core {

/// Scheme registry.  `make` stamps the registered name on the result
/// (Allocator::name() reports exactly the name it was made under).
using AllocatorRegistry = util::Registry<Allocator>;

}  // namespace hydra::core

template <>
hydra::core::AllocatorRegistry& hydra::core::AllocatorRegistry::global();
