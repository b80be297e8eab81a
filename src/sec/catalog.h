// The paper's Table I: the six Tripwire/Bro security tasks used in the UAV
// case study, plus optional precedence chains (paper §V: "the security
// application's own binary may need to be examined first before checking the
// system binary files").
//
// SUBSTITUTION NOTE (docs/architecture.md, "Substitutions and modelling
// choices", S6): the paper measured WCETs of real Tripwire
// and Bro runs on a 1 GHz ARM Cortex-A8 with ARM cycle counters.  We ship
// representative WCETs of the same order (tens to hundreds of ms for hash
// scans over directory trees) chosen so that detection times land in the
// 0–50 s range of the paper's Fig. 1.  Desired periods follow the synthetic
// setup of §IV-B (1000–3000 ms, Tmax = 10·Tdes).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "rt/task.h"

namespace hydra::sec {

/// Which application a Table-I task belongs to.
enum class SecurityApp { kTripwire, kBro };

/// One catalog row: a security task plus its Table-I metadata.
struct CatalogEntry {
  rt::SecurityTask task;
  SecurityApp app = SecurityApp::kTripwire;
  std::string function;  ///< the "Function" column of Table I
};

/// The six Table-I tasks, priority-ordered by ascending Tmax as the paper
/// prescribes (§II-C).
std::vector<CatalogEntry> tripwire_bro_catalog();

/// Just the SecurityTask part of the catalog, in the same order.
std::vector<rt::SecurityTask> tripwire_bro_tasks();

/// A precedence chain over security-task indices: members must be checked in
/// order (§V).  `respects_chain` verifies a priority ranking is consistent
/// with every chain (predecessors at higher priority).
struct Chain {
  std::vector<std::size_t> members;  ///< indices into the task vector, in order
};

/// The paper's motivating chain: Tripwire checks its own binary before the
/// system binaries (catalog indices 0 → 1).
std::vector<Chain> default_chains();

/// True iff for every chain each member has higher priority (smaller rank)
/// than its successor.  `rank` maps task index → priority rank (0 highest).
bool respects_chains(const std::vector<Chain>& chains, const std::vector<std::size_t>& rank);

/// A priority order (highest first) that follows the paper's ascending-Tmax
/// rule wherever possible while honouring every chain edge: a stable
/// topological sort with the Tmax order as the tie-breaking base order.
/// Throws std::invalid_argument when the chains contain a cycle.
std::vector<std::size_t> chain_consistent_order(const std::vector<rt::SecurityTask>& tasks,
                                                const std::vector<Chain>& chains);

}  // namespace hydra::sec
