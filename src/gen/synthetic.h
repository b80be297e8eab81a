// Synthetic workload generator reproducing the paper's §IV-B setup:
//
//   * M ∈ {2, 4, 8} cores;
//   * NR ∈ [3M, 10M] real-time tasks, NS ∈ [2M, 5M] security tasks;
//   * RT periods in [10, 1000] ms (log-uniform, the convention of [23]);
//   * security desired periods in [1000, 3000] ms, Tmax = 10·Tdes;
//   * total security utilization at most 30 % of the RT utilization — we pin
//     it at exactly 30 % (U_rt = U/1.3, U_sec = 0.3·U_rt) so a target total
//     utilization U decomposes deterministically;
//   * individual utilizations from Randfixedsum (unbiased);
//   * tasksets failing the Eq. (1) necessary condition are discarded.
#pragma once

#include <cstddef>
#include <optional>

#include "core/instance.h"
#include "util/rng.h"

namespace hydra::gen {

struct SyntheticConfig {
  std::size_t num_cores = 2;  ///< M

  // Task counts, per-core multipliers as in the paper.
  std::size_t min_rt_per_core = 3;
  std::size_t max_rt_per_core = 10;
  std::size_t min_sec_per_core = 2;
  std::size_t max_sec_per_core = 5;

  // Period ranges (ms).
  double rt_period_lo = 10.0;
  double rt_period_hi = 1000.0;
  double sec_period_des_lo = 1000.0;
  double sec_period_des_hi = 3000.0;
  double sec_period_max_factor = 10.0;  ///< Tmax = factor · Tdes

  /// U_sec / U_rt ratio (paper: "no more than 30%"; we use exactly this).
  double sec_util_ratio = 0.3;

  /// Per-task utilization cap handed to Randfixedsum.
  double max_task_utilization = 1.0;
};

/// One generated instance.  `rt_utilization + sec_utilization` equals the
/// requested total (up to rounding).
struct SyntheticInstance {
  core::Instance instance;
  double rt_utilization = 0.0;
  double sec_utilization = 0.0;
};

/// Draws an instance with the given total utilization (RT + security).
/// Returns nullopt when the draw is structurally impossible (e.g. utilization
/// so high that even NR tasks at cap cannot reach it) — callers typically
/// redraw.  Does NOT apply the Eq. (1) filter; see below.
std::optional<SyntheticInstance> generate_instance(const SyntheticConfig& config,
                                                   double total_utilization,
                                                   util::Xoshiro256& rng);

/// The paper's pre-filter: Eq. (1) over the RT tasks on M cores.  (Security
/// tasks enter the schedulability analysis proper, not this filter.)  Drawn
/// RT tasks have implicit deadlines, so rt::dbf_necessary_condition settles
/// every draw with U ≤ M in O(n), without a deadline walk (its L_a bound is
/// 0); only draws with U in (M, M + ε] still walk.
bool satisfies_necessary_condition(const core::Instance& instance);

/// Draws instances until one passes `satisfies_necessary_condition`, up to
/// `max_attempts` (then nullopt — the utilization point is hopeless).
std::optional<SyntheticInstance> generate_filtered_instance(const SyntheticConfig& config,
                                                            double total_utilization,
                                                            util::Xoshiro256& rng,
                                                            int max_attempts = 64);

}  // namespace hydra::gen
