#include "gen/synthetic.h"

#include <cmath>
#include <string>

#include "gen/randfixedsum.h"
#include "rt/analysis.h"
#include "util/contracts.h"

namespace hydra::gen {

namespace {

/// Log-uniform draw in [lo, hi] — the period convention of Emberson et
/// al. [23], which spreads periods evenly across magnitudes.
double log_uniform(util::Xoshiro256& rng, double lo, double hi) {
  return std::exp(rng.uniform(std::log(lo), std::log(hi)));
}

}  // namespace

std::optional<SyntheticInstance> generate_instance(const SyntheticConfig& config,
                                                   double total_utilization,
                                                   util::Xoshiro256& rng) {
  HYDRA_REQUIRE(config.num_cores >= 1, "config needs at least one core");
  HYDRA_REQUIRE(total_utilization > 0.0, "total utilization must be positive");
  HYDRA_REQUIRE(config.sec_util_ratio > 0.0, "security utilization ratio must be positive");

  const std::size_t m = config.num_cores;
  const std::size_t n_rt = static_cast<std::size_t>(
      rng.uniform_int(config.min_rt_per_core * m, config.max_rt_per_core * m));
  const std::size_t n_sec = static_cast<std::size_t>(
      rng.uniform_int(config.min_sec_per_core * m, config.max_sec_per_core * m));

  // Deterministic split: U = U_rt·(1 + ratio) with U_sec = ratio·U_rt.
  const double u_rt = total_utilization / (1.0 + config.sec_util_ratio);
  const double u_sec = total_utilization - u_rt;

  // Structurally impossible draws (sum outside [n·lo, n·hi]) are a redraw.
  const double u_floor = 1e-5;
  if (u_rt <= static_cast<double>(n_rt) * u_floor ||
      u_rt >= static_cast<double>(n_rt) * config.max_task_utilization) {
    return std::nullopt;
  }
  if (u_sec <= static_cast<double>(n_sec) * u_floor ||
      u_sec >= static_cast<double>(n_sec) * config.max_task_utilization) {
    return std::nullopt;
  }

  const auto rt_utils = randfixedsum(n_rt, u_rt, u_floor, config.max_task_utilization, rng);
  const auto sec_utils = randfixedsum(n_sec, u_sec, u_floor, config.max_task_utilization, rng);

  SyntheticInstance out;
  out.instance.num_cores = m;
  out.instance.rt_tasks.reserve(n_rt);
  for (std::size_t i = 0; i < n_rt; ++i) {
    const double period = log_uniform(rng, config.rt_period_lo, config.rt_period_hi);
    const double wcet = rt_utils[i] * period;
    out.instance.rt_tasks.push_back(
        rt::make_rt_task("rt" + std::to_string(i), wcet, period));
    out.rt_utilization += rt_utils[i];
  }
  out.instance.security_tasks.reserve(n_sec);
  for (std::size_t i = 0; i < n_sec; ++i) {
    const double t_des = rng.uniform(config.sec_period_des_lo, config.sec_period_des_hi);
    const double t_max = config.sec_period_max_factor * t_des;
    const double wcet = sec_utils[i] * t_des;
    out.instance.security_tasks.push_back(
        rt::make_security_task("sec" + std::to_string(i), wcet, t_des, t_max));
    out.sec_utilization += sec_utils[i];
  }
  out.instance.validate();
  return out;
}

bool satisfies_necessary_condition(const core::Instance& instance) {
  return rt::dbf_necessary_condition(instance.rt_tasks, instance.num_cores);
}

std::optional<SyntheticInstance> generate_filtered_instance(const SyntheticConfig& config,
                                                            double total_utilization,
                                                            util::Xoshiro256& rng,
                                                            int max_attempts) {
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    auto candidate = generate_instance(config, total_utilization, rng);
    if (candidate.has_value() && satisfies_necessary_condition(candidate->instance)) {
      return candidate;
    }
  }
  return std::nullopt;
}

}  // namespace hydra::gen
