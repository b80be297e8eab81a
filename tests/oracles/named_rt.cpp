#include "oracles/named_rt.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "rt/interference.h"
#include "rt/priority.h"
#include "util/contracts.h"
#include "util/units.h"

namespace hydra::oracle {

namespace {

/// R = C + Σ ⌈R/T_j⌉·C_j over `a[0..na) ++ {inserted?} ++ b[0..nb)`, in that
/// order, seeded at C + Σ C_j.
std::optional<util::Millis> response_time_spliced(const rt::RtTask& task, const rt::RtTask* a,
                                                 std::size_t na, const rt::RtTask* inserted,
                                                 const rt::RtTask* b, std::size_t nb) {
  double hp_util = 0.0;
  for (std::size_t i = 0; i < na; ++i) hp_util += a[i].utilization();
  if (inserted != nullptr) hp_util += inserted->utilization();
  for (std::size_t i = 0; i < nb; ++i) hp_util += b[i].utilization();
  if (hp_util >= 1.0) return std::nullopt;

  double r = task.wcet;
  for (std::size_t i = 0; i < na; ++i) r += a[i].wcet;
  if (inserted != nullptr) r += inserted->wcet;
  for (std::size_t i = 0; i < nb; ++i) r += b[i].wcet;

  const auto add = [](double acc, double r_cur, const rt::RtTask& hp) {
    return acc + std::ceil(r_cur / hp.period - util::kTimeEpsilon) * hp.wcet;
  };
  for (int iter = 0; iter < 10000; ++iter) {
    double next = task.wcet;
    for (std::size_t i = 0; i < na; ++i) next = add(next, r, a[i]);
    if (inserted != nullptr) next = add(next, r, *inserted);
    for (std::size_t i = 0; i < nb; ++i) next = add(next, r, b[i]);
    if (next > task.deadline + util::kTimeEpsilon) return std::nullopt;
    if (util::approx_equal(next, r, util::kTimeEpsilon, 0.0)) return next;
    r = next;
  }
  return std::nullopt;
}

bool hyperbolic_fast_accept(const std::vector<rt::RtTask>& tasks, const rt::RtTask* extra) {
  double product = 1.0;
  for (const auto& t : tasks) {
    if (t.deadline < t.period) return false;
    product *= t.utilization() + 1.0;
  }
  if (extra != nullptr) {
    if (extra->deadline < extra->period) return false;
    product *= extra->utilization() + 1.0;
  }
  return product <= 2.0;
}

std::optional<util::Millis> response_time(const rt::RtTask& task,
                                          const std::vector<rt::RtTask>& hp) {
  return response_time_spliced(task, hp.data(), hp.size(), nullptr, nullptr, 0);
}

bool core_schedulable_rm(const std::vector<rt::RtTask>& tasks_on_core) {
  if (hyperbolic_fast_accept(tasks_on_core, nullptr)) return true;
  std::vector<std::size_t> order(tasks_on_core.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return tasks_on_core[a].period < tasks_on_core[b].period;
  });
  std::vector<rt::RtTask> hp;
  for (const std::size_t idx : order) {
    if (!response_time(tasks_on_core[idx], hp).has_value()) return false;
    hp.push_back(tasks_on_core[idx]);
  }
  return true;
}

bool core_admits_rm(const std::vector<rt::RtTask>& resident_by_priority,
                    const rt::RtTask& candidate) {
  if (hyperbolic_fast_accept(resident_by_priority, &candidate)) return true;
  const auto* base = resident_by_priority.data();
  const std::size_t n = resident_by_priority.size();
  std::size_t pos = 0;
  while (pos < n && base[pos].period <= candidate.period) ++pos;
  if (!response_time_spliced(candidate, base, pos, nullptr, nullptr, 0).has_value()) {
    return false;
  }
  for (std::size_t j = pos; j < n; ++j) {
    if (!response_time_spliced(base[j], base, pos, &candidate, base + pos, j - pos).has_value()) {
      return false;
    }
  }
  return true;
}

std::optional<util::Millis> security_response_time(
    const rt::SecurityTask& task, util::Millis period, const std::vector<rt::RtTask>& rt_on_core,
    const std::vector<rt::PlacedSecurityTask>& hp_security_on_core) {
  HYDRA_REQUIRE(period > 0.0, "candidate period must be positive");
  double hp_util = 0.0;
  double r = task.wcet;
  for (const auto& h : rt_on_core) hp_util += h.utilization();
  for (const auto& h : hp_security_on_core) hp_util += h.wcet / h.period;
  for (const auto& h : rt_on_core) r += h.wcet;
  for (const auto& h : hp_security_on_core) r += h.wcet;
  if (hp_util >= 1.0) return std::nullopt;

  for (int iter = 0; iter < 10000; ++iter) {
    double next = task.wcet;
    for (const auto& hp : rt_on_core) {
      next += std::ceil(r / hp.period - util::kTimeEpsilon) * hp.wcet;
    }
    for (const auto& hp : hp_security_on_core) {
      next += std::ceil(r / hp.period - util::kTimeEpsilon) * hp.wcet;
    }
    if (next > period + util::kTimeEpsilon) return std::nullopt;
    if (util::approx_equal(next, r, util::kTimeEpsilon, 0.0)) return next;
    r = next;
  }
  return std::nullopt;
}

core::ValidationReport fail(std::string why) {
  return core::ValidationReport{false, std::move(why)};
}

/// The tasks of `partition` on `core`, in input order, as named copies.
std::vector<rt::RtTask> tasks_on_core(const std::vector<rt::RtTask>& tasks,
                                      const rt::Partition& partition, std::size_t core) {
  HYDRA_REQUIRE(tasks.size() == partition.core_of.size(), "partition does not match task set");
  HYDRA_REQUIRE(core < partition.num_cores, "core index out of range");
  std::vector<rt::RtTask> out;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (partition.core_of[i] == core) out.push_back(tasks[i]);
  }
  return out;
}

}  // namespace

std::vector<rt::RtTiming> timings_on_core(const std::vector<rt::RtTask>& tasks,
                                          const rt::Partition& partition, std::size_t core) {
  return rt::timings_of(tasks_on_core(tasks, partition, core));
}

std::optional<rt::Partition> named_best_fit_partition(const std::vector<rt::RtTask>& tasks,
                                                      std::size_t num_cores) {
  HYDRA_REQUIRE(num_cores >= 1, "need at least one core");
  rt::validate(tasks);

  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return tasks[a].utilization() > tasks[b].utilization();
  });

  rt::Partition partition;
  partition.num_cores = num_cores;
  partition.core_of.assign(tasks.size(), 0);
  std::vector<std::vector<rt::RtTask>> residents(num_cores);
  std::vector<double> load(num_cores, 0.0);

  for (const std::size_t ti : order) {
    const rt::RtTask& task = tasks[ti];
    std::optional<std::size_t> chosen;
    double best_load = -1.0;
    for (std::size_t c = 0; c < num_cores; ++c) {
      if (core_admits_rm(residents[c], task) && load[c] > best_load) {
        best_load = load[c];
        chosen = c;
      }
    }
    if (!chosen.has_value()) return std::nullopt;
    auto& on_core = residents[*chosen];
    on_core.insert(std::upper_bound(on_core.begin(), on_core.end(), task,
                                    [](const rt::RtTask& a, const rt::RtTask& b) {
                                      return a.period < b.period;
                                    }),
                   task);
    load[*chosen] += task.utilization();
    partition.core_of[ti] = *chosen;
  }
  return partition;
}

core::ValidationReport named_validate_allocation(
    const core::Instance& instance, const core::Allocation& allocation,
    const std::optional<std::vector<std::size_t>>& priority_order, core::ScheduleTest test) {
  if (!allocation.feasible) return fail("allocation is marked infeasible");
  if (allocation.placements.size() != instance.security_tasks.size()) {
    return fail("placements do not cover the security task set");
  }
  if (allocation.rt_partition.num_cores != instance.num_cores ||
      allocation.rt_partition.core_of.size() != instance.rt_tasks.size()) {
    return fail("RT partition shape mismatch");
  }
  for (const std::size_t c : allocation.rt_partition.core_of) {
    if (c >= instance.num_cores) return fail("RT partition shape mismatch");
  }

  for (std::size_t c = 0; c < instance.num_cores; ++c) {
    if (!core_schedulable_rm(tasks_on_core(instance.rt_tasks, allocation.rt_partition, c))) {
      return fail("RT tasks on core " + std::to_string(c) + " are not RM-schedulable");
    }
  }

  const auto& sec = instance.security_tasks;
  const auto rank = rt::rank_of(rt::resolve_security_order(sec, priority_order));

  for (std::size_t s = 0; s < sec.size(); ++s) {
    const auto& task = sec[s];
    const auto& place = allocation.placements[s];
    if (place.core >= instance.num_cores) {
      return fail("task '" + task.name + "' placed on nonexistent core");
    }
    if (!util::leq_tol(task.period_des, place.period) ||
        !util::leq_tol(place.period, task.period_max)) {
      return fail("task '" + task.name + "' period outside [Tdes, Tmax]");
    }
    if (!util::approx_equal(place.tightness, task.period_des / place.period, 1e-9, 1e-9)) {
      return fail("task '" + task.name + "' reports inconsistent tightness");
    }

    std::vector<rt::RtTask> local_rt;
    for (std::size_t r = 0; r < instance.rt_tasks.size(); ++r) {
      if (allocation.rt_partition.core_of[r] == place.core) {
        local_rt.push_back(instance.rt_tasks[r]);
      }
    }
    std::vector<rt::PlacedSecurityTask> local_hp;
    for (std::size_t h = 0; h < sec.size(); ++h) {
      if (h == s || allocation.placements[h].core != place.core) continue;
      if (rank[h] >= rank[s]) continue;
      local_hp.push_back(rt::PlacedSecurityTask{sec[h].wcet, allocation.placements[h].period});
    }

    if (test == core::ScheduleTest::kLinearBound) {
      double demand = task.wcet;
      for (const auto& rt_task : local_rt) {
        demand += (1.0 + place.period / rt_task.period) * rt_task.wcet;
      }
      for (const auto& hp : local_hp) {
        demand += (1.0 + place.period / hp.period) * hp.wcet;
      }
      if (!util::leq_tol(demand, place.period, 1e-4)) {
        return fail("task '" + task.name + "' violates Eq. (6): demand " +
                    std::to_string(demand) + " > period " + std::to_string(place.period));
      }
    } else if (!security_response_time(task, place.period, local_rt, local_hp).has_value()) {
      return fail("task '" + task.name + "' misses its deadline under exact RTA");
    }
  }
  return core::ValidationReport{true, {}};
}

}  // namespace hydra::oracle
