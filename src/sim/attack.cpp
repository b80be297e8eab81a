#include "sim/attack.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "core/mode_table.h"
#include "rt/priority.h"
#include "sim/global_slack.h"
#include "sim/mode_switch.h"
#include "sim/slack_profile.h"
#include "util/contracts.h"

namespace hydra::sim {

std::vector<SimTask> build_sim_tasks(
    const core::Instance& instance, const core::Allocation& allocation,
    const std::optional<std::vector<std::size_t>>& security_priority_order) {
  HYDRA_REQUIRE(allocation.feasible, "allocation must be feasible to simulate");
  instance.validate();

  std::vector<SimTask> tasks;
  tasks.reserve(instance.rt_tasks.size() + instance.security_tasks.size());

  // RT tasks: rate-monotonic priorities 0..NR−1 (distinct via rank).
  const auto rt_rank = rt::rank_of(rt::rm_priority_order(instance.rt_tasks));
  for (std::size_t i = 0; i < instance.rt_tasks.size(); ++i) {
    const auto& t = instance.rt_tasks[i];
    SimTask st;
    st.name = t.name;
    st.wcet = util::to_ticks(t.wcet);
    st.period = util::to_ticks(t.period);
    st.deadline = util::to_ticks(t.deadline);
    st.core = allocation.rt_partition.core_of[i];
    st.priority = static_cast<int>(rt_rank[i]);
    tasks.push_back(std::move(st));
  }

  // Security tasks: strictly below every RT task, ordered by ascending Tmax
  // (or the caller's chain-consistent override).
  const int security_base = static_cast<int>(instance.rt_tasks.size());
  const auto sec_rank = rt::rank_of(
      rt::resolve_security_order(instance.security_tasks, security_priority_order));
  for (std::size_t s = 0; s < instance.security_tasks.size(); ++s) {
    const auto& t = instance.security_tasks[s];
    const auto& place = allocation.placements[s];
    SimTask st;
    st.name = t.name;
    st.wcet = util::to_ticks(t.wcet);
    // Round the assigned period *up* to a whole tick: a longer period only
    // reduces demand, so analysis feasibility is preserved.
    st.period = std::max<util::SimTime>(util::to_ticks_ceil(place.period), st.wcet);
    st.deadline = st.period;
    st.core = place.core;
    st.priority = security_base + static_cast<int>(sec_rank[s]);
    tasks.push_back(std::move(st));
  }
  return tasks;
}

AttackPlan::AttackPlan(std::vector<AttackTrial> trials)
    : trials_(std::move(trials)), order_(trials_.size()) {
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  std::stable_sort(order_.begin(), order_.end(), [this](std::size_t a, std::size_t b) {
    return trials_[a].at < trials_[b].at;
  });
}

std::vector<util::SimTime> AttackPlan::sorted_times() const {
  std::vector<util::SimTime> times;
  times.reserve(order_.size());
  for (const std::size_t i : order_) times.push_back(trials_[i].at);
  return times;
}

AttackPlan plan_attacks(const std::vector<SimTask>& tasks, std::size_t nr,
                        std::size_t ns, const DetectionConfig& config) {
  HYDRA_REQUIRE(config.trials > 0, "need at least one trial");
  HYDRA_REQUIRE(ns > 0, "detection experiment needs at least one security task");

  util::Xoshiro256 rng(config.seed);
  // Leave the tail of the horizon for detection to complete; the slowest
  // monitor needs up to ~2 periods.
  util::SimTime latest_attack = config.horizon;
  for (std::size_t s = 0; s < ns; ++s) {
    const util::SimTime span = 3 * tasks[nr + s].period;
    latest_attack = std::min(latest_attack,
                             config.horizon > span ? config.horizon - span : util::SimTime{0});
  }
  HYDRA_REQUIRE(latest_attack > 0, "horizon too short for the security periods");

  std::vector<AttackTrial> trials;
  trials.reserve(config.trials);
  for (std::size_t trial = 0; trial < config.trials; ++trial) {
    // Per-trial draw order (instant, then victim) is the historical
    // sample_attacks order — a fixed seed plans the attacks it always did.
    AttackTrial t;
    t.at = rng.uniform_int(0, latest_attack - 1);
    if (config.scope == AttackScope::kSingleTask) {
      t.victim = static_cast<std::size_t>(rng.uniform_int(0, ns - 1));
    }
    trials.push_back(t);
  }
  return AttackPlan(std::move(trials));
}

DetectionResult detect_planned_attacks(const Trace& trace, std::size_t nr,
                                       std::size_t ns, const DetectionConfig& config,
                                       const AttackPlan& plan) {
  HYDRA_REQUIRE(ns > 0, "detection experiment needs at least one security task");
  HYDRA_REQUIRE(nr + ns <= trace.jobs.size(), "task index out of range");
  const std::vector<AttackTrial>& trials = plan.trials();
  const bool single = config.scope == AttackScope::kSingleTask;
  if (single) {
    for (const AttackTrial& trial : trials) {
      HYDRA_REQUIRE(trial.victim < ns, "attack victim is not a monitor");
    }
  }

  // Per trial, the latest detecting completion over the monitors it needs;
  // kUndetected once one of them never detects it.
  constexpr util::SimTime kUndetected = std::numeric_limits<util::SimTime>::max();
  std::vector<util::SimTime> detected_at(trials.size(), 0);
  for (std::size_t s = 0; s < ns; ++s) {
    // Both cursors only move forward as the instants ascend: `fresh` is the
    // first job released at or after the instant, `scan` the first
    // completed job from `fresh` on (jobs.size() when there is none).
    const std::vector<JobRecord>& jobs = trace.jobs[nr + s];
    std::size_t fresh = 0;
    std::size_t scan = 0;
    for (const std::size_t i : plan.order()) {
      if (single && trials[i].victim != s) continue;
      while (fresh < jobs.size() && jobs[fresh].release < trials[i].at) ++fresh;
      scan = std::max(scan, fresh);
      while (scan < jobs.size() && !jobs[scan].completed) ++scan;
      detected_at[i] = std::max(
          detected_at[i], scan < jobs.size() ? jobs[scan].completion : kUndetected);
    }
  }

  DetectionResult result;
  result.deadline_misses = trace.deadline_misses();
  for (std::size_t i = 0; i < trials.size(); ++i) {
    if (detected_at[i] == kUndetected) {
      ++result.undetected;
    } else {
      result.detection_ms.push_back(util::to_millis(detected_at[i] - trials[i].at));
    }
  }
  return result;
}

DetectionResult sample_attacks(const Trace& trace, const std::vector<SimTask>& tasks,
                               std::size_t nr, std::size_t ns, const DetectionConfig& config) {
  return detect_planned_attacks(trace, nr, ns, config,
                                plan_attacks(tasks, nr, ns, config));
}

DetectionResult measure_detection_times(const core::Instance& instance,
                                        const core::Allocation& allocation,
                                        const DetectionConfig& config,
                                        RtSlackProfileCache* profiles) {
  const std::vector<SimTask> tasks = build_sim_tasks(instance, allocation);
  // Planned before simulating, as measure_detection_times_adaptive does, so
  // both fail their checks in one order: the inert policy family reports
  // the minimum-mode run of this function as its adaptive run.
  const AttackPlan plan =
      plan_attacks(tasks, instance.rt_tasks.size(), instance.security_tasks.size(), config);
  ModeSwitchOptions sim_options;
  sim_options.horizon = config.horizon;
  // Fixed-rate tasks consult no policy; naming the inert one says so.
  sim_options.controller.policy = kInertControllerPolicy;
  RtSlackProfileCache own;
  const ModeSwitchResult run =
      simulate_mode_band(fixed_rate_tasks(tasks), instance.rt_tasks.size(), sim_options,
                         profiles != nullptr ? *profiles : own);
  return detect_planned_attacks(run.trace, instance.rt_tasks.size(),
                                instance.security_tasks.size(), config, plan);
}

DetectionResult measure_detection_times_global(const core::Instance& instance,
                                               const core::Allocation& allocation,
                                               const DetectionConfig& config,
                                               RtSlackProfileCache* profiles) {
  const std::vector<SimTask> tasks = build_sim_tasks(instance, allocation);
  std::vector<GlobalSimTask> global_tasks;
  global_tasks.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    global_tasks.push_back(GlobalSimTask{tasks[i], /*global_band=*/i >= instance.rt_tasks.size()});
  }
  GlobalSimOptions sim_options;
  sim_options.horizon = config.horizon;
  sim_options.num_cores = instance.num_cores;
  RtSlackProfileCache own;
  const Trace trace = simulate_global_band(global_tasks, sim_options,
                                           profiles != nullptr ? *profiles : own);
  return sample_attacks(trace, tasks, instance.rt_tasks.size(),
                        instance.security_tasks.size(), config);
}

AdaptiveDetectionResult measure_detection_times_adaptive(
    const core::Instance& instance, const core::Allocation& allocation,
    const DetectionConfig& config, const ModeControllerConfig& controller,
    RtSlackProfileCache* profiles) {
  controller.validate();
  const core::ModeTable table =
      core::build_mode_table(instance, allocation, controller.num_levels);
  const std::vector<ModeTask> mode_tasks = build_mode_tasks(instance, allocation, table);

  // Size the attack window from the minimum-mode periods — the loosest rate
  // the monitors can ever fall back to, so detection has room to complete no
  // matter what the controller decided near the end of the horizon.
  std::vector<SimTask> window_tasks;
  window_tasks.reserve(mode_tasks.size());
  for (const auto& mt : mode_tasks) window_tasks.push_back(mt.task);

  // Plan the attacks BEFORE simulating and inject them as detection events,
  // so an attack-reactive policy (boost) sees exactly the attacks the
  // measurement will score.  Policies that ignore detections produce the
  // trace the un-injected engine would — injection touches no RNG stream.
  const AttackPlan plan = plan_attacks(window_tasks, instance.rt_tasks.size(),
                                       instance.security_tasks.size(), config);

  ModeSwitchOptions sim_options;
  sim_options.horizon = config.horizon;
  sim_options.seed = config.seed;
  sim_options.controller = controller;
  sim_options.attack_times = plan.sorted_times();
  RtSlackProfileCache own;
  ModeSwitchResult run = simulate_mode_band(mode_tasks, instance.rt_tasks.size(), sim_options,
                                            profiles != nullptr ? *profiles : own);

  AdaptiveDetectionResult result;
  result.detection = detect_planned_attacks(run.trace, instance.rt_tasks.size(),
                                            instance.security_tasks.size(), config, plan);
  result.modes = std::move(run.stats);
  const std::size_t nr = instance.rt_tasks.size();
  for (std::size_t s = 0; s < instance.security_tasks.size(); ++s) {
    if (mode_tasks[nr + s].switchable()) result.switchable_tasks.push_back(nr + s);
  }
  return result;
}

}  // namespace hydra::sim
