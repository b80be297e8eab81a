// Attack injection and intrusion-detection-time measurement (paper §IV-A).
//
// Mirrors the paper's experiment: observe the schedule for a long window,
// trigger a synthetic attack at a uniformly random time, and measure how long
// until the security tasks detect it.  As in the paper, detection capability
// is assumed perfect (no false positives/negatives) — the experiment isolates
// the *scheduling* contribution to detection latency: an attack at time t is
// detected when the first monitoring job that *starts a fresh scan after t*
// completes.  Ties go to the monitor: a job released exactly at the attack
// instant starts a fresh scan and detects it.
#pragma once

#include <cstdint>
#include <vector>

#include "core/instance.h"
#include "sim/mode_switch.h"
#include "sim/task.h"
#include "util/rng.h"

namespace hydra::sim {

/// What one synthetic attack touches.
enum class AttackScope {
  /// The attack corrupts one uniformly chosen monitored surface; detection is
  /// by that surface's security task alone.
  kSingleTask,
  /// The attack corrupts every monitored surface (the paper's "corrupts the
  /// file system and network packets"); full detection completes when the
  /// last security task has re-scanned — the *worst-case* detection time.
  kAllTasks,
};

struct DetectionConfig {
  util::SimTime horizon = 500u * 1000u * util::kTicksPerMilli;  ///< paper: 500 s
  std::size_t trials = 500;
  std::uint64_t seed = 1;
  AttackScope scope = AttackScope::kAllTasks;
};

struct DetectionResult {
  std::vector<double> detection_ms;  ///< one sample per detected attack
  std::size_t undetected = 0;        ///< attacks with no completing scan in-horizon
  std::size_t deadline_misses = 0;   ///< sanity: 0 for a valid allocation
};

/// Builds the fully resolved simulator task list for an instance + feasible
/// allocation: RT tasks at RM priorities on their partitioned cores, security
/// tasks below all RT tasks at their assigned (core, period).
/// `security_priority_order` must match the order the allocator used (absent
/// = the paper's ascending-Tmax rule).
std::vector<SimTask> build_sim_tasks(
    const core::Instance& instance, const core::Allocation& allocation,
    const std::optional<std::vector<std::size_t>>& security_priority_order = std::nullopt);

class RtSlackProfileCache;

/// Runs the schedule once and samples `trials` attacks at uniformly random
/// times.  Requires a feasible allocation.  The monitors run as fixed-rate
/// tasks in the band engine (sim::simulate_mode_band) on the RT slack
/// profile `profiles` supplies — one RT profile per (RT task set,
/// horizon), shared with the other measure_* calls given the same cache
/// (nullptr: a private one).  Results are those of sim::simulate on
/// build_sim_tasks, job for job: both run fixed_rate_tasks of that list.
DetectionResult measure_detection_times(const core::Instance& instance,
                                        const core::Allocation& allocation,
                                        const DetectionConfig& config,
                                        RtSlackProfileCache* profiles = nullptr);

/// Same experiment under global slack scheduling (paper §V): the security
/// tasks keep the allocation's periods but their jobs may run on ANY core's
/// idle slack (job-level migration).  The static core assignment is ignored.
/// Runs sim::simulate_global_band on the RT slack profile; test_slack_band
/// checks the results against the full global engine (tests/oracles).
DetectionResult measure_detection_times_global(const core::Instance& instance,
                                               const core::Allocation& allocation,
                                               const DetectionConfig& config,
                                               RtSlackProfileCache* profiles = nullptr);

/// One planned synthetic attack: the instant, plus the victim monitor index
/// (security-task index, meaningful only under AttackScope::kSingleTask).
struct AttackTrial {
  util::SimTime at = 0;
  std::size_t victim = 0;
};

/// The pre-drawn attack schedule of a detection experiment.  Splitting the
/// drawing (plan_attacks) from the reading-off (detect_planned_attacks) lets
/// the SAME attacks be injected into the mode-switching engine as detection
/// events (ModeSwitchOptions::attack_times) AND measured afterwards — the
/// seam the attack-triggered `boost` controller policy needs.  The draw order
/// is identical to the historical sample_attacks (per trial: instant, then
/// victim), so a fixed seed plans the same attacks it always sampled.
class AttackPlan {
 public:
  AttackPlan() = default;
  /// Keeps `trials` in draw order and sorts their indices by instant once.
  explicit AttackPlan(std::vector<AttackTrial> trials);

  /// The trials in draw order, the order detection results report them in.
  const std::vector<AttackTrial>& trials() const { return trials_; }

  /// Trial indices by ascending instant, equal instants in draw order: the
  /// order detect_planned_attacks walks a monitor's jobs in.
  const std::vector<std::size_t>& order() const { return order_; }

  /// The attack instants, ascending (duplicates kept) — the shape
  /// ModeSwitchOptions::attack_times wants.
  std::vector<util::SimTime> sorted_times() const;

 private:
  std::vector<AttackTrial> trials_;
  std::vector<std::size_t> order_;
};

/// Draws `config.trials` attacks uniformly over the horizon minus a detection
/// tail (3× each monitor's period, taken from `tasks` — for adaptive traces
/// pass the MINIMUM-mode list, the conservative window).  Pure function of
/// (tasks' periods, config).
AttackPlan plan_attacks(const std::vector<SimTask>& tasks, std::size_t num_rt,
                        std::size_t num_security, const DetectionConfig& config);

/// Reads a planned attack schedule off a completed trace: an attack at t is
/// detected by a monitor at the completion of its first completed job
/// released at or after t (worst case over all monitors under kAllTasks, the
/// planned victim alone under kSingleTask); a trial some monitor it needs
/// never detects is undetected.  Walks each monitor's jobs once, against
/// plan.order(), and reports detection_ms in draw order.  Throws
/// std::invalid_argument when the trace has no jobs list for some monitor
/// or a kSingleTask victim is not a monitor.
DetectionResult detect_planned_attacks(const Trace& trace, std::size_t num_rt,
                                       std::size_t num_security,
                                       const DetectionConfig& config,
                                       const AttackPlan& plan);

/// The attack-sampling pass the measure_* entry points share:
/// plan_attacks + detect_planned_attacks in one call, for traces that need no
/// injection.  `tasks` is the simulator task list the trace was produced from
/// (RT first, then security) — only used to size the attack window from the
/// security periods.  Exposed so custom runtime policies can reuse the
/// measurement protocol on their own traces.
DetectionResult sample_attacks(const Trace& trace, const std::vector<SimTask>& tasks,
                               std::size_t num_rt, std::size_t num_security,
                               const DetectionConfig& config);

/// Detection latency measured UNDER runtime adaptation rather than for a
/// frozen period vector: builds the mode table of the allocation
/// (minimum mode = Tmax, fastest mode = the committed periods,
/// `controller.num_levels` ladder rungs), plans the attacks FIRST, runs the
/// mode-switching engine with `controller` and the planned attack instants
/// injected as detection events, and reads the plan off the resulting trace.
/// Policies that ignore detections (everything but `boost`) produce the same
/// trace the un-injected engine would, so their results are unchanged; the
/// `boost` policy reacts to each attack and shortens the latency of the NEXT
/// one.  The attack window is sized from the minimum-mode periods, so every
/// trial also has a defined latency in the static minimum-mode baseline — the
/// comparison the dominance property test makes.  The mode-switching run is
/// sim::simulate_mode_band on the RT slack profile (results identical to
/// sim::simulate_mode_switching, ModeStats included).
struct AdaptiveDetectionResult {
  DetectionResult detection;
  ModeStats modes;  ///< indices are sim-task indices (security task s at NR+s)
  /// Sim-task indices of the monitors that can actually switch (mode-table
  /// headroom survived tick rounding) — the population mode-residency
  /// summaries should average over.
  std::vector<std::size_t> switchable_tasks;
};
AdaptiveDetectionResult measure_detection_times_adaptive(
    const core::Instance& instance, const core::Allocation& allocation,
    const DetectionConfig& config, const ModeControllerConfig& controller = {},
    RtSlackProfileCache* profiles = nullptr);

}  // namespace hydra::sim
