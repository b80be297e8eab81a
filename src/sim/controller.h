// Runtime controller policies and their registry (a util::Registry, like
// core::AllocatorRegistry and gp::SolverRegistry): CLI flags like
// `--policies hysteresis,boost` and SweepSpec::controller_policy pick the
// decision rule the mode-switching engine (sim/mode_switch.h) runs each
// monitor through, without compiling against policy internals.
//
// The global registry ships four policies:
//
//     hysteresis          the incumbent two-point rule: jump to the fastest
//                         level when idle >= tighten_threshold, fall back to
//                         minimum mode when idle <= relax_threshold (default)
//     hysteresis/nlevel   the same band, one level at a time: tighten one
//                         step on idle >= tighten, loosen one step on
//                         idle <= relax — the N-level generalization
//     never-switch        inert baseline: every monitor stays in minimum
//                         mode, job-for-job identical to the static engine
//     boost               attack-triggered (Contego): a detection event
//                         pins the affected monitor at its fastest level for
//                         `boost_window` ticks, after which it decays back
//                         level-by-level toward what hysteresis/nlevel wants
//
// Registered names are stable identifiers: SweepSpec::controller_policy is
// stamped into sweep_fingerprint, so rows simulated under different policies
// disagree loudly.  Policy selection resolves explicit config > the
// thread-local ControllerScope > kDefaultControllerPolicy, exactly like
// gp::resolve_gp_backend.  docs/controller-catalog.md is the generated
// catalog of this registry; the authoring path is documented in
// docs/architecture.md ("Runtime adaptation").
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "util/registry.h"
#include "util/thread_scope.h"
#include "util/units.h"

namespace hydra::sim {

/// The policy every call site uses when neither a config field nor a
/// ControllerScope names one.  Keeping this the incumbent rule preserves
/// byte-identical fig5 rows across the registry refactor (tested).
inline constexpr const char* kDefaultControllerPolicy = "hysteresis";

/// Controller knobs, shared by every core's controller instance.  Validated
/// by validate() at simulate_mode_switching entry AND at every construction
/// seam (ControllerRegistry::make, exp::adaptive_detection_metrics), so an
/// impossible configuration — a threshold the idle fraction can never reach,
/// a zero switch budget — fails loudly instead of yielding a controller that
/// silently never switches.
struct ModeControllerConfig {
  /// ControllerRegistry policy name; "" resolves via the ambient
  /// ControllerScope, else kDefaultControllerPolicy.
  std::string policy;
  /// Sliding slack-window length; the idle fraction is measured over
  /// [t − window, t] at decision instant t.  0 = auto: per core, 4× the
  /// largest minimum-mode period among its switchable tasks.
  util::SimTime slack_window = 0;
  /// Idle fraction at/above which a task tightens.  Must be finite and in
  /// [0, 1] — the idle fraction is a ratio, so anything outside that range
  /// (e.g. 2.0) is a configuration that can never fire, not a policy.
  double tighten_threshold = 0.25;
  /// Idle fraction at/below which a task loosens.  Finite, in [0, 1], and
  /// strictly below tighten_threshold (the gap is the hysteresis band).
  double relax_threshold = 0.05;
  /// Minimum ticks between two committed switches of the same task; a
  /// decision denied by the dwell is counted in ModeStats::denied_dwell.
  /// 0 = auto: the task's own minimum-mode period.  Interacts with
  /// slack_window: a dwell much shorter than the window commits switches
  /// faster than the observation that justified them can leave the window,
  /// which is what the hysteresis band is for — the band, not the dwell, is
  /// the thrash guard; the dwell only rate-limits.
  util::SimTime min_dwell = 0;
  /// Maximum committed switches per task over the whole run; once spent, the
  /// task stays in its current mode and further decisions are counted in
  /// ModeStats::denied_budget.  Must be >= 1: a zero budget is a controller
  /// that can never act — use the `never-switch` policy to say that loudly.
  std::size_t switch_budget = std::numeric_limits<std::size_t>::max();
  /// Mode-table levels per monitor (minimum mode and the fastest committed
  /// level included), >= 2.  2 is the incumbent {min, adapted} pair; larger
  /// values interpolate geometrically (core/mode_table.h).  Consumed by the
  /// seams that build mode tables from this config
  /// (sim::measure_detection_times_adaptive, exp::adaptive_detection_metrics).
  std::size_t num_levels = 2;
  /// How long a detection event pins a boosted monitor at its fastest level
  /// (the `boost` policy's dwell window).  0 = auto: the resolved slack
  /// window of the monitor's core.
  util::SimTime boost_window = 0;

  /// Throws std::invalid_argument when any knob is out of range (non-finite
  /// or out-of-[0,1] thresholds, relax >= tighten, zero switch budget,
  /// num_levels < 2 or > 64).  Does NOT resolve the policy name — that needs
  /// the registry, and happens wherever a policy is constructed.
  void validate() const;
};

/// What a policy sees at one task's release boundary.  Levels are mode-table
/// ladder indices: 0 = minimum mode (slowest), `top_level` = the fastest
/// analysis-feasible level.
struct LevelObservation {
  util::SimTime now = 0;          ///< the release boundary (decision instant)
  double idle_fraction = 0.0;     ///< over the slack window ending at now
  std::size_t current_level = 0;  ///< the task's committed level
  std::size_t top_level = 0;      ///< fastest level index (num_levels - 1)
};

/// One core's decision rule.  Instantiated per core (policies hold per-task
/// state and cores are simulated independently); decisions must be pure
/// functions of the observations and detection events delivered on that core,
/// so a fixed seed replays the level stream byte-for-byte.
class ControllerPolicy {
 public:
  virtual ~ControllerPolicy() = default;

  /// The registered name.
  virtual const std::string& name() const = 0;

  /// Desired level for `task` at a release boundary.  The engine REQUIREs
  /// the result <= obs.top_level (a policy may never exceed the
  /// analysis-feasible fastest level), then applies the dwell / budget
  /// machinery before committing.
  virtual std::size_t decide(std::size_t task, const LevelObservation& obs) = 0;

  /// Detection event: switchable monitor `task` completed the first fresh
  /// scan after an injected attack, at time `at`.  Default: ignore.
  virtual void on_detection(std::size_t task, util::SimTime at);
};

/// Construction-time context a policy factory receives beside the config.
struct PolicyInit {
  std::size_t num_tasks = 0;        ///< global task count (state vector size)
  util::SimTime slack_window = 1;   ///< the core's RESOLVED slack window
};

/// Policy registry; `make(name, config, init)` validates `config` (throwing
/// std::invalid_argument) before returning the policy.
using ControllerRegistry =
    util::Registry<ControllerPolicy, const ModeControllerConfig&, const PolicyInit&>;

/// RAII thread-local policy selection (util::ThreadScope): scopes nest
/// innermost-wins, and call sites whose config carries no policy name
/// resolve the ambient policy through `current()`.  The sweep layer installs
/// one per unit from SweepSpec::controller_policy; an empty policy string
/// re-selects the default.
class ControllerScope : public util::ThreadScope<std::string, ControllerScope> {
 public:
  explicit ControllerScope(std::string policy)
      : ThreadScope(policy.empty() ? kDefaultControllerPolicy : std::move(policy)) {}
};

/// Resolves which policy a call site should use: an explicitly configured
/// non-empty `configured` name wins, else the innermost ControllerScope, else
/// kDefaultControllerPolicy.
const std::string& resolve_controller_policy(const std::string& configured);

/// Everything docs/controller-catalog.md holds above the policy rows; render
/// the catalog with util::catalog_markdown(ControllerRegistry::global(), this).
extern const char kControllerCatalogPreamble[];

}  // namespace hydra::sim

template <>
hydra::sim::ControllerRegistry& hydra::sim::ControllerRegistry::global();
