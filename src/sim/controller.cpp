#include "sim/controller.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/contracts.h"

namespace hydra::sim {

void ModeControllerConfig::validate() const {
  const auto in_unit = [](double v) {
    return std::isfinite(v) && v >= 0.0 && v <= 1.0;
  };
  HYDRA_REQUIRE(in_unit(tighten_threshold),
                "tighten_threshold must be finite and in [0, 1] (the idle "
                "fraction is a ratio; got " + std::to_string(tighten_threshold) +
                    ", which could never fire)");
  HYDRA_REQUIRE(in_unit(relax_threshold),
                "relax_threshold must be finite and in [0, 1] (got " +
                    std::to_string(relax_threshold) + ")");
  HYDRA_REQUIRE(relax_threshold < tighten_threshold,
                "hysteresis requires relax_threshold < tighten_threshold");
  HYDRA_REQUIRE(switch_budget >= 1,
                "switch_budget must be >= 1 — a zero budget is a controller "
                "that can never act; select the never-switch policy instead");
  HYDRA_REQUIRE(num_levels >= 2, "a mode table needs at least 2 levels");
  HYDRA_REQUIRE(num_levels <= 64, "num_levels > 64 is almost surely a typo");
}

void ControllerPolicy::on_detection(std::size_t task, util::SimTime at) {
  (void)task;
  (void)at;
}

namespace {

/// The incumbent two-point rule, generalized verbatim to a ladder: a task at
/// minimum mode jumps straight to the fastest level when idle reaches the
/// tighten threshold; a task anywhere above minimum falls straight back when
/// idle drops to the relax threshold.  For the 2-level default this is
/// byte-identical to the pre-registry controller.
class HysteresisPolicy : public ControllerPolicy {
 public:
  explicit HysteresisPolicy(const ModeControllerConfig& config, std::string name)
      : name_(std::move(name)), config_(config) {}

  const std::string& name() const override { return name_; }

  std::size_t decide(std::size_t /*task*/, const LevelObservation& obs) override {
    if (obs.current_level > 0) {
      return obs.idle_fraction <= config_.relax_threshold ? 0 : obs.current_level;
    }
    return obs.idle_fraction >= config_.tighten_threshold ? obs.top_level : 0;
  }

 private:
  std::string name_;
  ModeControllerConfig config_;
};

/// The same band, one rung at a time: idle >= tighten steps one level up,
/// idle <= relax steps one level down.  Intermediate levels exist exactly for
/// this policy (and for boost's decay).
class NLevelHysteresisPolicy : public ControllerPolicy {
 public:
  explicit NLevelHysteresisPolicy(const ModeControllerConfig& config, std::string name)
      : name_(std::move(name)), config_(config) {}

  const std::string& name() const override { return name_; }

  std::size_t decide(std::size_t /*task*/, const LevelObservation& obs) override {
    if (obs.current_level < obs.top_level &&
        obs.idle_fraction >= config_.tighten_threshold) {
      return obs.current_level + 1;
    }
    if (obs.current_level > 0 && obs.idle_fraction <= config_.relax_threshold) {
      return obs.current_level - 1;
    }
    return obs.current_level;
  }

 private:
  std::string name_;
  ModeControllerConfig config_;
};

/// Inert baseline: every monitor stays wherever it starts (minimum mode).
/// Job-for-job identical to the static engine on the minimum-mode task list
/// (pinned in test_mode_switch).
class NeverSwitchPolicy : public ControllerPolicy {
 public:
  explicit NeverSwitchPolicy(std::string name) : name_(std::move(name)) {}
  const std::string& name() const override { return name_; }
  std::size_t decide(std::size_t /*task*/, const LevelObservation& obs) override {
    return obs.current_level;
  }

 private:
  std::string name_;
};

/// Contego-style attack-triggered boosting: slack-driven behaviour is
/// hysteresis/nlevel, but a detection event pins the affected monitor at its
/// fastest level for `boost_window` ticks (auto: the core's resolved slack
/// window).  After the window expires the monitor decays one level per
/// release boundary until it meets what the slack rule wants.  Boost
/// transitions ride the same dwell/budget machinery as every other switch —
/// denials are counted, never silent.
class BoostPolicy : public ControllerPolicy {
 public:
  BoostPolicy(const ModeControllerConfig& config, const PolicyInit& init,
              std::string name)
      : name_(std::move(name)),
        config_(config),
        boost_window_(config.boost_window > 0 ? config.boost_window
                                              : init.slack_window),
        boost_until_(init.num_tasks, 0) {}

  const std::string& name() const override { return name_; }

  std::size_t decide(std::size_t task, const LevelObservation& obs) override {
    if (obs.now < boost_until_[task]) return obs.top_level;
    std::size_t slack_wants = obs.current_level;
    if (obs.current_level < obs.top_level &&
        obs.idle_fraction >= config_.tighten_threshold) {
      slack_wants = obs.current_level + 1;
    } else if (obs.current_level > 0 &&
               obs.idle_fraction <= config_.relax_threshold) {
      slack_wants = obs.current_level - 1;
    }
    // Decay from an expired boost one rung at a time, but never below what
    // the slack rule would grant anyway.
    if (obs.current_level > slack_wants) return obs.current_level - 1;
    return slack_wants;
  }

  void on_detection(std::size_t task, util::SimTime at) override {
    boost_until_[task] = at + boost_window_;
  }

 private:
  std::string name_;
  ModeControllerConfig config_;
  util::SimTime boost_window_;
  std::vector<util::SimTime> boost_until_;
};

ControllerRegistry build_global() {
  ControllerRegistry r("controller policy",
                       [](ControllerPolicy&, const std::string&,
                          const ModeControllerConfig& config,
                          const PolicyInit&) { config.validate(); });
  r.add("hysteresis",
        "Incumbent sliding-window rule: jump to the fastest level when idle "
        "reaches tighten_threshold, fall back to minimum mode at "
        "relax_threshold (the default).",
        [](const ModeControllerConfig& config, const PolicyInit&) {
          return std::make_unique<HysteresisPolicy>(config, "hysteresis");
        });
  r.add("hysteresis/nlevel",
        "Same hysteresis band, one mode-table level at a time: tighten one "
        "rung on idle >= tighten_threshold, loosen one rung at "
        "relax_threshold.",
        [](const ModeControllerConfig& config, const PolicyInit&) {
          return std::make_unique<NLevelHysteresisPolicy>(config,
                                                          "hysteresis/nlevel");
        });
  r.add(kInertControllerPolicy,
        "Inert baseline: every monitor stays in minimum mode, job-for-job "
        "identical to the static engine on the minimum-mode task list.",
        [](const ModeControllerConfig&, const PolicyInit&) {
          return std::make_unique<NeverSwitchPolicy>(kInertControllerPolicy);
        });
  r.add("boost",
        "Attack-triggered boosting (Contego): a detection event pins the "
        "affected monitor at its fastest level for boost_window ticks, then "
        "decays level-by-level toward the hysteresis/nlevel target.",
        [](const ModeControllerConfig& config, const PolicyInit& init) {
          return std::make_unique<BoostPolicy>(config, init, "boost");
        });
  return r;
}

}  // namespace

const std::string& resolve_policy(const std::string& configured) {
  if (!configured.empty()) return configured;
  static const std::string kDefault = kDefaultControllerPolicy;
  return kDefault;
}

bool is_inert_policy(const std::string& policy) {
  return resolve_policy(policy) == kInertControllerPolicy;
}

}  // namespace hydra::sim

template <>
hydra::sim::ControllerRegistry& hydra::sim::ControllerRegistry::global() {
  static Registry registry = sim::build_global();
  return registry;
}
