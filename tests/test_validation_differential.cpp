// Differential tests of the name-free RT partitioner and allocation
// validator against their named-task form in hydra_oracles (oracles/
// named_rt.h).  The production code reads rt::RtTiming records where the
// oracle copies rt::RtTask vectors; on every input below both must give the
// same core_of and the same ValidationReport, verdict and problem text.
//
// Inputs: the committed corpora; seeded draws at M = 2..8 along the fig2
// utilization axis with every cheap registered scheme's allocation, each
// also broken in the ways that reach every validator message; hand-built
// edge cases; and knife-edge cases found by bisecting one WCET down to the
// last double where the oracle's verdict turns, where a different summation
// order or a dropped interference term flips the production verdict.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <functional>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "core/registry.h"
#include "core/validation.h"
#include "exp/batch.h"
#include "exp/sweep.h"
#include "gen/synthetic.h"
#include "io/taskset_io.h"
#include "oracles/named_rt.h"
#include "rt/partition.h"
#include "rt/priority.h"
#include "util/rng.h"

namespace core = hydra::core;
namespace oracle = hydra::oracle;
namespace rt = hydra::rt;

namespace {

/// The schemes whose allocations feed the validator: every registered one
/// that needs no GP solve.
const std::vector<std::string> kSchemes{"hydra",   "hydra/exact-rta", "single-core",
                                        "contego", "period-adapt",    "util/worst-fit"};

/// A validation report, or the message of the exception the call threw.
struct Outcome {
  bool threw = false;
  bool valid = false;
  std::string text;

  bool operator==(const Outcome& o) const {
    return threw == o.threw && valid == o.valid && text == o.text;
  }
};

Outcome outcome_of(const std::function<core::ValidationReport()>& validate) {
  try {
    const auto report = validate();
    return Outcome{false, report.valid, report.problem};
  } catch (const std::exception& e) {
    return Outcome{true, false, e.what()};
  }
}

std::ostream& operator<<(std::ostream& os, const Outcome& o) {
  return os << (o.threw ? "threw: " : o.valid ? "valid" : "invalid: ") << o.text;
}

Outcome production_report(const core::Instance& instance, const core::Allocation& allocation,
                          const std::optional<std::vector<std::size_t>>& order,
                          core::ScheduleTest test) {
  return outcome_of([&] { return core::validate_allocation(instance, allocation, order, test); });
}

Outcome oracle_report(const core::Instance& instance, const core::Allocation& allocation,
                      const std::optional<std::vector<std::size_t>>& order,
                      core::ScheduleTest test) {
  return outcome_of(
      [&] { return oracle::named_validate_allocation(instance, allocation, order, test); });
}

/// A report's text with the task name dropped, cut before any number: the
/// kind of check that failed.
std::string kind_of(const std::string& text) {
  std::string kind = text;
  const auto open = kind.find('\'');
  if (open != std::string::npos) kind.erase(open, kind.find('\'', open + 1) - open + 1);
  const auto cut = std::find_if(kind.begin(), kind.end(),
                                [](char ch) { return ch == ':' || std::isdigit(ch); });
  return std::string(kind.begin(), cut);
}

/// Both schedule tests; returns the production outcomes seen.
std::vector<Outcome> expect_same_reports(const core::Instance& instance,
                                         const core::Allocation& allocation,
                                         const std::optional<std::vector<std::size_t>>& order,
                                         const std::string& what) {
  std::vector<Outcome> seen;
  for (const auto test : {core::ScheduleTest::kLinearBound, core::ScheduleTest::kExactRta}) {
    const Outcome expected = oracle_report(instance, allocation, order, test);
    const Outcome actual = production_report(instance, allocation, order, test);
    EXPECT_EQ(actual, expected)
        << what << (test == core::ScheduleTest::kExactRta ? " (exact)" : "");
    seen.push_back(actual);
  }
  return seen;
}

/// core_of, or {M} when no partition exists, or {M + 1, …} with the message
/// bytes when the call throws: one comparable value for either outcome.
std::vector<std::size_t> partition_key(const std::function<std::optional<rt::Partition>()>& run,
                                       std::size_t cores) {
  try {
    const auto p = run();
    if (!p.has_value()) return {cores};
    return p->core_of;
  } catch (const std::exception& e) {
    std::vector<std::size_t> key{cores + 1};
    for (const char ch : std::string(e.what())) key.push_back(static_cast<unsigned char>(ch));
    return key;
  }
}

std::vector<std::size_t> production_partition(const std::vector<rt::RtTask>& tasks,
                                              std::size_t cores) {
  return partition_key([&] { return rt::partition_rt_tasks(tasks, cores); }, cores);
}

std::vector<std::size_t> oracle_partition(const std::vector<rt::RtTask>& tasks,
                                          std::size_t cores) {
  return partition_key([&] { return oracle::named_best_fit_partition(tasks, cores); }, cores);
}

void expect_same_partition(const std::vector<rt::RtTask>& tasks, std::size_t cores,
                           const std::string& what) {
  EXPECT_EQ(production_partition(tasks, cores), oracle_partition(tasks, cores))
      << what << ", M = " << cores;
}

std::vector<core::Instance> corpus_instances() {
  std::vector<core::Instance> out;
  for (const char* dir : {"/tests/corpus", "/tests/corpus_controller", "/tests/corpus_sim"}) {
    for (const auto& file :
         hydra::exp::expand_workload_files(std::string(HYDRA_SOURCE_DIR) + dir)) {
      out.push_back(hydra::io::load_instance(file));
    }
  }
  return out;
}

/// One filtered draw per point of the fig2 utilization axis at M = 2..8.
std::vector<core::Instance> seeded_instances() {
  std::vector<core::Instance> out;
  for (std::size_t m = 2; m <= 8; ++m) {
    hydra::gen::SyntheticConfig config;
    config.num_cores = m;
    hydra::util::Xoshiro256 rng(7100 + m);
    for (const double u : hydra::exp::utilization_axis(m)) {
      if (auto drawn = hydra::gen::generate_filtered_instance(config, u, rng)) {
        out.push_back(std::move(drawn->instance));
      }
    }
  }
  return out;
}

/// `allocation` broken in each way the validator reports, paired with the
/// message prefix the break is meant to reach (the first failing check may
/// still be an earlier one; both reports are compared either way).
std::vector<std::pair<core::Allocation, std::string>> broken_allocations(
    const core::Instance& instance, const core::Allocation& allocation) {
  std::vector<std::pair<core::Allocation, std::string>> out;
  const std::size_t m = instance.num_cores;
  auto add = [&](const std::function<void(core::Allocation&)>& edit, const std::string& why) {
    core::Allocation copy = allocation;
    edit(copy);
    out.emplace_back(std::move(copy), why);
  };
  add([](core::Allocation& a) { a.feasible = false; }, "allocation is marked infeasible");
  if (!allocation.placements.empty()) {
    add([](core::Allocation& a) { a.placements.pop_back(); }, "placements do not cover");
  }
  add([](core::Allocation& a) { ++a.rt_partition.num_cores; }, "RT partition shape mismatch");
  if (!allocation.rt_partition.core_of.empty()) {
    add([](core::Allocation& a) { a.rt_partition.core_of.pop_back(); },
        "RT partition shape mismatch");
    add([m](core::Allocation& a) { a.rt_partition.core_of.back() = m; },
        "RT partition shape mismatch");
    add([](core::Allocation& a) {
          a.rt_partition.core_of.assign(a.rt_partition.core_of.size(), 0);
        },
        "are not RM-schedulable");
  }
  if (!allocation.placements.empty()) {
    add([m](core::Allocation& a) { a.placements.back().core = m; }, "placed on nonexistent core");
    add([&](core::Allocation& a) {
          a.placements.front().period = 2.0 * instance.security_tasks.front().period_max;
        },
        "period outside [Tdes, Tmax]");
    add([](core::Allocation& a) { a.placements.front().tightness *= 0.5; },
        "reports inconsistent tightness");
    add([&](core::Allocation& a) {
          for (std::size_t s = 0; s < a.placements.size(); ++s) {
            a.placements[s] = core::TaskPlacement{0, instance.security_tasks[s].period_des, 1.0};
          }
        },
        "violates Eq. (6) / misses its deadline");
  }
  return out;
}

/// The positive doubles in [lo, hi] ordered as their bit patterns are.
std::uint64_t bits_of(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

double double_of(std::uint64_t b) {
  double x = 0.0;
  std::memcpy(&x, &b, sizeof x);
  return x;
}

/// Adjacent positive doubles x < y in [lo, hi] with key(x) == key(lo) and
/// key(y) != key(lo), by bisection over the bit patterns; nullopt when
/// key(lo) == key(hi).
template <typename Key>
std::optional<std::pair<double, double>> turning_point(double lo, double hi,
                                                       const std::function<Key(double)>& key) {
  const Key at_lo = key(lo);
  if (key(hi) == at_lo) return std::nullopt;
  std::uint64_t a = bits_of(lo);
  std::uint64_t b = bits_of(hi);
  while (b - a > 1) {
    const std::uint64_t mid = a + (b - a) / 2;
    if (key(double_of(mid)) == at_lo) {
      a = mid;
    } else {
      b = mid;
    }
  }
  return std::make_pair(double_of(a), double_of(b));
}

core::Allocation allocate(const std::string& scheme, const core::Instance& instance) {
  return core::AllocatorRegistry::global().make(scheme)->allocate(instance);
}

}  // namespace

TEST(NamedRtDifferential, CorpusPartitionsAndReportsMatch) {
  const auto instances = corpus_instances();
  ASSERT_GE(instances.size(), 10u);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const auto& instance = instances[i];
    const std::string what = "corpus instance " + std::to_string(i);
    for (std::size_t m = 1; m <= instance.num_cores; ++m) {
      expect_same_partition(instance.rt_tasks, m, what);
    }
    for (const auto& name : kSchemes) {
      const auto scheme = core::AllocatorRegistry::global().make(name);
      const auto allocation = scheme->allocate(instance);
      expect_same_reports(instance, allocation, scheme->priority_order(), what + ", " + name);
      for (const auto& [broken, why] : broken_allocations(instance, allocation)) {
        expect_same_reports(instance, broken, std::nullopt, what + ", " + name + ", " + why);
      }
    }
  }
}

TEST(NamedRtDifferential, SeededDrawsAlongTheFig2AxisMatch) {
  const auto instances = seeded_instances();
  ASSERT_GE(instances.size(), 200u);
  std::set<std::string> messages;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const auto& instance = instances[i];
    const std::size_t m = instance.num_cores;
    const std::string what = "draw " + std::to_string(i) + " (M = " + std::to_string(m) + ")";
    expect_same_partition(instance.rt_tasks, m, what);
    expect_same_partition(instance.rt_tasks, m - 1, what);
    for (const auto& scheme : kSchemes) {
      const auto allocation = allocate(scheme, instance);
      if (!allocation.feasible) continue;
      // The paper's order, and its reverse as an override.
      auto reversed = rt::security_priority_order(instance.security_tasks);
      std::reverse(reversed.begin(), reversed.end());
      for (const auto& order : std::vector<std::optional<std::vector<std::size_t>>>{
               std::nullopt, reversed}) {
        const auto seen = expect_same_reports(instance, allocation, order, what + ", " + scheme);
        for (const auto& o : seen) messages.insert(kind_of(o.text));
      }
      for (const auto& [broken, why] : broken_allocations(instance, allocation)) {
        for (const auto& o : expect_same_reports(instance, broken, std::nullopt,
                                                 what + ", " + scheme + ", " + why)) {
          messages.insert(kind_of(o.text));
        }
      }
    }
  }
  // The valid report and all nine kinds of failure.
  EXPECT_EQ(messages.size(), 10u) << ::testing::PrintToString(messages);
}

TEST(NamedRtDifferential, EveryValidatorMessageIsReachedAndMatches) {
  // One RT task per core at U = 0.5, one monitor per core: a valid base that
  // each edit below breaks in exactly one way.
  core::Instance instance;
  instance.num_cores = 2;
  instance.rt_tasks = {rt::make_rt_task("r0", 5.0, 10.0), rt::make_rt_task("r1", 6.0, 10.0)};
  instance.security_tasks = {rt::make_security_task("s0", 100.0, 1000.0, 10000.0),
                             rt::make_security_task("s1", 400.0, 1000.0, 10000.0)};
  core::Allocation base;
  base.feasible = true;
  base.rt_partition.num_cores = 2;
  base.rt_partition.core_of = {0, 1};
  base.placements = {core::TaskPlacement{0, 2000.0, 0.5}, core::TaskPlacement{1, 2000.0, 0.5}};
  ASSERT_TRUE(core::validate_allocation(instance, base).valid);

  const std::vector<std::pair<std::function<void(core::Allocation&)>, std::string>> cases{
      {[](core::Allocation& a) { a.feasible = false; }, "allocation is marked infeasible"},
      {[](core::Allocation& a) { a.placements.pop_back(); },
       "placements do not cover the security task set"},
      {[](core::Allocation& a) { a.rt_partition.num_cores = 3; }, "RT partition shape mismatch"},
      {[](core::Allocation& a) { a.rt_partition.core_of = {0, 2}; },
       "RT partition shape mismatch"},
      {[](core::Allocation& a) { a.rt_partition.core_of = {0, 0}; },
       "RT tasks on core 0 are not RM-schedulable"},
      {[](core::Allocation& a) { a.placements[1].core = 2; },
       "task 's1' placed on nonexistent core"},
      {[](core::Allocation& a) { a.placements[0].period = 900.0; },
       "task 's0' period outside [Tdes, Tmax]"},
      {[](core::Allocation& a) { a.placements[0].tightness = 0.25; },
       "task 's0' reports inconsistent tightness"},
      {[](core::Allocation& a) { a.placements[1] = core::TaskPlacement{0, 1000.0, 1.0}; },
       "task 's1' violates Eq. (6)"},
  };
  for (const auto& [edit, message] : cases) {
    core::Allocation broken = base;
    edit(broken);
    const auto seen = expect_same_reports(instance, broken, std::nullopt, message);
    EXPECT_EQ(seen.front().text.rfind(message, 0), 0u) << seen.front();
  }

  // Exact RTA admits s1 on core 0 at 1000 (R = 1000), which the linear
  // bound rejects; a heavier r0 makes exact RTA miss too.
  core::Allocation tight = base;
  tight.placements[1] = core::TaskPlacement{0, 1000.0, 1.0};
  EXPECT_TRUE(
      production_report(instance, tight, std::nullopt, core::ScheduleTest::kExactRta).valid);
  instance.rt_tasks[0] = rt::make_rt_task("r0", 9.0, 10.0);
  const auto exact =
      production_report(instance, tight, std::nullopt, core::ScheduleTest::kExactRta);
  EXPECT_EQ(exact.text, "task 's1' misses its deadline under exact RTA");
  expect_same_reports(instance, tight, std::nullopt, "exact RTA miss");

  // A malformed override alone throws in both ...
  const std::vector<std::size_t> duplicate{0, 0};
  const auto thrown =
      production_report(instance, base, duplicate, core::ScheduleTest::kLinearBound);
  EXPECT_TRUE(thrown.threw);
  expect_same_reports(instance, base, duplicate, "bad override");
  // ... but an unschedulable premise is reported first, before the override
  // is read.
  core::Allocation unschedulable = base;
  unschedulable.rt_partition.core_of = {0, 0};
  const auto premise =
      production_report(instance, unschedulable, duplicate, core::ScheduleTest::kLinearBound);
  EXPECT_FALSE(premise.threw);
  EXPECT_EQ(premise.text, "RT tasks on core 0 are not RM-schedulable");
  expect_same_reports(instance, unschedulable, duplicate, "bad override + premise");
}

TEST(NamedRtDifferential, HandBuiltEdgeCasesMatch) {
  const auto one_monitor = std::vector<rt::SecurityTask>{
      rt::make_security_task("s0", 10.0, 1000.0, 10000.0),
      rt::make_security_task("s1", 20.0, 1500.0, 15000.0)};
  struct Case {
    std::string what;
    std::vector<rt::RtTask> rt_tasks;
  };
  const std::vector<Case> cases{
      {"equal periods",
       {rt::make_rt_task("a", 2.0, 10.0), rt::make_rt_task("b", 3.0, 10.0),
        rt::make_rt_task("c", 1.0, 5.0), rt::make_rt_task("d", 2.5, 10.0)}},
      {"D < T",
       {rt::RtTask{"a", 2.0, 10.0, 5.0}, rt::RtTask{"b", 3.0, 15.0, 9.0},
        rt::RtTask{"c", 1.0, 7.0, 7.0}, rt::RtTask{"d", 4.0, 30.0, 12.0}}},
      {"D > T",
       {rt::RtTask{"a", 4.0, 10.0, 15.0}, rt::RtTask{"b", 5.0, 12.0, 20.0},
        rt::RtTask{"c", 3.0, 20.0, 25.0}}},
      {"hyperbolic product exactly 2",
       {rt::make_rt_task("a", 1.0, 4.0), rt::make_rt_task("b", 6.0, 10.0)}},
      {"hyperbolic product just above 2",
       {rt::make_rt_task("a", 1.0, 4.0), rt::make_rt_task("b", std::nextafter(6.0, 7.0), 10.0)}},
      {"higher-priority utilization 1",
       {rt::make_rt_task("a", 5.0, 10.0), rt::make_rt_task("b", 5.0, 10.0),
        rt::make_rt_task("c", 1.0, 20.0)}},
      {"single task", {rt::make_rt_task("a", 3.0, 10.0)}},
  };
  // The exactly-2 case must reach the fast accept's boundary.
  double product = 1.0;
  for (const auto& t : cases[3].rt_tasks) product *= t.utilization() + 1.0;
  ASSERT_EQ(product, 2.0);

  for (const auto& c : cases) {
    for (std::size_t m = 1; m <= 3; ++m) expect_same_partition(c.rt_tasks, m, c.what);
    core::Instance instance;
    instance.rt_tasks = c.rt_tasks;
    instance.security_tasks = one_monitor;
    // Every RT task on core 0 of three: cores 1 and 2 hold no RT task, and
    // core 2 nothing at all.  Each monitor tried on core 0 and on core 1.
    instance.num_cores = 3;
    for (const std::size_t monitor_core : {0u, 1u}) {
      core::Allocation allocation;
      allocation.feasible = true;
      allocation.rt_partition.num_cores = 3;
      allocation.rt_partition.core_of.assign(c.rt_tasks.size(), 0);
      for (const auto& s : one_monitor) {
        allocation.placements.push_back(
            core::TaskPlacement{monitor_core, 4.0 * s.period_des, 0.25});
      }
      expect_same_reports(instance, allocation, std::nullopt,
                          c.what + ", monitors on core " + std::to_string(monitor_core));
      expect_same_reports(instance, allocation, std::vector<std::size_t>{1, 0},
                          c.what + ", override");
    }
  }
}

TEST(NamedRtDifferential, KnifeEdgeVerdictsMatch) {
  // Bisect one WCET to the last double before the oracle's verdict turns and
  // compare both sides.  At that margin an ulp of the sum decides, so a
  // reordered sum or a dropped term moves the production verdict.
  hydra::gen::SyntheticConfig config;
  std::size_t premise_edges = 0;
  std::size_t demand_edges = 0;
  std::size_t partition_edges = 0;
  for (std::size_t m = 2; m <= 4; ++m) {
    config.num_cores = m;
    hydra::util::Xoshiro256 rng(9300 + m);
    for (int draw = 0; draw < 12;) {
      auto drawn =
          hydra::gen::generate_filtered_instance(config, 0.55 * static_cast<double>(m), rng);
      if (!drawn.has_value()) continue;
      ++draw;
      core::Instance instance = drawn->instance;
      const auto allocation = allocate("hydra", instance);
      if (!allocation.feasible) continue;
      const std::string what = "M = " + std::to_string(m) + ", draw " + std::to_string(draw);

      // The RM premise: the lowest-priority RT task of core 0 grows.
      std::optional<std::size_t> lowest;
      for (std::size_t r = 0; r < instance.rt_tasks.size(); ++r) {
        if (allocation.rt_partition.core_of[r] != 0) continue;
        if (!lowest || instance.rt_tasks[r].period >= instance.rt_tasks[*lowest].period) {
          lowest = r;
        }
      }
      if (lowest.has_value()) {
        core::Instance probe = instance;
        rt::RtTask& grown = probe.rt_tasks[*lowest];
        const auto report_at = [&](double wcet) {
          grown.wcet = wcet;
          return oracle_report(probe, allocation, std::nullopt, core::ScheduleTest::kLinearBound)
              .text.rfind("RT tasks", 0) == 0;
        };
        if (const auto edge = turning_point<bool>(instance.rt_tasks[*lowest].wcet,
                                                  grown.deadline, report_at)) {
          ++premise_edges;
          for (const double wcet : {edge->first, edge->second}) {
            grown.wcet = wcet;
            expect_same_reports(probe, allocation, std::nullopt, what + ", premise edge");
          }
        }
      }

      // Eq. (6): the lowest-priority monitor's WCET grows to its margin.
      const auto order = rt::security_priority_order(instance.security_tasks);
      const std::size_t last = order.back();
      {
        core::Instance probe = instance;
        rt::SecurityTask& grown = probe.security_tasks[last];
        const auto valid_at = [&](double wcet) {
          grown.wcet = wcet;
          return oracle_report(probe, allocation, std::nullopt, core::ScheduleTest::kLinearBound)
              .valid;
        };
        if (const auto edge = turning_point<bool>(instance.security_tasks[last].wcet,
                                                  allocation.placements[last].period, valid_at)) {
          ++demand_edges;
          for (const double wcet : {edge->first, edge->second}) {
            grown.wcet = wcet;
            expect_same_reports(probe, allocation, std::nullopt, what + ", Eq. (6) edge");
          }
        }
      }

      // Admission: one RT task's WCET grows until best-fit's answer turns.
      {
        std::vector<rt::RtTask> tasks = instance.rt_tasks;
        const std::size_t k = static_cast<std::size_t>(draw) % tasks.size();
        const auto partition_at = [&](double wcet) {
          tasks[k].wcet = wcet;
          return oracle_partition(tasks, m);
        };
        if (const auto edge = turning_point<std::vector<std::size_t>>(
                instance.rt_tasks[k].wcet, tasks[k].deadline, partition_at)) {
          ++partition_edges;
          for (const double wcet : {edge->first, edge->second}) {
            tasks[k].wcet = wcet;
            expect_same_partition(tasks, m, what + ", admission edge");
          }
        }
      }
    }
  }
  EXPECT_GE(premise_edges, 30u);
  EXPECT_GE(demand_edges, 30u);
  EXPECT_GE(partition_edges, 30u);
}
