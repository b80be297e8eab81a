#include "rt/analysis.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "rt/priority.h"
#include "util/contracts.h"

namespace hydra::rt {

double dbf(const RtTask& task, util::Millis t) {
  if (t < task.deadline) return 0.0;
  const double jobs = std::floor((t - task.deadline) / task.period) + 1.0;
  return jobs * task.wcet;
}

bool dbf_necessary_condition(const std::vector<RtTask>& tasks, std::size_t num_cores,
                             std::optional<util::Millis> horizon) {
  HYDRA_REQUIRE(num_cores >= 1, "need at least one core");
  if (tasks.empty()) return true;

  const double m = static_cast<double>(num_cores);
  // Asymptotic limit of Eq. (1): total utilization at most M.
  if (total_utilization(tasks) > m + util::kTimeEpsilon) return false;

  util::Millis h = 0.0;
  if (horizon.has_value()) {
    h = *horizon;
  } else {
    for (const auto& task : tasks) h = std::max(h, 2.0 * (task.deadline + task.period));
  }

  // Demand only changes at absolute deadline points D_i + k·T_i, so those are
  // the only t values worth checking.  Each task contributes one sorted stream
  // of checkpoints; merge them with a binary min-heap and accumulate demand
  // incrementally — crossing D_i + k·T_i raises Σ DBF by exactly C_i.  The
  // k-th checkpoint is computed as D + k·T by multiplication: the previous
  // `t += period` accumulation drifts for non-representable periods and can
  // skip or duplicate the deadline point nearest the horizon.
  const std::size_t n = tasks.size();
  std::vector<util::Millis> next(n);
  std::vector<std::uint64_t> jobs(n, 0);
  std::vector<std::size_t> heap;
  heap.reserve(n);
  const auto later = [&](std::size_t a, std::size_t b) { return next[a] > next[b]; };
  for (std::size_t i = 0; i < n; ++i) {
    if (tasks[i].deadline <= h) {
      next[i] = tasks[i].deadline;
      heap.push_back(i);
    }
  }
  std::make_heap(heap.begin(), heap.end(), later);

  double demand = 0.0;
  while (!heap.empty()) {
    const util::Millis t = next[heap.front()];
    // Drain every stream whose checkpoint equals t before testing Eq. (1):
    // demand steps by the whole coincident batch at once.
    do {
      std::pop_heap(heap.begin(), heap.end(), later);
      const std::size_t i = heap.back();
      demand += tasks[i].wcet;
      ++jobs[i];
      next[i] = tasks[i].deadline + static_cast<double>(jobs[i]) * tasks[i].period;
      if (next[i] <= h) {
        std::push_heap(heap.begin(), heap.end(), later);
      } else {
        heap.pop_back();
      }
    } while (!heap.empty() && next[heap.front()] == t);
    if (demand > m * t + util::kTimeEpsilon) return false;
  }
  return true;
}

namespace {

/// Fixpoint R = C + Σ ⌈R/T_j⌉·C_j over the interferers
/// `a[0..na) ++ {inserted?} ++ b[0..nb)`, accumulated in exactly that order.
/// The split form lets core_admits_rm rebuild a resident's interferer list
/// with the candidate spliced into its priority slot without copying tasks.
///
/// The iterate is seeded at C + Σ C_j (every ceil term is ≥ 1 for any
/// positive iterate, so the seed sits at or below the least fixpoint); the
/// monotone iteration converges to the same fixpoint as seeding at C —
/// the final value is the same ceil-stable sum either way — just in fewer
/// rounds.
std::optional<util::Millis> response_time_spliced(const RtTask& task, const RtTask* a,
                                                 std::size_t na, const RtTask* inserted,
                                                 const RtTask* b, std::size_t nb) {
  double hp_util = 0.0;
  for (std::size_t i = 0; i < na; ++i) hp_util += a[i].utilization();
  if (inserted != nullptr) hp_util += inserted->utilization();
  for (std::size_t i = 0; i < nb; ++i) hp_util += b[i].utilization();
  if (hp_util >= 1.0) return std::nullopt;

  double r = task.wcet;
  for (std::size_t i = 0; i < na; ++i) r += a[i].wcet;
  if (inserted != nullptr) r += inserted->wcet;
  for (std::size_t i = 0; i < nb; ++i) r += b[i].wcet;

  const auto add = [](double acc, double r_cur, const RtTask& hp) {
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
  // Non-convergence with hp_util < 1 would indicate a numeric pathology;
  // treat conservatively as unschedulable.
  return std::nullopt;
}

/// Hyperbolic-bound fast accept (sufficient only): valid for deadlines no
/// earlier than periods.  Uses the strict Π(Ui+1) ≤ 2 form — no epsilon
/// slack — so an accept implies the exact RTA below would accept too.
bool hyperbolic_fast_accept(const std::vector<RtTask>& tasks, const RtTask* extra) {
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

}  // namespace

std::optional<util::Millis> response_time(const RtTask& task, const std::vector<RtTask>& hp) {
  return response_time_spliced(task, hp.data(), hp.size(), nullptr, nullptr, 0);
}

bool core_schedulable_rm(const std::vector<RtTask>& tasks_on_core) {
  if (hyperbolic_fast_accept(tasks_on_core, nullptr)) return true;
  const auto order = rm_priority_order(tasks_on_core);
  std::vector<RtTask> hp;
  hp.reserve(tasks_on_core.size());
  for (const std::size_t idx : order) {
    if (!response_time(tasks_on_core[idx], hp).has_value()) return false;
    hp.push_back(tasks_on_core[idx]);
  }
  return true;
}

bool core_admits_rm(const std::vector<RtTask>& resident_by_priority, const RtTask& candidate) {
  if (hyperbolic_fast_accept(resident_by_priority, &candidate)) return true;

  // The candidate slots in after every resident with period <= its own —
  // exactly where rm_priority_order's stable sort puts a last-appended task.
  const auto* base = resident_by_priority.data();
  const std::size_t n = resident_by_priority.size();
  std::size_t pos = 0;
  while (pos < n && base[pos].period <= candidate.period) ++pos;

  // The candidate against everything that outranks it ...
  if (!response_time_spliced(candidate, base, pos, nullptr, nullptr, 0).has_value()) {
    return false;
  }
  // ... and each resident it preempts, with the candidate spliced into its
  // interferer list.  Residents at positions < pos keep their interferer set
  // (and hence their already-verified response times) unchanged.
  for (std::size_t j = pos; j < n; ++j) {
    if (!response_time_spliced(base[j], base, pos, &candidate, base + pos, j - pos).has_value()) {
      return false;
    }
  }
  return true;
}

double liu_layland_bound(std::size_t n) {
  if (n == 0) return 1.0;
  const double nd = static_cast<double>(n);
  return nd * (std::pow(2.0, 1.0 / nd) - 1.0);
}

bool hyperbolic_bound_holds(const std::vector<RtTask>& tasks) {
  double product = 1.0;
  for (const auto& t : tasks) product *= t.utilization() + 1.0;
  return product <= 2.0 + util::kTimeEpsilon;
}

std::optional<util::Millis> security_response_time(
    const SecurityTask& task, util::Millis period, const std::vector<RtTask>& rt_on_core,
    const std::vector<PlacedSecurityTask>& hp_security_on_core,
    const InterferenceBound* interferer_sums) {
  HYDRA_REQUIRE(period > 0.0, "candidate period must be positive");
  double hp_util = 0.0;
  double r = task.wcet;
  if (interferer_sums != nullptr) {
    hp_util = interferer_sums->util_part;
    r = task.wcet + interferer_sums->const_part;
  } else {
    for (const auto& h : rt_on_core) hp_util += h.utilization();
    for (const auto& h : hp_security_on_core) hp_util += h.wcet / h.period;
    for (const auto& h : rt_on_core) r += h.wcet;
    for (const auto& h : hp_security_on_core) r += h.wcet;
  }
  if (hp_util >= 1.0) return std::nullopt;

  for (int iter = 0; iter < 10000; ++iter) {
    double next = task.wcet;
    for (const auto& hp : rt_on_core) {
      next += std::ceil(r / hp.period - util::kTimeEpsilon) * hp.wcet;
    }
    for (const auto& hp : hp_security_on_core) {
      next += std::ceil(r / hp.period - util::kTimeEpsilon) * hp.wcet;
    }
    if (next > period + util::kTimeEpsilon) return std::nullopt;  // deadline = period
    if (util::approx_equal(next, r, util::kTimeEpsilon, 0.0)) return next;
    r = next;
  }
  return std::nullopt;
}

}  // namespace hydra::rt
