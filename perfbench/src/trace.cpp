#include "trace.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <mutex>
#include <optional>
#include <utility>

#include "core/registry.h"
#include "gp/solver_registry.h"

namespace perfbench {

namespace core = hydra::core;
namespace gp = hydra::gp;
namespace hexp = hydra::exp;

namespace {

enum class Kind : std::uint8_t { kCore, kGp, kSim, kIo, kAggregate, kWorkerStart, kWorkerEnd };

/// One recorded interval.  Worker marks are zero-length spans.
struct Span {
  Kind kind = Kind::kCore;
  bool flag = false;           ///< core: feasible; gp: converged
  std::uint16_t scheme = 0;    ///< core: index into g_schemes
  std::int32_t value = 0;      ///< gp: Newton steps
  std::int64_t start = 0;
  std::int64_t end = 0;
};

struct ThreadLog {
  std::vector<Span> spans;
};

// Logs outlive their threads: workers are joined inside Sweep::run, and the
// spans are read only after it returns.
std::mutex g_mutex;
std::vector<std::unique_ptr<ThreadLog>> g_logs;  // guarded by g_mutex
thread_local ThreadLog* t_log = nullptr;

// Written on the main thread during set-up and between runs only.
std::vector<std::string> g_schemes;  // plain names, indexed by Span::scheme
std::vector<std::pair<std::int64_t, std::int64_t>> g_windows;

ThreadLog& local_log() {
  if (t_log == nullptr) {
    auto log = std::make_unique<ThreadLog>();
    t_log = log.get();
    const std::lock_guard<std::mutex> lock(g_mutex);
    g_logs.push_back(std::move(log));
  }
  return *t_log;
}

void record(const Span& span) { local_log().spans.push_back(span); }

void mark(Kind kind) {
  Span span;
  span.kind = kind;
  span.start = span.end = now_ns();
  record(span);
}

class TracedAllocator final : public core::Allocator {
 public:
  TracedAllocator(std::uint16_t scheme, std::unique_ptr<core::Allocator> inner)
      : core::Allocator(inner->name()), scheme_(scheme), inner_(std::move(inner)) {
    mark(Kind::kWorkerStart);
  }
  ~TracedAllocator() override { mark(Kind::kWorkerEnd); }
  TracedAllocator(const TracedAllocator&) = delete;
  TracedAllocator& operator=(const TracedAllocator&) = delete;

  std::string describe() const override { return inner_->describe(); }

  core::Allocation allocate(const core::Instance& instance) const override {
    const std::int64_t start = now_ns();
    auto result = inner_->allocate(instance);
    finish(start, result.feasible);
    return result;
  }

  core::Allocation allocate(const core::Instance& instance,
                            const hydra::rt::Partition& rt_partition) const override {
    const std::int64_t start = now_ns();
    auto result = inner_->allocate(instance, rt_partition);
    finish(start, result.feasible);
    return result;
  }

  core::ScheduleTest schedule_test() const override { return inner_->schedule_test(); }
  hydra::util::Millis blocking() const override { return inner_->blocking(); }
  std::optional<std::vector<std::size_t>> priority_order() const override {
    return inner_->priority_order();
  }
  double search_space(const core::Instance& instance) const override {
    return inner_->search_space(instance);
  }

 private:
  void finish(std::int64_t start, bool feasible) const {
    Span span;
    span.kind = Kind::kCore;
    span.flag = feasible;
    span.scheme = scheme_;
    span.start = start;
    span.end = now_ns();
    record(span);
  }

  std::uint16_t scheme_;
  std::unique_ptr<core::Allocator> inner_;
};

class TracedBackend final : public gp::SolverBackend {
 public:
  explicit TracedBackend(std::unique_ptr<gp::SolverBackend> inner)
      : name_(kTracedBackend), inner_(std::move(inner)) {}

  const std::string& name() const override { return name_; }

  gp::SolveResult solve(const gp::GpProblem& problem,
                        const std::optional<std::vector<double>>& initial_guess)
      const override {
    Span span;
    span.kind = Kind::kGp;
    span.start = now_ns();
    auto result = inner_->solve(problem, initial_guess);
    span.end = now_ns();
    span.flag = result.converged;
    span.value = result.newton_steps;
    record(span);
    return result;
  }

 private:
  std::string name_;
  std::unique_ptr<gp::SolverBackend> inner_;
};

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size(), std::max<std::size_t>(rank, 1)) - 1];
}

}  // namespace

std::string metric_key(const std::string& scheme) {
  std::string key = scheme;
  std::replace(key.begin(), key.end(), '/', '_');
  return key;
}

void register_traced_allocators(const std::vector<std::string>& schemes) {
  auto& registry = core::AllocatorRegistry::global();
  for (const auto& name : schemes) {
    const std::string traced = kTracePrefix + name;
    if (registry.contains(traced)) continue;
    const auto index = static_cast<std::uint16_t>(g_schemes.size());
    g_schemes.push_back(name);
    registry.add(traced, "traced delegate of " + name, [index, name] {
      return std::make_unique<TracedAllocator>(index,
                                               core::AllocatorRegistry::global().make(name));
    });
  }
}

void register_traced_backend() {
  auto& registry = gp::SolverRegistry::global();
  if (registry.contains(kTracedBackend)) return;
  registry.add(kTracedBackend, "traced delegate of the default backend",
               [](const gp::SolveOptions& options) {
                 // An empty scope re-selects the library default, whatever it
                 // is; without it the ambient scope would name this backend.
                 const gp::GpBackendScope pin("");
                 return std::make_unique<TracedBackend>(
                     gp::SolverRegistry::global().make(gp::resolve_gp_backend(""), options));
               });
}

std::vector<hexp::RowMetric> traced_metrics(std::vector<hexp::RowMetric> metrics) {
  for (auto& metric : metrics) {
    metric.compute = [inner = std::move(metric.compute)](
                         const core::Instance& instance, const core::DesignPoint& point) {
      Span span;
      span.kind = Kind::kSim;
      span.start = now_ns();
      const double value = inner(instance, point);
      span.end = now_ns();
      record(span);
      return value;
    };
  }
  return metrics;
}

void TimedSink::begin() { inner_.begin(); }

void TimedSink::row(const hexp::BatchRow& row) {
  Span span;
  span.kind = layer_ == Layer::kIo ? Kind::kIo : Kind::kAggregate;
  span.start = now_ns();
  inner_.row(row);
  span.end = now_ns();
  record(span);
}

void TimedSink::end() {
  Span span;
  span.kind = layer_ == Layer::kIo ? Kind::kIo : Kind::kAggregate;
  span.start = now_ns();
  inner_.end();
  span.end = now_ns();
  record(span);
}

AggregateSpan::AggregateSpan() : start_(now_ns()) {}

AggregateSpan::~AggregateSpan() {
  Span span;
  span.kind = Kind::kAggregate;
  span.start = start_;
  span.end = now_ns();
  record(span);
}

void begin_run_window() { g_windows.emplace_back(now_ns(), 0); }

void end_run_window() { g_windows.back().second = now_ns(); }

TraceSummary summarize(const std::vector<std::string>& schemes, std::size_t jobs) {
  struct SchemeAccum {
    std::size_t calls = 0, feasible = 0;
    double total = 0.0, self = 0.0;
    std::vector<double> ms;
  };
  std::map<std::string, SchemeAccum> per_scheme;
  for (const auto& name : schemes) per_scheme[name];
  std::size_t gp_calls = 0, gp_not_converged = 0;
  double gp_total = 0.0, newton = 0.0;
  std::vector<double> gp_us;
  std::size_t sim_calls = 0;
  double sim_total = 0.0, io_total = 0.0, agg_total = 0.0;
  double busy = 0.0, head_idle = 0.0, tail_idle = 0.0, self_in_busy = 0.0;
  double window_total = 0.0;
  for (const auto& [start, end] : g_windows) window_total += 1e-9 * double(end - start);

  TraceSummary out;
  std::vector<std::size_t> threads_per_window(g_windows.size(), 0);
  const std::lock_guard<std::mutex> lock(g_mutex);
  for (const auto& log : g_logs) {
    std::vector<Span> spans;
    std::vector<std::int64_t> starts, ends;
    for (const auto& span : log->spans) {
      if (span.kind == Kind::kWorkerStart) {
        starts.push_back(span.start);
      } else if (span.kind == Kind::kWorkerEnd) {
        ends.push_back(span.start);
      } else {
        spans.push_back(span);
      }
    }
    // Pre-order (parents before the children they enclose), then self time
    // = duration minus the directly nested children on this thread.
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.start != b.start ? a.start < b.start : a.end > b.end;
    });
    std::vector<double> self(spans.size());
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      while (!stack.empty() && spans[stack.back()].end <= spans[i].start) stack.pop_back();
      const double seconds = 1e-9 * double(spans[i].end - spans[i].start);
      self[i] = seconds;
      if (!stack.empty()) self[stack.back()] -= seconds;
      stack.push_back(i);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      const double seconds = 1e-9 * double(span.end - span.start);
      switch (span.kind) {
        case Kind::kCore: {
          auto& accum = per_scheme[g_schemes.at(span.scheme)];
          ++accum.calls;
          accum.feasible += span.flag ? 1 : 0;
          accum.total += seconds;
          accum.self += self[i];
          accum.ms.push_back(1e3 * seconds);
          break;
        }
        case Kind::kGp:
          ++gp_calls;
          gp_not_converged += span.flag ? 0 : 1;
          gp_total += seconds;
          newton += span.value;
          gp_us.push_back(1e6 * seconds);
          break;
        case Kind::kSim:
          ++sim_calls;
          sim_total += seconds;
          break;
        case Kind::kIo:
          io_total += seconds;
          break;
        case Kind::kAggregate:
          agg_total += seconds;
          break;
        default:
          break;
      }
      if (self[i] < -1e-9) out.problem = "negative self time: spans overlap on one thread";
    }
    // A thread's busy interval in a window runs from the construction of its
    // scheme set to its destruction: exactly a Sweep worker's lifetime (or,
    // for a one-unit sweep, the inline evaluation on the calling thread).
    std::sort(starts.begin(), starts.end());
    std::sort(ends.begin(), ends.end());
    for (std::size_t w = 0; w < g_windows.size(); ++w) {
      const auto [ws, we] = g_windows[w];
      const auto first = std::lower_bound(starts.begin(), starts.end(), ws);
      const auto after_last = std::upper_bound(ends.begin(), ends.end(), we);
      if (first == starts.end() || after_last == ends.begin()) continue;
      const std::int64_t begin = *first, end = *std::prev(after_last);
      if (begin > we || end < ws || begin >= end) continue;
      ++threads_per_window[w];
      busy += 1e-9 * double(end - begin);
      head_idle += 1e-9 * double(begin - ws);
      tail_idle += 1e-9 * double(we - end);
      auto it = std::lower_bound(spans.begin(), spans.end(), begin,
                                 [](const Span& span, std::int64_t t) { return span.start < t; });
      for (; it != spans.end() && it->start <= end; ++it) {
        if (it->end <= end) self_in_busy += self[std::size_t(it - spans.begin())];
      }
    }
  }
  for (const auto count : threads_per_window) {
    out.worker_threads = std::max(out.worker_threads, count);
  }

  auto& m = out.metrics;
  for (auto& [name, accum] : per_scheme) {
    const std::string key = "core." + metric_key(name) + ".";
    m[key + "calls"] = double(accum.calls);
    m[key + "s"] = accum.total;
    m[key + "self_s"] = accum.self;
    m[key + "ms_p50"] = percentile(accum.ms, 0.50);
    m[key + "ms_p90"] = percentile(accum.ms, 0.90);
    m[key + "feasible_frac"] = accum.calls ? double(accum.feasible) / double(accum.calls) : 0.0;
  }
  m["gp.solve.calls"] = double(gp_calls);
  m["gp.solve.s"] = gp_total;
  m["gp.newton_steps"] = newton;
  m["gp.not_converged"] = double(gp_not_converged);
  m["gp.solve_us_p50"] = percentile(gp_us, 0.50);
  m["gp.solve_us_p99"] = percentile(gp_us, 0.99);
  m["sim.metric.calls"] = double(sim_calls);
  m["sim.metric.s"] = sim_total;
  m["io.sink.s"] = io_total;
  m["exp.aggregate.s"] = agg_total;
  const double capacity = double(jobs) * window_total;
  const double residual = busy - self_in_busy;
  m["exp.worker_busy_frac"] = capacity > 0.0 ? busy / capacity : 0.0;
  m["exp.tail_idle_s"] = tail_idle;
  m["exp.residual_s"] = residual;

  // Σ self + residual is the workers' busy time by construction; what can
  // fail is the rest of the identity: every one of the `jobs` workers must
  // have been seen, and busy time plus head/tail idle must fill the window.
  if (capacity > 0.0) {
    out.reconcile_error =
        std::abs(self_in_busy + residual + head_idle + tail_idle - capacity) / capacity;
  }
  if (residual < -1e-6) out.problem = "worker busy time is shorter than its spans";
  return out;
}

}  // namespace perfbench
