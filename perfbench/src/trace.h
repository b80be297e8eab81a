// Span tracing for the sweep benchmark, built entirely from the library's
// public extension points so no library code changes:
//
//   * core — delegating allocators registered in core::AllocatorRegistry
//            under "trace@<scheme>";
//   * gp   — a delegating gp::SolverBackend registered as "trace@gp" and
//            selected through SweepSpec::gp_backend;
//   * sim  — wrapped RowMetric::compute closures;
//   * io / exp.aggregate — forwarding ResultSinks around the JSONL sink and
//            the Aggregator.
//
// Every wrapper appends a span (kind, start, end, payload) to a per-thread
// log kept in memory; summarize() turns the logs into the per-layer metrics
// after the sweep has returned and every worker has been joined.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exp/engine.h"
#include "exp/sinks.h"

namespace perfbench {

/// Monotonic nanoseconds (steady_clock, CLOCK_MONOTONIC on Linux — the same
/// clock Python's time.monotonic_ns() reads, so the runner can subtract).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Prefix of the traced allocator names; rows carry "trace@<scheme>" and the
/// runner strips the prefix before comparing traced and untraced rows.
inline constexpr const char* kTracePrefix = "trace@";
/// Registered name of the delegating GP backend.
inline constexpr const char* kTracedBackend = "trace@gp";

/// Registers a delegating allocator "trace@<name>" for every scheme in
/// `schemes` (idempotent per name).
void register_traced_allocators(const std::vector<std::string>& schemes);

/// Registers the delegating GP backend (idempotent).  It resolves the
/// library's default backend when constructed, so it follows a change of
/// default without edits here.
void register_traced_backend();

/// Wraps each metric's compute in a "sim" span; name and identity unchanged.
std::vector<hydra::exp::RowMetric> traced_metrics(std::vector<hydra::exp::RowMetric> metrics);

/// Forwards every call to `inner`, timing row() (and end()) as `layer` spans.
class TimedSink final : public hydra::exp::ResultSink {
 public:
  enum class Layer { kIo, kAggregate };
  TimedSink(hydra::exp::ResultSink& inner, Layer layer) : inner_(inner), layer_(layer) {}
  void begin() override;
  void row(const hydra::exp::BatchRow& row) override;
  void end() override;

 private:
  hydra::exp::ResultSink& inner_;
  Layer layer_;
};

/// Marks one Sweep::run call so worker time can be attributed to it.
void begin_run_window();
void end_run_window();

/// Times a block as an "exp.aggregate" span (Aggregator::cells()).
class AggregateSpan {
 public:
  AggregateSpan();
  ~AggregateSpan();
  AggregateSpan(const AggregateSpan&) = delete;
  AggregateSpan& operator=(const AggregateSpan&) = delete;

 private:
  std::int64_t start_;
};

/// Per-layer metrics computed from the recorded spans.  `schemes` are the
/// plain registry names the workload runs; their metrics are keyed
/// "core.<scheme with '/' mapped to '_'>.<field>".
struct TraceSummary {
  std::map<std::string, double> metrics;
  /// |Σ self + residual + head/tail idle − jobs·window| / (jobs·window).
  double reconcile_error = 0.0;
  std::size_t worker_threads = 0;  ///< threads that ran units in the windows
  std::string problem;             ///< non-empty when the trace is inconsistent
};

TraceSummary summarize(const std::vector<std::string>& schemes, std::size_t jobs);

/// "period-adapt/gp" -> "period-adapt_gp".
std::string metric_key(const std::string& scheme);

}  // namespace perfbench
