// Tests for the benchmark comparison/gate library behind hydra_bench_diff:
// zero/missing baselines must surface as incomparable/new rows (never a fake
// 0.0% that slides past the gate), and throughput collapses must gate even
// when wall time looks flat.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "io/bench_diff.h"

namespace io = hydra::io;

namespace {

/// Minimal google-benchmark JSON with the fields the parser reads.
std::string bench_json(const std::string& rows, const std::string& num_cpus = "8",
                       const std::string& build_type = "release") {
  return "{\n"
         "  \"context\": {\n"
         "    \"date\": \"2026-08-08T00:00:00\",\n"
         "    \"num_cpus\": " + num_cpus + ",\n"
         "    \"library_build_type\": \"" + build_type + "\"\n"
         "  },\n"
         "  \"benchmarks\": [\n" +
         rows +
         "  ]\n"
         "}\n";
}

std::string bench_row(const std::string& name, double real_time, double items,
                      bool last = false) {
  std::ostringstream out;
  out << "    {\n"
      << "      \"name\": \"" << name << "\",\n"
      << "      \"real_time\": " << real_time << ",\n"
      << "      \"cpu_time\": " << real_time << ",\n"
      << "      \"time_unit\": \"ns\"";
  if (items > 0.0) out << ",\n      \"items_per_second\": " << items;
  out << "\n    }" << (last ? "" : ",") << "\n";
  return out.str();
}

std::map<std::string, io::BenchResult> parse(const std::string& json) {
  std::istringstream in(json);
  return io::parse_bench_results(in, "test");
}

const io::BenchDelta* find(const std::vector<io::BenchDelta>& deltas,
                           const std::string& name) {
  for (const auto& delta : deltas) {
    if (delta.name == name) return &delta;
  }
  return nullptr;
}

}  // namespace

TEST(BenchDiffParse, ReadsNameTimeUnitAndItems) {
  const auto rows = parse(bench_json(bench_row("BM_A", 1500.0, 2.0e6) +
                                     bench_row("BM_B", 42.5, -1.0, /*last=*/true)));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows.at("BM_A").real_time, 1500.0);
  EXPECT_EQ(rows.at("BM_A").time_unit, "ns");
  EXPECT_DOUBLE_EQ(rows.at("BM_A").items_per_second, 2.0e6);
  EXPECT_DOUBLE_EQ(rows.at("BM_B").real_time, 42.5);
  EXPECT_LT(rows.at("BM_B").items_per_second, 0.0);  // absent stays sentinel
}

TEST(BenchDiffParse, ThrowsOnEmptyInput) {
  std::istringstream in("{\"context\": {}}");
  EXPECT_THROW(io::parse_bench_results(in, "test"), std::runtime_error);
}

TEST(BenchDiff, ZeroBaselineIsIncomparableNotZeroPercent) {
  // The original bug: a 0 baseline time produced a 0.0% delta, which both
  // looked like "no change" and silently passed any --fail-over gate.
  const auto baseline = parse(bench_json(bench_row("BM_A", 0.0, -1.0, true)));
  const auto current = parse(bench_json(bench_row("BM_A", 1000.0, -1.0, true)));
  const auto deltas = io::diff_bench_results(baseline, current);
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].kind, io::BenchDelta::Kind::kIncomparable);
  // It never enters the gate, even at a 0% threshold...
  EXPECT_TRUE(io::bench_gate_violations(deltas, 0.0).empty());
  // ...and renders as flagged, not as +0.0%.
  EXPECT_NE(io::render_bench_diff_markdown(deltas).find("_incomparable_"),
            std::string::npos);
  EXPECT_NE(io::render_bench_diff_text(deltas).find("(incomparable)"),
            std::string::npos);
  EXPECT_EQ(io::render_bench_diff_markdown(deltas).find("0.0%"), std::string::npos);
}

TEST(BenchDiff, NewAndMissingRowsNeverGate) {
  const auto baseline = parse(bench_json(bench_row("BM_Old", 100.0, -1.0, true)));
  const auto current = parse(bench_json(bench_row("BM_New", 9000.0, -1.0, true)));
  const auto deltas = io::diff_bench_results(baseline, current);
  ASSERT_EQ(deltas.size(), 2u);
  const auto* added = find(deltas, "BM_New");
  const auto* dropped = find(deltas, "BM_Old");
  ASSERT_NE(added, nullptr);
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(added->kind, io::BenchDelta::Kind::kNew);
  EXPECT_EQ(dropped->kind, io::BenchDelta::Kind::kMissing);
  EXPECT_TRUE(io::bench_gate_violations(deltas, 0.0).empty());
  const std::string md = io::render_bench_diff_markdown(deltas);
  EXPECT_NE(md.find("_new_"), std::string::npos);
  EXPECT_NE(md.find("_missing_"), std::string::npos);
}

TEST(BenchDiff, GatesOnRealTimeGrowth) {
  const auto baseline = parse(bench_json(bench_row("BM_A", 100.0, -1.0, true)));
  const auto current = parse(bench_json(bench_row("BM_A", 180.0, -1.0, true)));
  const auto deltas = io::diff_bench_results(baseline, current);
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].kind, io::BenchDelta::Kind::kCompared);
  EXPECT_NEAR(deltas[0].time_pct, 80.0, 1e-9);
  EXPECT_TRUE(io::bench_gate_violations(deltas, 90.0).empty());
  const auto violations = io::bench_gate_violations(deltas, 50.0);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("real_time"), std::string::npos);
}

TEST(BenchDiff, GatesOnItemsPerSecondCollapse) {
  // Wall time flat (per-iteration time unchanged) but throughput collapsed:
  // the gate must still fire on the items/s drop.
  const auto baseline = parse(bench_json(bench_row("BM_A", 100.0, 4000.0, true)));
  const auto current = parse(bench_json(bench_row("BM_A", 100.0, 1000.0, true)));
  const auto deltas = io::diff_bench_results(baseline, current);
  ASSERT_EQ(deltas.size(), 1u);
  ASSERT_TRUE(deltas[0].has_items);
  EXPECT_NEAR(deltas[0].items_pct, -75.0, 1e-9);
  const auto violations = io::bench_gate_violations(deltas, 50.0);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("items/s"), std::string::npos);
}

TEST(BenchDiff, ItemsGrowthAndNegativeThresholdDoNotGate) {
  const auto baseline = parse(bench_json(bench_row("BM_A", 100.0, 1000.0, true)));
  const auto current = parse(bench_json(bench_row("BM_A", 40.0, 4000.0, true)));
  const auto deltas = io::diff_bench_results(baseline, current);
  ASSERT_EQ(deltas.size(), 1u);
  ASSERT_TRUE(deltas[0].has_items);
  EXPECT_NEAR(deltas[0].items_pct, 300.0, 1e-9);  // improvement, not a drop
  EXPECT_TRUE(io::bench_gate_violations(deltas, 50.0).empty());
  // fail_over < 0 means "report only": nothing gates, however bad.
  const auto worse = io::diff_bench_results(current, baseline);
  EXPECT_TRUE(io::bench_gate_violations(worse, -1.0).empty());
}

TEST(BenchDiff, MarkdownRendersComparedRowWithBothDeltas) {
  const auto baseline = parse(bench_json(bench_row("BM_A", 200.0, 1000.0, true)));
  const auto current = parse(bench_json(bench_row("BM_A", 100.0, 2000.0, true)));
  const std::string md =
      io::render_bench_diff_markdown(io::diff_bench_results(baseline, current));
  EXPECT_NE(md.find("| BM_A |"), std::string::npos);
  EXPECT_NE(md.find("-50.0%"), std::string::npos);
  EXPECT_NE(md.find("+100.0%"), std::string::npos);
}

TEST(BenchDiff, UnlikeMachinesAreFlaggedButNotGated) {
  // A 1-CPU debug baseline against a 4-CPU release run: both renderings open
  // with one "context mismatch" line naming the two fields; the gate is
  // unchanged.
  const auto context_of = [](const std::string& json) {
    std::istringstream in(json);
    io::BenchContext context;
    io::parse_bench_results(in, "test", &context);
    return context;
  };
  const std::string base_json = bench_json(bench_row("BM_A", 100.0, -1.0, true), "1", "debug");
  const std::string now_json = bench_json(bench_row("BM_A", 180.0, -1.0, true), "4", "release");
  const io::BenchContext base = context_of(base_json);
  const io::BenchContext now = context_of(now_json);
  EXPECT_EQ(base.num_cpus, "1");
  EXPECT_EQ(base.library_build_type, "debug");

  const std::string mismatch = io::bench_context_mismatch(base, now);
  EXPECT_EQ(mismatch,
            "context mismatch (baseline vs current): num_cpus 1 vs 4, "
            "library_build_type debug vs release");
  const auto deltas = io::diff_bench_results(parse(base_json), parse(now_json));
  const std::string text = io::render_bench_diff_text(deltas, mismatch);
  const std::string md = io::render_bench_diff_markdown(deltas, mismatch);
  EXPECT_EQ(text.rfind(mismatch + "\n", 0), 0u) << text;
  EXPECT_EQ(md.rfind("> " + mismatch + "\n", 0), 0u) << md;
  EXPECT_EQ(text.find("context mismatch", 1), std::string::npos);
  EXPECT_EQ(md.find("context mismatch", 3), std::string::npos);
  EXPECT_EQ(io::bench_gate_violations(deltas, 90.0).size(), 0u);
  EXPECT_EQ(io::bench_gate_violations(deltas, 50.0).size(), 1u);

  // One differing field names only that field; like machines print nothing.
  io::BenchContext same_cpus = now;
  same_cpus.num_cpus = "1";
  EXPECT_EQ(io::bench_context_mismatch(base, same_cpus),
            "context mismatch (baseline vs current): library_build_type debug vs release");
  EXPECT_EQ(io::bench_context_mismatch(now, now), "");
  EXPECT_EQ(io::render_bench_diff_text(deltas).find("context mismatch"), std::string::npos);
}
