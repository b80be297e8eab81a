// Tests for the result sinks: JSONL shape, CSV quoting, table rendering,
// re-use across runs, and the extension-dispatched file sink.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "exp/sinks.h"

namespace hexp = hydra::exp;

namespace {

hexp::BatchRow sample_row() {
  hexp::BatchRow row;
  row.instance_index = 3;
  row.instance_label = "seed=99";
  row.seed = 99;
  row.scheme = "hydra/tie=lowest-index";
  row.feasible = true;
  row.validated = true;
  row.cumulative_tightness = 2.5;
  row.normalized_tightness = 0.625;
  return row;
}

}  // namespace

TEST(JsonlSink, EmitsOneParseableObjectPerRow) {
  std::ostringstream os;
  hexp::JsonlSink sink(os);
  sink.begin();
  sink.row(sample_row());
  sink.end();
  const std::string line = os.str();
  EXPECT_EQ(line.back(), '\n');
  EXPECT_NE(line.find("\"instance\":3"), std::string::npos);
  EXPECT_NE(line.find("\"scheme\":\"hydra/tie=lowest-index\""), std::string::npos);
  EXPECT_NE(line.find("\"feasible\":true"), std::string::npos);
  EXPECT_NE(line.find("\"cumulative_tightness\":2.5"), std::string::npos);
  // Exactly one line per row.
  EXPECT_EQ(std::count(line.begin(), line.end(), '\n'), 1);
}

TEST(JsonlSink, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(hexp::json_escape("plain"), "plain");
  EXPECT_EQ(hexp::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(hexp::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(hexp::json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(hexp::json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(FormatDouble, RoundTripsAndStaysCompact) {
  EXPECT_EQ(hexp::format_double(0.0), "0");
  EXPECT_EQ(hexp::format_double(2.5), "2.5");
  EXPECT_EQ(hexp::format_double(1.0 / 3.0), "0.3333333333333333");
  // Shortest representation that parses back to the same double.
  const double value = 0.1 + 0.2;
  EXPECT_EQ(std::strtod(hexp::format_double(value).c_str(), nullptr), value);
}

TEST(FormatDouble, NonFiniteValuesStayVisible) {
  EXPECT_EQ(hexp::format_double(std::nan("")), "nan");
  EXPECT_EQ(hexp::format_double(HUGE_VAL), "inf");
  EXPECT_EQ(hexp::format_double(-HUGE_VAL), "-inf");
  // JSON number positions fall back to null so lines stay parseable.
  EXPECT_EQ(hexp::json_number(std::nan("")), "null");
  EXPECT_EQ(hexp::json_number(2.5), "2.5");
}

TEST(JsonlRow, ParsesBackExactlyWhatTheSinkEmits) {
  auto row = sample_row();
  row.cell = "p2:m=2 u=1.2:i3";
  row.point_index = 2;
  row.point_label = "m=2 u=1.2";
  row.target_utilization = 1.2;
  row.note = "line\nbreak \"quoted\" \\slash";
  row.metrics.emplace_back("mean_detection_ms", 123.5);
  row.metrics.emplace_back("p95_detection_ms", 456.25);

  std::ostringstream os;
  hexp::JsonlSink sink(os);
  sink.row(row);
  const std::string line = os.str().substr(0, os.str().size() - 1);  // strip '\n'

  const auto parsed = hexp::parse_jsonl_row(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->cell, row.cell);
  EXPECT_EQ(parsed->point_index, row.point_index);
  EXPECT_EQ(parsed->point_label, row.point_label);
  EXPECT_EQ(parsed->seed, row.seed);
  EXPECT_EQ(parsed->note, row.note);
  ASSERT_EQ(parsed->metrics.size(), 2u);
  EXPECT_EQ(parsed->metrics[0].first, "mean_detection_ms");
  EXPECT_DOUBLE_EQ(parsed->metrics[1].second, 456.25);

  // Byte-exact round trip: re-serializing the parsed row reproduces the line.
  std::ostringstream os2;
  hexp::JsonlSink sink2(os2);
  sink2.row(*parsed);
  EXPECT_EQ(os2.str(), os.str());
}

TEST(JsonlRow, FullPrecisionSeedSurvivesTheRoundTrip) {
  auto row = sample_row();
  row.seed = 0xFFFFFFFFFFFFFFF1ULL;  // above 2^53: dies if routed via double
  std::ostringstream os;
  hexp::JsonlSink sink(os);
  sink.row(row);
  const auto parsed = hexp::parse_jsonl_row(os.str().substr(0, os.str().size() - 1));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->seed, 0xFFFFFFFFFFFFFFF1ULL);
}

TEST(JsonlRow, RejectsTruncatedAndForeignLines) {
  std::ostringstream os;
  hexp::JsonlSink sink(os);
  sink.row(sample_row());
  const std::string line = os.str().substr(0, os.str().size() - 1);

  EXPECT_FALSE(hexp::parse_jsonl_row(line.substr(0, line.size() / 2)).has_value());
  EXPECT_FALSE(hexp::parse_jsonl_row("").has_value());
  EXPECT_FALSE(hexp::parse_jsonl_row("not json at all").has_value());
  EXPECT_FALSE(hexp::parse_jsonl_row("{\"unknown_key\":1}").has_value());
  EXPECT_FALSE(hexp::parse_jsonl_row(line + "trailing").has_value());
  EXPECT_TRUE(hexp::parse_jsonl_row(line).has_value());
}

TEST(CsvSink, QuotesCellsAndWritesHeaderOnce) {
  std::ostringstream os;
  hexp::CsvSink sink(os);
  sink.begin();
  auto row = sample_row();
  row.note = "needs, quoting";
  sink.row(row);
  sink.end();
  sink.begin();  // a second engine run re-uses the sink
  sink.row(sample_row());
  sink.end();
  const std::string out = os.str();
  EXPECT_EQ(out.find("cell,instance,label"), 0u);                    // header first
  EXPECT_EQ(out.find("cell,instance,label", 1), std::string::npos);  // and only once
  EXPECT_NE(out.find("\"needs, quoting\""), std::string::npos);      // RFC-4180 quoted
}

TEST(FileSink, DispatchesOnExtensionAndWritesTheFile) {
  const std::string jsonl_path = "/tmp/hydra_sink_test.jsonl";
  {
    const auto sink = hexp::make_file_sink(jsonl_path);
    sink->begin();
    sink->row(sample_row());
    sink->end();
  }
  std::ifstream in(jsonl_path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"scheme\""), std::string::npos);
  std::remove(jsonl_path.c_str());

  EXPECT_THROW(hexp::make_file_sink("/tmp/out.txt"), std::invalid_argument);
  EXPECT_THROW(hexp::make_file_sink("/nonexistent-dir/x.csv"), std::runtime_error);
}

TEST(FileSink, WriteErrorsThrowNamingThePath) {
  namespace fs = std::filesystem;
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full on this system";
  const std::string dir = ::testing::TempDir() + "hydra_sink_full";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = dir + "/full.jsonl";
  fs::create_symlink("/dev/full", path);
  const auto sink = hexp::make_file_sink(path);
  sink->begin();
  sink->row(sample_row());
  try {
    sink->end();
    ADD_FAILURE() << "rows lost to a full device must not pass silently";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(path), std::string::npos) << error.what();
  }
  fs::remove_all(dir);
}
