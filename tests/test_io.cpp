// Tests for the table/CSV emitters.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <utility>

#include "gen/uav.h"
#include "io/table.h"
#include "io/taskset_io.h"

namespace io = hydra::io;

TEST(Table, AlignedOutput) {
  io::Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  // Column alignment: "value" and "22222" start at the same offset.
  std::istringstream lines(out);
  std::string header, rule, row1, row2;
  std::getline(lines, header);
  std::getline(lines, rule);
  std::getline(lines, row1);
  std::getline(lines, row2);
  EXPECT_EQ(header.find("value"), row2.find("22222"));
}

TEST(Table, CsvOutput) {
  io::Table t({"x", "y"});
  t.add_row({"1", "2"});
  t.add_row({"3", "4"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n3,4\n");
}

TEST(Table, CsvQuotesCommasQuotesAndNewlines) {
  io::Table t({"scheme", "note"});
  t.add_row({"hydra/tie=lowest-index", "a,b"});
  t.add_row({"say \"hi\"", "line1\nline2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(),
            "scheme,note\n"
            "hydra/tie=lowest-index,\"a,b\"\n"
            "\"say \"\"hi\"\"\",\"line1\nline2\"\n");
}

TEST(Table, CsvQuoteHelper) {
  EXPECT_EQ(io::csv_quote("plain"), "plain");
  EXPECT_EQ(io::csv_quote("a,b"), "\"a,b\"");
  EXPECT_EQ(io::csv_quote("q\"q"), "\"q\"\"q\"");
  EXPECT_EQ(io::csv_quote("nl\n"), "\"nl\n\"");
  EXPECT_EQ(io::csv_quote(""), "");
}

TEST(Table, RowWidthEnforced) {
  io::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(io::Table({}), std::invalid_argument);
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST(Table, IndentApplied) {
  io::Table t({"h"});
  t.add_row({"v"});
  std::ostringstream os;
  t.print(os, 4);
  std::istringstream lines(os.str());
  std::string line;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.rfind("    ", 0), 0u) << "line not indented: '" << line << "'";
  }
}

TEST(Fmt, FixedPrecision) {
  EXPECT_EQ(io::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(io::fmt(2.0, 0), "2");
  EXPECT_EQ(io::fmt(-0.5, 1), "-0.5");
  EXPECT_EQ(io::fmt_percent(12.345, 1), "12.3%");
}

TEST(Banner, ContainsTitle) {
  std::ostringstream os;
  io::print_banner(os, "Fig. 1");
  EXPECT_NE(os.str().find("== Fig. 1 =="), std::string::npos);
}

TEST(TasksetIo, RoundTripsTheUavCaseStudy) {
  const auto original = hydra::gen::uav_case_study(4);
  const auto parsed = io::instance_from_text(io::to_text(original));
  EXPECT_EQ(parsed.num_cores, original.num_cores);
  ASSERT_EQ(parsed.rt_tasks.size(), original.rt_tasks.size());
  ASSERT_EQ(parsed.security_tasks.size(), original.security_tasks.size());
  for (std::size_t i = 0; i < original.rt_tasks.size(); ++i) {
    EXPECT_EQ(parsed.rt_tasks[i].name, original.rt_tasks[i].name);
    EXPECT_DOUBLE_EQ(parsed.rt_tasks[i].wcet, original.rt_tasks[i].wcet);
    EXPECT_DOUBLE_EQ(parsed.rt_tasks[i].period, original.rt_tasks[i].period);
    EXPECT_DOUBLE_EQ(parsed.rt_tasks[i].deadline, original.rt_tasks[i].deadline);
  }
  for (std::size_t i = 0; i < original.security_tasks.size(); ++i) {
    EXPECT_DOUBLE_EQ(parsed.security_tasks[i].wcet, original.security_tasks[i].wcet);
    EXPECT_DOUBLE_EQ(parsed.security_tasks[i].period_des,
                     original.security_tasks[i].period_des);
    EXPECT_DOUBLE_EQ(parsed.security_tasks[i].period_max,
                     original.security_tasks[i].period_max);
    EXPECT_DOUBLE_EQ(parsed.security_tasks[i].weight, original.security_tasks[i].weight);
  }
}

TEST(TasksetIo, ParsesOptionalFieldsAndComments) {
  const std::string text = R"(# comment line
cores 2
rt ctl 2.5 10      # implicit deadline
rt sense 1 20 15   # constrained deadline
sec mon 100 1000 10000 2.5
)";
  const auto inst = io::instance_from_text(text);
  EXPECT_EQ(inst.num_cores, 2u);
  ASSERT_EQ(inst.rt_tasks.size(), 2u);
  EXPECT_DOUBLE_EQ(inst.rt_tasks[0].deadline, 10.0);
  EXPECT_DOUBLE_EQ(inst.rt_tasks[1].deadline, 15.0);
  ASSERT_EQ(inst.security_tasks.size(), 1u);
  EXPECT_DOUBLE_EQ(inst.security_tasks[0].weight, 2.5);
}

TEST(TasksetIo, RejectsMalformedInput) {
  EXPECT_THROW(io::instance_from_text("rt a 1 10\n"), std::invalid_argument);  // no cores
  EXPECT_THROW(io::instance_from_text("cores 0\n"), std::invalid_argument);
  EXPECT_THROW(io::instance_from_text("cores 2\nbogus x\n"), std::invalid_argument);
  EXPECT_THROW(io::instance_from_text("cores 2\nrt a 1\n"), std::invalid_argument);
  // Semantic failure: WCET exceeds the period.
  EXPECT_THROW(io::instance_from_text("cores 2\nrt a 20 10\n"), std::invalid_argument);
}

TEST(TasksetIo, ASecondCoresRecordIsAnErrorNamingItsLine) {
  // Used to parse, with the last record's core count winning.
  try {
    io::instance_from_text("cores 2\nrt a 1 10\n# platform\ncores 4\n");
    FAIL() << "a second cores record was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("taskset parse error at line 4"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(io::instance_from_text("cores 2\ncores 2\n"), std::invalid_argument);
}

TEST(TasksetIo, EveryRecordMustUseUpItsWholeLine) {
  // Each of these used to parse silently: "2.5" read as 2 cores, "10x" left
  // the deadline at the period, and the trailing "junk" was ignored.
  const std::pair<const char*, const char*> cases[] = {
      {"cores 2.5\nrt a 1 10\n", "line 1"},
      {"cores 2\nrt a 1 10x\n", "line 2"},
      {"cores 2\nrt a 1 10\nsec s 1 10 20 1 junk\n", "line 3"},
      {"cores 2 4\n", "line 1"},
      {"cores 2\nrt a 1 10 10 10\n", "line 2"},
  };
  for (const auto& [text, line] : cases) {
    try {
      io::instance_from_text(text);
      FAIL() << "accepted: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("taskset parse error at ") + line),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(TasksetIo, ErrorNamesTheLine) {
  try {
    io::instance_from_text("cores 2\nrt broken\n");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(TasksetIo, FileRoundTrip) {
  const auto original = hydra::gen::uav_case_study(2);
  const std::string path = "/tmp/hydra_taskset_io_test.txt";
  io::save_instance(original, path);
  const auto loaded = io::load_instance(path);
  EXPECT_EQ(loaded.rt_tasks.size(), original.rt_tasks.size());
  EXPECT_EQ(loaded.security_tasks.size(), original.security_tasks.size());
  std::remove(path.c_str());
  EXPECT_THROW(io::load_instance("/nonexistent/dir/x.txt"), std::runtime_error);
}
