/// Tests for the small utility pieces: stats accumulator, string helpers,
/// table printer, env parsing, timers, logging.

#include <cstdlib>
#include <sstream>

#include <gtest/gtest.h>

#include "util/env.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/timer.h"

namespace xsum {
namespace {

// --- StatAccumulator -------------------------------------------------------

TEST(StatAccumulatorTest, EmptyDefaults) {
  StatAccumulator acc;
  EXPECT_TRUE(acc.empty());
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.Mean(), 0.0);
  EXPECT_EQ(acc.Min(), 0.0);
  EXPECT_EQ(acc.Max(), 0.0);
  EXPECT_EQ(acc.StdDev(), 0.0);
  EXPECT_EQ(acc.Percentile(50), 0.0);
}

TEST(StatAccumulatorTest, BasicMoments) {
  StatAccumulator acc;
  for (double v : {1.0, 2.0, 3.0, 4.0}) acc.Add(v);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.Mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.Min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.Max(), 4.0);
  EXPECT_DOUBLE_EQ(acc.Sum(), 10.0);
  EXPECT_NEAR(acc.StdDev(), 1.29099, 1e-4);
}

TEST(StatAccumulatorTest, Percentiles) {
  StatAccumulator acc;
  for (int i = 1; i <= 100; ++i) acc.Add(i);
  EXPECT_DOUBLE_EQ(acc.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(acc.Percentile(100), 100.0);
  EXPECT_NEAR(acc.Median(), 50.5, 0.01);
  EXPECT_NEAR(acc.Percentile(95), 95.05, 0.1);
}

TEST(StatAccumulatorTest, ResetClears) {
  StatAccumulator acc;
  acc.Add(5.0);
  acc.Reset();
  EXPECT_TRUE(acc.empty());
  EXPECT_EQ(acc.Sum(), 0.0);
}

TEST(StatAccumulatorTest, WindowBoundsRetainedSample) {
  StatAccumulator acc(/*window=*/4);
  for (int i = 1; i <= 100; ++i) acc.Add(i);
  // Full-history statistics are unaffected by the window.
  EXPECT_EQ(acc.count(), 100u);
  EXPECT_DOUBLE_EQ(acc.Sum(), 5050.0);
  EXPECT_DOUBLE_EQ(acc.Mean(), 50.5);
  // Sample statistics cover only the last 4 observations (97..100).
  EXPECT_DOUBLE_EQ(acc.Min(), 97.0);
  EXPECT_DOUBLE_EQ(acc.Max(), 100.0);
  EXPECT_DOUBLE_EQ(acc.Percentile(0), 97.0);
  EXPECT_DOUBLE_EQ(acc.Percentile(100), 100.0);
  acc.Reset();
  EXPECT_TRUE(acc.empty());
  acc.Add(7.0);  // ring restarts cleanly after Reset
  EXPECT_DOUBLE_EQ(acc.Max(), 7.0);
  EXPECT_EQ(acc.count(), 1u);
}

TEST(StatAccumulatorTest, SingleValueStdDevZero) {
  StatAccumulator acc;
  acc.Add(3.0);
  EXPECT_EQ(acc.StdDev(), 0.0);
  EXPECT_EQ(acc.Median(), 3.0);
}

// --- string_util -----------------------------------------------------------

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"a"}, ","), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StringUtilTest, Split) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",x,", ','), (std::vector<std::string>{"", "x", ""}));
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim("\t\n x \r"), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("foobar", "bar"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_FALSE(StartsWith("", "x"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("foobar", "foo"));
}

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("AbC123"), "abc123");
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
}

TEST(StringUtilTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(1536), "1.50 KiB");
  EXPECT_EQ(FormatBytes(3 * 1024 * 1024), "3.00 MiB");
}

TEST(StringUtilTest, FormatCount) {
  EXPECT_EQ(FormatCount(0), "0");
  EXPECT_EQ(FormatCount(999), "999");
  EXPECT_EQ(FormatCount(1000), "1,000");
  EXPECT_EQ(FormatCount(1125631), "1,125,631");
  EXPECT_EQ(FormatCount(-1234567), "-1,234,567");
}

TEST(StringUtilTest, StrCat) {
  EXPECT_EQ(StrCat("k=", 10), "k=10");
  EXPECT_EQ(StrCat("a", "b", 1, 'c'), "ab1c");
}

// --- TextTable --------------------------------------------------------------

TEST(TextTableTest, AlignsColumns) {
  TextTable table({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"longer", "22"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  // Header rule present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TextTableTest, MissingCellsRenderEmpty) {
  TextTable table({"a", "b", "c"});
  table.AddRow({"x"});
  EXPECT_EQ(table.num_rows(), 1u);
  EXPECT_NE(table.ToString().find('x'), std::string::npos);
}

TEST(TextTableTest, DoubleRow) {
  TextTable table({"m", "k=1", "k=2"});
  table.AddDoubleRow("st", {0.5, 0.25}, 2);
  const std::string out = table.ToString();
  EXPECT_NE(out.find("0.50"), std::string::npos);
  EXPECT_NE(out.find("0.25"), std::string::npos);
}

TEST(TextTableTest, Csv) {
  TextTable table({"a", "b"});
  table.AddRow({"1", "2"});
  EXPECT_EQ(table.ToCsv(), "a,b\n1,2\n");
}

// --- env ---------------------------------------------------------------------

TEST(EnvTest, FallbacksWhenUnset) {
  unsetenv("XSUM_TEST_VAR");
  EXPECT_DOUBLE_EQ(GetEnvDouble("XSUM_TEST_VAR", 1.5), 1.5);
  EXPECT_EQ(GetEnvInt("XSUM_TEST_VAR", 7), 7);
  EXPECT_EQ(GetEnvString("XSUM_TEST_VAR", "d"), "d");
}

TEST(EnvTest, ParsesValues) {
  setenv("XSUM_TEST_VAR", "2.25", 1);
  EXPECT_DOUBLE_EQ(GetEnvDouble("XSUM_TEST_VAR", 0), 2.25);
  setenv("XSUM_TEST_VAR", "123", 1);
  EXPECT_EQ(GetEnvInt("XSUM_TEST_VAR", 0), 123);
  EXPECT_EQ(GetEnvString("XSUM_TEST_VAR", ""), "123");
  unsetenv("XSUM_TEST_VAR");
}

TEST(EnvTest, InvalidFallsBack) {
  setenv("XSUM_TEST_VAR", "not-a-number", 1);
  EXPECT_DOUBLE_EQ(GetEnvDouble("XSUM_TEST_VAR", 9.0), 9.0);
  EXPECT_EQ(GetEnvInt("XSUM_TEST_VAR", 8), 8);
  unsetenv("XSUM_TEST_VAR");
}

TEST(EnvTest, GarbageWarnsAndFallsBack) {
  // A partial numeric prefix must not silently parse ("12abc" != 12).
  setenv("XSUM_TEST_VAR", "12abc", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(GetEnvInt("XSUM_TEST_VAR", 8), 8);
  std::string log = testing::internal::GetCapturedStderr();
  EXPECT_NE(log.find("XSUM_TEST_VAR"), std::string::npos);
  EXPECT_NE(log.find("not a valid"), std::string::npos);

  setenv("XSUM_TEST_VAR", "3.5x", 1);
  testing::internal::CaptureStderr();
  EXPECT_DOUBLE_EQ(GetEnvDouble("XSUM_TEST_VAR", 9.0), 9.0);
  log = testing::internal::GetCapturedStderr();
  EXPECT_NE(log.find("not a valid"), std::string::npos);
  unsetenv("XSUM_TEST_VAR");
}

TEST(EnvTest, OutOfRangeWarnsAndFallsBack) {
  // Saturating parses (strtoll/strtod ERANGE) are invalid, not silently
  // clamped to LLONG_MAX / inf.
  setenv("XSUM_TEST_VAR", "99999999999999999999999", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(GetEnvInt("XSUM_TEST_VAR", 8), 8);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("not a valid"),
            std::string::npos);
  setenv("XSUM_TEST_VAR", "1e999", 1);
  testing::internal::CaptureStderr();
  EXPECT_DOUBLE_EQ(GetEnvDouble("XSUM_TEST_VAR", 9.0), 9.0);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("not a valid"),
            std::string::npos);
  unsetenv("XSUM_TEST_VAR");
}

TEST(EnvTest, TrailingWhitespaceIsAccepted) {
  setenv("XSUM_TEST_VAR", "42 ", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(GetEnvInt("XSUM_TEST_VAR", 0), 42);
  EXPECT_TRUE(testing::internal::GetCapturedStderr().empty());
  unsetenv("XSUM_TEST_VAR");
}

TEST(EnvTest, NonNegativeRejectsNegativeWithWarning) {
  setenv("XSUM_TEST_VAR", "-3", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(GetEnvNonNegativeInt("XSUM_TEST_VAR", 5), 5);
  const std::string log = testing::internal::GetCapturedStderr();
  EXPECT_NE(log.find("negative"), std::string::npos);
  setenv("XSUM_TEST_VAR", "3", 1);
  EXPECT_EQ(GetEnvNonNegativeInt("XSUM_TEST_VAR", 5), 3);
  unsetenv("XSUM_TEST_VAR");
}

// --- timer ---------------------------------------------------------------------

TEST(WallTimerTest, MeasuresElapsed) {
  WallTimer timer;
  timer.Start();
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(timer.ElapsedNanos(), 0);
  EXPECT_GE(timer.ElapsedMillis(), 0.0);
  EXPECT_LE(timer.ElapsedSeconds(), 60.0);
}

TEST(ScopedTimerTest, AccumulatesOnDestruction) {
  int64_t acc = 0;
  {
    ScopedTimer t(&acc);
    volatile double sink = 0;
    for (int i = 0; i < 10000; ++i) sink = sink + i;
  }
  EXPECT_GT(acc, 0);
}

// --- logging ---------------------------------------------------------------------

TEST(LoggingTest, LevelGetSet) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(LogLevel::kOff);
  LogMessage(LogLevel::kError, "suppressed");  // must not crash
  XSUM_LOG_DEBUG << "also suppressed " << 42;
  SetLogLevel(original);
}

}  // namespace
}  // namespace xsum
