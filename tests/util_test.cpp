#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/threadpool.hpp"

namespace saps {
namespace {

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), std::invalid_argument);
}

TEST(Table, AlignedContainsAllCells) {
  Table t({"algo", "acc"});
  t.add_row({"SAPS-PSGD", "99.17"});
  const auto s = t.to_aligned();
  EXPECT_NE(s.find("SAPS-PSGD"), std::string::npos);
  EXPECT_NE(s.find("99.17"), std::string::npos);
  EXPECT_NE(s.find("algo"), std::string::npos);
}

TEST(Table, CsvFormat) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "x,y\n1,2\n");
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(static_cast<long long>(42)), "42");
}

TEST(Flags, ParsesKeyValue) {
  const char* argv[] = {"prog", "--workers=32", "--lr=0.05", "--verbose"};
  Flags f(4, const_cast<char**>(argv));
  EXPECT_EQ(f.get_string("workers", ""), "32");
  EXPECT_EQ(f.get_string("lr", ""), "0.05");
  EXPECT_EQ(f.get_string("verbose", ""), "true");  // bare flag
  EXPECT_EQ(f.get_string("missing", "7"), "7");
}

TEST(Flags, RejectsMalformedToken) {
  const char* argv[] = {"prog", "workers=32"};
  EXPECT_THROW(Flags(2, const_cast<char**>(argv)), std::invalid_argument);
}

TEST(Flags, HelpListsDescribedFlagsInOrder) {
  const char* argv[] = {"prog", "--help"};
  Flags f(2, const_cast<char**>(argv));
  f.describe("workers", "worker count").describe("lr", "learning rate");
  EXPECT_TRUE(f.help_requested());
  const auto h = f.help("prog");
  const auto workers_at = h.find("--workers");
  const auto lr_at = h.find("--lr");
  const auto help_at = h.find("--help");
  ASSERT_NE(workers_at, std::string::npos);
  ASSERT_NE(lr_at, std::string::npos);
  ASSERT_NE(help_at, std::string::npos);
  EXPECT_LT(workers_at, lr_at);  // registration order preserved
  EXPECT_NE(h.find("worker count"), std::string::npos);
  EXPECT_NE(h.find("Usage: prog"), std::string::npos);
}

TEST(Flags, StrictModeRejectsUnknownFlag) {
  const char* argv[] = {"prog", "--workers=4", "--wrokers=8"};
  Flags f(3, const_cast<char**>(argv));
  f.describe("workers", "worker count");
  EXPECT_THROW(f.check_unknown(), std::invalid_argument);
}

TEST(Flags, StrictModeAcceptsDescribedAndHelp) {
  const char* argv[] = {"prog", "--workers=4", "--help"};
  Flags f(3, const_cast<char**>(argv));
  f.describe("workers", "worker count");
  EXPECT_NO_THROW(f.check_unknown());  // --help is implicitly known
}

TEST(RunningStat, WelfordMean) {
  RunningStat s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Welford's update, not sum / n, which gives 0x1.999999999999bp-3 here:
  // Fig. 5's printed means keep every digit only under the update they
  // were captured with.
  RunningStat t;
  for (const double v : {0.1, 0.2, 0.3}) t.add(v);
  EXPECT_EQ(t.mean(), 0x1.999999999999ap-3);
}

TEST(ThreadPool, RunsAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(
                   8,
                   [](std::size_t i) {
                     if (i == 3) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
}

TEST(ThreadPool, ZeroTasksIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

}  // namespace
}  // namespace saps
