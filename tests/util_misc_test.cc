#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "util/strings.h"
#include "util/thread_pool.h"
#include "util/units.h"

namespace dflow {
namespace {

TEST(StringsTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringsTest, SplitWhitespaceDropsEmpty) {
  EXPECT_EQ(SplitWhitespace("  a \t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"one"}, ","), "one");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("x"), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringsTest, ToLowerAndAffixes) {
  EXPECT_EQ(ToLower("MiXeD123"), "mixed123");
  EXPECT_TRUE(StartsWith("workflow", "work"));
  EXPECT_FALSE(StartsWith("work", "workflow"));
  EXPECT_TRUE(EndsWith("data.arc", ".arc"));
  EXPECT_FALSE(EndsWith(".arc", "data.arc"));
}

TEST(StringsTest, JsonQuoteEscapes) {
  EXPECT_EQ(JsonQuote(""), "\"\"");
  EXPECT_EQ(JsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(JsonQuote("say \"hi\""), "\"say \\\"hi\\\"\"");
  EXPECT_EQ(JsonQuote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(JsonQuote("l1\nl2\tx\ry"), "\"l1\\nl2\\tx\\ry\"");
  // Every other control byte is \u00XX (lowercase hex), \b and \f included.
  EXPECT_EQ(JsonQuote(std::string("\0\x01\b\f\x1f", 5)),
            "\"\\u0000\\u0001\\u0008\\u000c\\u001f\"");
  // DEL and UTF-8 multibyte sequences pass through byte for byte.
  EXPECT_EQ(JsonQuote("\x7f caf\xc3\xa9 \xe2\x82\xac"),
            "\"\x7f caf\xc3\xa9 \xe2\x82\xac\"");
}

TEST(UnitsTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(1500), "1.50 KB");
  EXPECT_EQ(FormatBytes(14 * kTB), "14.00 TB");
  EXPECT_EQ(FormatBytes(kPB), "1.00 PB");
  EXPECT_EQ(FormatBytes(-2 * kGB), "-2.00 GB");
}

TEST(UnitsTest, FormatDuration) {
  EXPECT_EQ(FormatDuration(0.0000005), "0.5 us");
  EXPECT_EQ(FormatDuration(0.25), "250.0 ms");
  EXPECT_EQ(FormatDuration(90.0), "1.50 min");
  EXPECT_EQ(FormatDuration(2 * kDay), "2.00 d");
  EXPECT_EQ(FormatDuration(5 * kYear), "5.00 yr");
}

TEST(UnitsTest, Constants) {
  EXPECT_EQ(kTB, 1000LL * kGB);
  EXPECT_EQ(kPB, 1000LL * kTB);
  EXPECT_DOUBLE_EQ(kWeek, 7 * 24 * 3600.0);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

std::atomic<long> benchmark_sink{0};

TEST(ThreadPoolTest, ParallelismActuallyUsed) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  for (int i = 0; i < 32; ++i) {
    pool.Submit([&] {
      int now = concurrent.fetch_add(1) + 1;
      int old_peak = peak.load();
      while (now > old_peak && !peak.compare_exchange_weak(old_peak, now)) {
      }
      // Busy-wait briefly so tasks overlap.
      for (int spin = 0; spin < 100000; ++spin) {
        benchmark_sink.fetch_add(1, std::memory_order_relaxed);
      }
      concurrent.fetch_sub(1);
    });
  }
  pool.Wait();
  EXPECT_GT(peak.load(), 1);
}

}  // namespace
}  // namespace dflow
