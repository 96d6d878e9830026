#include <gtest/gtest.h>

#include <atomic>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "util/rng.h"
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

// The formatting helpers are checked against what they replace in the
// response writers: a std::ostringstream in its default float format.
std::string Streamed(double v, int precision) {
  std::ostringstream os;
  os.precision(precision);
  os << v;
  return os.str();
}

std::string Appended(double v, int precision) {
  std::string out = "x";  // Appends after what is already there.
  AppendDouble(&out, v, precision);
  return out.substr(1);
}

TEST(StringsTest, AppendDoubleMatchesOstream) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> inputs = {
      0.0, -0.0, kInf, -kInf, nan, -nan,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(), DBL_MIN / 3.0,
      -DBL_MIN / 7.0, DBL_MIN, -DBL_MIN, DBL_MAX, -DBL_MAX,
      0.5, 1.0 / 3.0, 2.0 / 3.0, 123456.5, 999999.5, 9999995.0,
      0.0001, 0.00001, 1e-5 * 0.99999999, 99.99995, 1e12 - 0.5};
  for (int e = -20; e <= 20; ++e) {
    const double x = std::pow(10.0, e);
    for (double v : {x, std::nextafter(x, 0.0), std::nextafter(x, kInf)}) {
      inputs.push_back(v);
      inputs.push_back(-v);
    }
  }
  Rng rng(20261017);
  for (int i = 0; i < 100000; ++i) {
    double v;
    if (i % 2 == 0) {
      // Any bit pattern: every exponent, denormals, infinities and NaNs.
      const uint64_t bits = rng.Next();
      std::memcpy(&v, &bits, sizeof(v));
    } else {
      // Magnitudes like the served candidate fields.
      v = rng.UniformReal(-1.0, 1.0) *
          std::pow(10.0, static_cast<double>(rng.Uniform(-8, 8)));
    }
    inputs.push_back(v);
  }
  for (int precision : {6, 12}) {
    for (double v : inputs) {
      ASSERT_EQ(Appended(v, precision), Streamed(v, precision))
          << "precision " << precision;
    }
  }
  for (int precision : {0, 1, 17, 40}) {
    for (double v : {0.1, -1e300, 123.456, 5e-324}) {
      EXPECT_EQ(Appended(v, precision), Streamed(v, precision));
    }
  }
}

TEST(StringsTest, AppendIntMatchesOstream) {
  std::vector<int64_t> inputs = {0, 1, -1, INT64_MAX, INT64_MIN,
                                 INT64_MAX - 1, INT64_MIN + 1};
  for (int64_t p = 10; p <= INT64_MAX / 10; p *= 10) {
    for (int64_t v : {p, p - 1, -p, 1 - p}) {
      inputs.push_back(v);
    }
  }
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    inputs.push_back(static_cast<int64_t>(rng.Next()));
  }
  for (int64_t v : inputs) {
    std::ostringstream os;
    os << v;
    std::string out = "x";
    AppendInt(&out, v);
    ASSERT_EQ(out.substr(1), os.str());
  }
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
