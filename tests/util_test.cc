// Unit tests for util: RNG, distributions, statistics, tables, flag parsing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>

#include "util/cdf_plot.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"

namespace entrace {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkedStreamsAreDeterministicAndIndependent) {
  Rng parent1(7), parent2(7);
  Rng c1 = parent1.fork(3);
  Rng c2 = parent2.fork(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(c1.next_u64(), c2.next_u64());
  Rng c3 = parent1.fork(4);
  EXPECT_NE(c1.next_u64(), c3.next_u64());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(10);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 7u);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.25);
}

TEST(Rng, ParetoStaysInBounds) {
  Rng rng(12);
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.pareto(1.2, 10.0, 1000.0);
    EXPECT_GE(x, 10.0);
    EXPECT_LE(x, 1000.0);
  }
}

TEST(Rng, ParetoIsHeavyTailed) {
  Rng rng(13);
  int above_100 = 0;
  for (int i = 0; i < 10000; ++i)
    if (rng.pareto(1.0, 1.0, 1e6) > 100.0) ++above_100;
  // P(X > 100) ~ 1/100 for alpha=1.
  EXPECT_GT(above_100, 20);
  EXPECT_LT(above_100, 500);
}

TEST(Rng, ZipfFavorsLowRanks) {
  Rng rng(14);
  int rank0 = 0, rank_high = 0;
  for (int i = 0; i < 5000; ++i) {
    const std::size_t r = rng.zipf(100, 1.0);
    EXPECT_LT(r, 100u);
    if (r == 0) ++rank0;
    if (r >= 50) ++rank_high;
  }
  EXPECT_GT(rank0, rank_high / 4);
  EXPECT_GT(rank0, 300);
}

TEST(Rng, WeightedRespectsWeights) {
  Rng rng(16);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 9000; ++i) ++counts[rng.weighted({1.0, 2.0, 6.0})];
  EXPECT_GT(counts[2], counts[1]);
  EXPECT_GT(counts[1], counts[0]);
  EXPECT_NEAR(counts[2], 6000, 600);
}

TEST(Rng, WeightedAllZeroReturnsLast) {
  Rng rng(17);
  EXPECT_EQ(rng.weighted({0.0, 0.0, 0.0}), 2u);
}

TEST(EmpiricalCdf, QuantilesOnKnownData) {
  EmpiricalCdf cdf;
  for (int i = 1; i <= 100; ++i) cdf.add(i);
  EXPECT_DOUBLE_EQ(cdf.min(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 100.0);
  EXPECT_NEAR(cdf.median(), 50.5, 0.01);
  EXPECT_NEAR(cdf.quantile(0.25), 25.75, 0.01);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 100.0);
}

TEST(EmpiricalCdf, FractionBelow) {
  EmpiricalCdf cdf;
  for (int i = 1; i <= 10; ++i) cdf.add(i);
  EXPECT_DOUBLE_EQ(cdf.fraction_below(5.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.fraction_below(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_below(10.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_below(100.0), 1.0);
}

TEST(EmpiricalCdf, EmptyIsSafe) {
  EmpiricalCdf cdf;
  EXPECT_EQ(cdf.count(), 0u);
  EXPECT_DOUBLE_EQ(cdf.median(), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_below(1.0), 0.0);
}

TEST(EmpiricalCdf, AddNWeights) {
  EmpiricalCdf cdf;
  cdf.add_n(1.0, 99);
  cdf.add(100.0);
  EXPECT_EQ(cdf.count(), 100u);
  EXPECT_DOUBLE_EQ(cdf.fraction_below(1.0), 0.99);
}

TEST(EmpiricalCdf, QuantileEdgeConventions) {
  // Documented in stats.h: empty -> 0.0, one sample -> that sample for any
  // q, q outside [0,1] clamps to the extremes.
  EmpiricalCdf empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EmpiricalCdf one;
  one.add(7.5);
  EXPECT_DOUBLE_EQ(one.quantile(0.0), 7.5);
  EXPECT_DOUBLE_EQ(one.quantile(0.5), 7.5);
  EXPECT_DOUBLE_EQ(one.quantile(1.0), 7.5);
  EmpiricalCdf two;
  two.add(1.0);
  two.add(2.0);
  EXPECT_DOUBLE_EQ(two.quantile(-0.5), 1.0);
  EXPECT_DOUBLE_EQ(two.quantile(1.5), 2.0);
  EXPECT_DOUBLE_EQ(two.quantile(0.5), 1.5);  // type-7 linear interpolation
}

TEST(BreakdownCounter, FractionsAndOrdering) {
  BreakdownCounter c;
  c.add("alpha", 10, 100);
  c.add("beta", 30, 50);
  c.add("alpha", 5, 25);
  EXPECT_EQ(c.count("alpha"), 15u);
  EXPECT_EQ(c.bytes("alpha"), 125u);
  EXPECT_DOUBLE_EQ(c.count_fraction("beta"), 30.0 / 45.0);
  EXPECT_DOUBLE_EQ(c.bytes_fraction("alpha"), 125.0 / 175.0);
  EXPECT_EQ(c.keys_by_count().front(), "beta");
  EXPECT_EQ(c.count("missing"), 0u);
}

using Bins = std::map<std::int64_t, double>;

// A second without traffic holds no bin; the span from the first bin to
// the last still covers it (Figure 9(b) counts it as zero, load_test.cc).
TEST(IntervalSeries, BinsIncludeEmptyGaps) {
  IntervalSeries s;
  s.add(0.5, 10.0);
  s.add(0.7, 5.0);
  s.add(3.2, 1.0);
  EXPECT_EQ(s.bins(), (Bins{{0, 15.0}, {3, 1.0}}));
}

TEST(IntervalSeries, MergeOfDisjointRangesFillsTheGap) {
  IntervalSeries a;
  a.add(0.5, 1.0);
  a.add(1.5, 2.0);
  IntervalSeries b;
  b.add(5.5, 3.0);
  b.add(6.5, 4.0);
  IntervalSeries empty;
  empty.merge(b);
  EXPECT_EQ(empty.bins(), b.bins());
  a.merge(b);
  EXPECT_EQ(a.bins(), (Bins{{0, 1.0}, {1, 2.0}, {5, 3.0}, {6, 4.0}}));
  // Merging the earlier range into the later one covers the same bins.
  b.merge(a);
  EXPECT_EQ(b.bins(), (Bins{{0, 1.0}, {1, 2.0}, {5, 6.0}, {6, 8.0}}));
}

TEST(IntervalSeries, ValuesAfterRestoreBins) {
  IntervalSeries s;
  s.add(0.5, 9.0);
  s.restore_bins({{2, 1.0}, {5, 3.0}});
  EXPECT_EQ(s.bins(), (Bins{{2, 1.0}, {5, 3.0}}));
  s.add(6.1, 2.0);  // bin 6, after the restored range
  s.add(5.5, 1.0);  // bin 5, a restored bin
  EXPECT_EQ(s.bins(), (Bins{{2, 1.0}, {5, 4.0}, {6, 2.0}}));
  s.restore_bins({});
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.bins().empty());
}

TEST(IntervalSeries, NegativeBins) {
  IntervalSeries s;
  s.add(0.5, 4.0);    // bin 0
  s.add(-2.5, 1.0);   // bin -3
  s.add(-0.5, 2.0);   // bin -1
  s.add(-0.25, 2.0);  // bin -1 again
  EXPECT_EQ(s.bins(), (Bins{{-3, 1.0}, {-1, 4.0}, {0, 4.0}}));
}

TEST(Strings, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, TrimAndLower) {
  EXPECT_EQ(trim("  x y \r\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(to_lower("AbC"), "abc");
  EXPECT_TRUE(starts_with_icase("Content-Length: 5", "content-length"));
  EXPECT_FALSE(starts_with_icase("Con", "content"));
}

TEST(Strings, Formatting) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.00 KB");
  EXPECT_EQ(format_count(1500000), "1.5M");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_pct(0.66), "66%");
  EXPECT_EQ(format_pct(0.002), "0.2%");
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t("Title");
  t.set_header({"a", "long-header"});
  t.add_row({"x", "1"});
  t.add_rule();
  t.add_row({"yy", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("Title"), std::string::npos);
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find("| yy"), std::string::npos);
  // All lines the same width.
  std::size_t width = 0;
  std::size_t pos = out.find('\n') + 1;  // skip the title line
  while (pos < out.size()) {
    const std::size_t eol = out.find('\n', pos);
    if (width == 0) width = eol - pos;
    EXPECT_EQ(eol - pos, width);
    pos = eol + 1;
  }
}

TEST(CdfPlot, RenderIncludesSeries) {
  EmpiricalCdf a, b;
  for (int i = 1; i <= 50; ++i) a.add(i);
  for (int i = 1; i <= 50; ++i) b.add(i * 10);
  CdfPlot plot("demo", "bytes", true);
  plot.add_series("small", a);
  plot.add_series("big", b);
  const std::string out = plot.render();
  EXPECT_NE(out.find("small"), std::string::npos);
  EXPECT_NE(out.find("big"), std::string::npos);
  const std::string ascii = plot.render_ascii(40, 10);
  EXPECT_NE(ascii.find("= small"), std::string::npos);
}

// Seconds flags feed chrono and integer conversions, which are undefined
// for non-finite values, so only finite non-negative numbers parse.
TEST(Cli, NonNegDoubleRejectsNonFinite) {
  double v = 7.0;
  EXPECT_TRUE(cli::parse_nonneg_double("0", v));
  EXPECT_EQ(v, 0.0);
  EXPECT_TRUE(cli::parse_nonneg_double("1e300", v));
  EXPECT_EQ(v, 1e300);
  for (const char* bad : {"inf", "infinity", "nan", "1e999", "-1", "x", ""}) {
    v = 7.0;
    EXPECT_FALSE(cli::parse_nonneg_double(bad, v)) << bad;
    EXPECT_EQ(v, 7.0) << bad;  // a rejected value leaves the output alone
  }
}

// Each half of a "lo:hi" trace range follows parse_uint: digits only, no
// sign, no space, no overflow; and lo < hi.
TEST(Cli, IndexRangeParsesEachHalfStrictly) {
  std::size_t lo = 7, hi = 9;
  EXPECT_TRUE(cli::parse_index_range("0:22", lo, hi));
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 22u);
  EXPECT_TRUE(cli::parse_index_range("11:18446744073709551615", lo, hi));
  EXPECT_EQ(lo, 11u);
  EXPECT_EQ(hi, 18446744073709551615u);
  for (const char* bad : {"0:-1", "0:99999999999999999999999", "-0:2", "+0:2", " 0:2", "0: 3",
                          "0:2 ", "0:+2", "2:2", "3:2", "0:1:2", ":2", "0:", ":", "", "x:2"}) {
    lo = 7;
    hi = 9;
    EXPECT_FALSE(cli::parse_index_range(bad, lo, hi)) << "'" << bad << "'";
    EXPECT_EQ(lo, 7u) << bad;  // a rejected range leaves the outputs alone
    EXPECT_EQ(hi, 9u) << bad;
  }
}

// A scale multiplies packet budgets and durations, so a non-finite one
// ("inf", "1e999", "nan") must not parse, and an ENTRACE_SCALE holding one
// falls back to the default.
TEST(Cli, ScaleRejectsNonFinite) {
  double v = 7.0;
  EXPECT_TRUE(cli::parse_scale("0.01", v));
  EXPECT_EQ(v, 0.01);
  for (const char* bad : {"inf", "infinity", "nan", "1e999", "-inf", "0", "-1", "x", ""}) {
    v = 7.0;
    EXPECT_FALSE(cli::parse_scale(bad, v)) << bad;
    EXPECT_EQ(v, 7.0) << bad;
  }
  const char* saved = std::getenv("ENTRACE_SCALE");
  const std::string restore = saved != nullptr ? saved : "";
  for (const char* bad : {"inf", "1e999", "nan", "0", "-1"}) {
    ASSERT_EQ(setenv("ENTRACE_SCALE", bad, 1), 0);
    EXPECT_EQ(cli::env_scale(0.5), 0.5) << bad;
  }
  ASSERT_EQ(setenv("ENTRACE_SCALE", "0.25", 1), 0);
  EXPECT_EQ(cli::env_scale(0.5), 0.25);
  if (saved != nullptr) {
    setenv("ENTRACE_SCALE", restore.c_str(), 1);
  } else {
    unsetenv("ENTRACE_SCALE");
  }
}

}  // namespace
}  // namespace entrace
