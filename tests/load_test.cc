// Tests for the §6 load analysis (Figures 9-10).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/load.h"
#include "util/rng.h"

namespace entrace {
namespace {

TEST(Load, PeakDropsWithWiderTimescale) {
  TraceLoadRaw raw;
  raw.trace_name = "t";
  // One 1-second burst of 50 Mb inside an otherwise quiet minute.
  raw.add_packet(10.2, 6250000);  // 50 Mbit in one packet-equivalent
  for (int i = 0; i < 60; ++i) raw.add_packet(i + 0.5, 125);  // 1 kbit/s background
  LoadAnalysis load = LoadAnalysis::compute({raw}, /*min_packets=*/1);
  ASSERT_EQ(load.peak_1s.count(), 1u);
  const double p1 = load.peak_1s.max();
  const double p10 = load.peak_10s.max();
  const double p60 = load.peak_60s.max();
  EXPECT_GT(p1, 45.0);
  EXPECT_LT(p10, p1);
  EXPECT_LT(p60, p10);
}

TEST(Load, PeakMbpsAveragesTheBusiestBin) {
  TraceLoadRaw raw;
  // 10 Mbit inside one second: 1000 packets of 1250 bytes.
  for (int i = 0; i < 1000; ++i) raw.add_packet(30.0 + i * 0.001, 1250);
  EXPECT_NEAR(LoadAnalysis::peak_mbps(raw.bits_1s, 1), 10.0, 1e-9);
  EXPECT_NEAR(LoadAnalysis::peak_mbps(raw.bits_1s, 10), 1.0, 1e-9);
  EXPECT_NEAR(LoadAnalysis::peak_mbps(raw.bits_1s, 60), 10.0 / 60.0, 1e-9);
}

// Figure 9's 10 s and 60 s peaks are summed from the 1 s bins.  Each case
// puts equal loads on both sides of an interval edge (or of zero): the
// derived peaks must split them exactly as binning the timestamps directly
// by floor(t / 10) and floor(t / 60) does.
TEST(Load, DerivedPeaksMatchDirectBinningAtBinEdges) {
  const std::vector<std::vector<double>> cases = {
      {9.999999999999998, 10.0},
      {59.99999999999999, 60.0},
      {119.99999999999999, 60.0},
      {-0.5, 0.5},
      {9.999999999999998, 10.0, 59.99999999999999, 60.0, 119.99999999999999, -0.5}};
  const auto direct_peak = [](const std::vector<double>& ts, double seconds) {
    std::map<double, double> bins;
    for (const double t : ts) bins[std::floor(t / seconds)] += 8.0 * 1250;
    double best = 0.0;
    for (const auto& [bin, bits] : bins) best = std::max(best, bits / seconds);
    return best / 1e6;
  };
  for (const std::vector<double>& ts : cases) {
    SCOPED_TRACE(::testing::PrintToString(ts));
    TraceLoadRaw raw;
    raw.trace_name = "edges";
    for (const double t : ts) raw.add_packet(t, 1250);
    const LoadAnalysis load = LoadAnalysis::compute({raw}, 1);
    EXPECT_EQ(load.peak_10s.max(), direct_peak(ts, 10.0));
    EXPECT_EQ(load.peak_60s.max(), direct_peak(ts, 60.0));
  }
}

TEST(Load, TypicalUtilizationOrdersBelowPeak) {
  TraceLoadRaw raw;
  raw.trace_name = "t";
  for (int i = 0; i < 600; ++i) raw.add_packet(i * 0.1, 1250);  // ~100 kbps steady
  raw.add_packet(30.0, 12500000);                               // one 100 Mb spike
  LoadAnalysis load = LoadAnalysis::compute({raw}, 1);
  EXPECT_GT(load.max_1s.max() / load.median_1s.max(), 50.0);
}

TEST(Load, RetransmissionRates) {
  TraceLoadRaw a;
  a.trace_name = "clean";
  a.ent_tcp_pkts = 10000;
  a.ent_retx = 50;  // 0.5%
  a.wan_tcp_pkts = 5000;
  a.wan_retx = 100;  // 2%
  a.add_packet(0.0, 100);
  TraceLoadRaw b;
  b.trace_name = "lossy";
  b.ent_tcp_pkts = 10000;
  b.ent_retx = 500;  // 5% — the Veritas trace
  b.wan_tcp_pkts = 100;  // below min_packets: skipped
  b.wan_retx = 10;
  b.add_packet(0.0, 100);

  LoadAnalysis load = LoadAnalysis::compute({a, b}, 1000);
  ASSERT_EQ(load.retx_ent.count(), 2u);
  EXPECT_NEAR(load.retx_ent.min(), 0.005, 1e-9);
  EXPECT_NEAR(load.retx_ent.max(), 0.05, 1e-9);
  ASSERT_EQ(load.retx_wan.count(), 1u);  // the tiny trace was skipped
  EXPECT_NEAR(load.retx_wan.max(), 0.02, 1e-9);
  EXPECT_EQ(load.retx_wan_by_trace[1], -1.0);
}

TEST(Load, KeepalivesTracked) {
  TraceLoadRaw a;
  a.trace_name = "ka";
  a.keepalive_excluded = 42;
  a.add_packet(0.0, 100);
  LoadAnalysis load = LoadAnalysis::compute({a}, 1);
  EXPECT_EQ(load.keepalives_excluded, 42u);
}

// Figure 9(b)'s statistics the dense way: one sample per second from the
// first bin to the last, an empty second as 0 Mbps, queried in
// LoadAnalysis::compute's order (min() sorts, so mean() sums ascending).
struct SecondStats {
  double min, max, mean, p25, median, p75;
};

SecondStats dense_reference(const IntervalSeries& series) {
  const auto& bins = series.bins();
  EmpiricalCdf cdf;
  for (std::int64_t s = bins.begin()->first; s <= bins.rbegin()->first; ++s) {
    const auto it = bins.find(s);
    cdf.add((it == bins.end() ? 0.0 : it->second) / 1e6);
  }
  const double min = cdf.min();
  return {min, cdf.max(), cdf.mean(), cdf.quantile(0.25), cdf.median(), cdf.quantile(0.75)};
}

// One trace's statistics as LoadAnalysis computes them from the sparse bins.
SecondStats sparse_stats(const IntervalSeries& series) {
  TraceLoadRaw raw;
  raw.bits_1s = series;
  const LoadAnalysis load = LoadAnalysis::compute({raw}, 1);
  return {load.min_1s.max(),    load.max_1s.max(),    load.avg_1s.max(),
          load.p25_1s.max(),    load.median_1s.max(), load.p75_1s.max()};
}

void expect_same_bits(const SecondStats& got, const SecondStats& want) {
  EXPECT_EQ(got.min, want.min);
  EXPECT_EQ(got.max, want.max);
  EXPECT_EQ(got.mean, want.mean);
  EXPECT_EQ(got.p25, want.p25);
  EXPECT_EQ(got.median, want.median);
  EXPECT_EQ(got.p75, want.p75);
}

// Exact, bit for bit, against the dense reference: bins on both sides of
// zero seconds, gaps of every size, populated bins holding zero and, from
// a decoded file, negative values.
TEST(Load, SparseSecondStatsMatchDenseReference) {
  Rng rng(2005);
  for (int round = 0; round < 300; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::map<std::int64_t, double> bins;
    const std::uint64_t n = rng.uniform_int(1, 12);
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto second = static_cast<std::int64_t>(rng.uniform_int(0, 60)) - 30;
      double bits = 8.0 * static_cast<double>(rng.uniform_int(0, 2000000));
      if (rng.bernoulli(0.15)) bits = 0.0;
      if (round % 5 == 4 && rng.bernoulli(0.3)) bits = -bits;
      bins[second] = bits;
    }
    IntervalSeries series;
    series.restore_bins(std::move(bins));
    expect_same_bits(sparse_stats(series), dense_reference(series));
  }
}

// Two packets 10^13 seconds apart: the statistics count 10^13 - 1 empty
// seconds without allocating one slot per second.
TEST(Load, FarApartBinsCountTheGapWithoutStoringIt) {
  TraceLoadRaw raw;
  raw.add_packet(0.5, 500000);   // 4 Mbit in second 0
  raw.add_packet(1e13, 250000);  // 2 Mbit in second 10^13
  const LoadAnalysis load = LoadAnalysis::compute({raw}, 1);
  const double seconds = 1e13 + 1;
  EXPECT_EQ(load.min_1s.max(), 0.0);
  EXPECT_EQ(load.max_1s.max(), 4.0);
  EXPECT_EQ(load.avg_1s.max(), (0.0 + 2.0 + 4.0) / seconds);
  EXPECT_EQ(load.p25_1s.max(), 0.0);
  EXPECT_EQ(load.median_1s.max(), 0.0);
  EXPECT_EQ(load.p75_1s.max(), 0.0);
  EXPECT_EQ(load.peak_1s.max(), 4.0);
}

TEST(Load, EmptyTraceIsSafe) {
  TraceLoadRaw empty;
  empty.trace_name = "empty";
  LoadAnalysis load = LoadAnalysis::compute({empty}, 1);
  EXPECT_EQ(load.peak_1s.count(), 0u);
  EXPECT_EQ(load.retx_ent.count(), 0u);
}

}  // namespace
}  // namespace entrace
