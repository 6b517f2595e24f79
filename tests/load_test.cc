// Tests for the §6 load analysis (Figures 9-10).
#include <gtest/gtest.h>

#include "analysis/load.h"

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
  EXPECT_NEAR(LoadAnalysis::peak_mbps(raw.bits_1s), 10.0, 1e-9);
  EXPECT_NEAR(LoadAnalysis::peak_mbps(raw.bits_10s), 1.0, 1e-9);
  EXPECT_NEAR(LoadAnalysis::peak_mbps(raw.bits_60s), 10.0 / 60.0, 1e-9);
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

TEST(Load, EmptyTraceIsSafe) {
  TraceLoadRaw empty;
  empty.trace_name = "empty";
  LoadAnalysis load = LoadAnalysis::compute({empty}, 1);
  EXPECT_EQ(load.peak_1s.count(), 0u);
  EXPECT_EQ(load.retx_ent.count(), 0u);
}

}  // namespace
}  // namespace entrace
