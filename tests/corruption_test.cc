// Fault-injection tests: the pipeline must survive arbitrarily corrupted
// captures without crashing, account for every packet
// (packets_seen == packets_ok + packets_dropped), classify what it dropped,
// produce thread-count-independent anomaly counts, and keep the headline
// numbers stable when the fault rate is low.
//
// These run in their own executable (entrace_corruption_tests) under the
// CTest label "corruption" so they can also be driven under ASan+UBSan
// (cmake --preset asan) without rebuilding the main suite.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "core/analyzer.h"
#include "core/report.h"
#include "synth/corruptor.h"
#include "synth/generator.h"

namespace entrace {
namespace {

// One small-but-real dataset, generated once and copied per corruption run:
// a few subnets of D3 (full snaplen, so payload parsers run and the
// application layer is exercised too).
class CorruptionTest : public ::testing::Test {
 protected:
  static const TraceSet& clean_traces() {
    static const TraceSet traces = [] {
      EnterpriseModel model;
      DatasetSpec spec = dataset_d3(0.004);
      spec.monitored_subnets = {4, 15, 20};
      return generate_dataset(spec, model);
    }();
    return traces;
  }

  static DatasetAnalysis analyze(const TraceSet& traces, std::size_t threads) {
    static const EnterpriseModel model;
    AnalyzerConfig config = default_config_for_model(model.site());
    config.threads = threads;
    return analyze_dataset(traces, config);
  }
};

TEST_F(CorruptionTest, CleanDatasetHasNoDropsAndNoAnomalies) {
  const DatasetAnalysis a = analyze(clean_traces(), 1);
  ASSERT_GT(a.quality.packets_seen, 1000u);
  EXPECT_TRUE(a.quality.accounted());
  EXPECT_EQ(a.quality.packets_dropped, 0u);
  EXPECT_EQ(a.quality.packets_ok, a.quality.packets_seen);
  // The only anomaly a clean capture may carry is the informational snaplen
  // flag: 8 KB NFS-over-UDP messages ride single over-MTU frames (a
  // documented deviation, DESIGN.md §7) that the 1500-byte snaplen clips.
  EXPECT_EQ(a.quality.anomalies.total(),
            a.quality.anomalies[AnomalyKind::kSnapTruncated])
      << "clean trace produced unexpected anomaly kinds ("
      << a.quality.anomalies.as_map().size() << " kinds non-zero)";
  // With zero drops the headline tallies cover the whole capture.
  EXPECT_EQ(a.total_packets, a.quality.packets_seen);
  EXPECT_EQ(a.l3.total, a.total_packets);
}

// The self-consistency rule of analyzer.h: dropped packets are excluded
// from *every* headline tally, not just some of them, so total_packets,
// l3.total and the per-protocol sums all describe the same packet set.
TEST_F(CorruptionTest, HeadlineTalliesExcludeDroppedPacketsConsistently) {
  TraceSet corrupted = clean_traces();
  CorruptionConfig config;
  config.seed = 17;
  config.rate = 0.2;
  corrupt_dataset(corrupted, config);

  const DatasetAnalysis a = analyze(corrupted, 1);
  ASSERT_GT(a.quality.packets_dropped, 0u);  // the rate guarantees drops
  EXPECT_EQ(a.total_packets, a.quality.packets_ok);
  EXPECT_LT(a.total_packets, a.quality.packets_seen);
  EXPECT_EQ(a.l3.total, a.total_packets);
  EXPECT_EQ(a.l3.ip + a.l3.arp + a.l3.ipx + a.l3.other, a.l3.total);
  // IP transport counts partition the IP tally.
  std::uint64_t ip_sum = 0;
  for (const auto& [proto, count] : a.ip_proto_packets.as_map()) {
    (void)proto;
    ip_sum += count;
  }
  EXPECT_EQ(ip_sum, a.l3.ip);
}

TEST_F(CorruptionTest, ZeroRateLeavesTracesUntouched) {
  TraceSet copy = clean_traces();
  CorruptionConfig config;
  config.rate = 0.0;
  const CorruptionSummary summary = corrupt_dataset(copy, config);
  EXPECT_EQ(summary.total(), 0u);
  ASSERT_EQ(copy.traces.size(), clean_traces().traces.size());
  for (std::size_t i = 0; i < copy.traces.size(); ++i) {
    ASSERT_EQ(copy.traces[i].packets.size(), clean_traces().traces[i].packets.size());
    for (std::size_t j = 0; j < copy.traces[i].packets.size(); ++j) {
      ASSERT_EQ(copy.traces[i].packets[j].data, clean_traces().traces[i].packets[j].data);
    }
  }
}

TEST_F(CorruptionTest, CorruptionIsDeterministicPerConfig) {
  CorruptionConfig config;
  config.seed = 7;
  config.rate = 0.1;
  TraceSet a = clean_traces();
  TraceSet b = clean_traces();
  const CorruptionSummary sa = corrupt_dataset(a, config);
  const CorruptionSummary sb = corrupt_dataset(b, config);
  EXPECT_EQ(sa.applied, sb.applied);
  ASSERT_EQ(a.traces.size(), b.traces.size());
  for (std::size_t i = 0; i < a.traces.size(); ++i) {
    ASSERT_EQ(a.traces[i].packets.size(), b.traces[i].packets.size()) << "trace " << i;
    for (std::size_t j = 0; j < a.traces[i].packets.size(); ++j) {
      ASSERT_EQ(a.traces[i].packets[j].data, b.traces[i].packets[j].data)
          << "trace " << i << " packet " << j;
    }
  }
  // A different seed produces a different corruption of the same traces.
  TraceSet c = clean_traces();
  config.seed = 8;
  corrupt_dataset(c, config);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.traces.size() && !any_difference; ++i) {
    if (a.traces[i].packets.size() != c.traces[i].packets.size()) any_difference = true;
    for (std::size_t j = 0; !any_difference && j < a.traces[i].packets.size(); ++j) {
      if (a.traces[i].packets[j].data != c.traces[i].packets[j].data) any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

// The headline robustness property: across many seeds and fault rates the
// pipeline neither crashes nor loses track of a single packet, and whenever
// faults were injected it has something to say about them.
TEST_F(CorruptionTest, FuzzLoopAccountsForEveryPacketAcrossSeedsAndRates) {
  const std::array<std::uint64_t, 8> seeds = {1, 2, 3, 5, 8, 13, 21, 34};
  const std::array<double, 3> rates = {0.02, 0.1, 0.3};
  for (const std::uint64_t seed : seeds) {
    for (const double rate : rates) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " rate=" + std::to_string(rate));
      TraceSet corrupted = clean_traces();
      CorruptionConfig config;
      config.seed = seed;
      config.rate = rate;
      const CorruptionSummary summary = corrupt_dataset(corrupted, config);
      ASSERT_GT(summary.total(), 0u);

      const DatasetAnalysis a = analyze(corrupted, 1);
      EXPECT_TRUE(a.quality.accounted())
          << "seen=" << a.quality.packets_seen << " ok=" << a.quality.packets_ok
          << " dropped=" << a.quality.packets_dropped;
      EXPECT_EQ(a.quality.packets_seen, corrupted.total_packets());
      // Headline accounting rule (analyzer.h): the tallies count analyzed
      // packets only, so they agree with each other even when the capture
      // is riddled with drops.
      EXPECT_EQ(a.total_packets, a.quality.packets_ok);
      EXPECT_EQ(a.l3.total, a.total_packets);
      EXPECT_TRUE(a.quality.anomalies.any());
      // Graceful degradation, not collapse: most traffic still analyzed.
      EXPECT_GT(a.quality.packets_ok, a.quality.packets_seen / 2);
    }
  }
}

TEST_F(CorruptionTest, AnomalyCountsIdenticalForOneAndFourThreads) {
  TraceSet corrupted = clean_traces();
  CorruptionConfig config;
  config.seed = 42;
  config.rate = 0.15;
  corrupt_dataset(corrupted, config);

  const DatasetAnalysis a = analyze(corrupted, 1);
  const DatasetAnalysis b = analyze(corrupted, 4);
  EXPECT_EQ(a.quality, b.quality);
  EXPECT_EQ(a.quality.anomalies.as_map(), b.quality.anomalies.as_map());
  EXPECT_EQ(a.total_packets, b.total_packets);
  EXPECT_EQ(a.connections.size(), b.connections.size());
  EXPECT_EQ(a.events.total(), b.events.total());
}

TEST_F(CorruptionTest, HeadlineNumbersStableAtLowFaultRate) {
  TraceSet corrupted = clean_traces();
  CorruptionConfig config;
  config.seed = 3;
  config.rate = 0.005;
  corrupt_dataset(corrupted, config);

  const DatasetAnalysis clean = analyze(clean_traces(), 1);
  const DatasetAnalysis dirty = analyze(corrupted, 1);

  const auto within = [](std::uint64_t a, std::uint64_t b, double tol) {
    const double hi = static_cast<double>(std::max(a, b));
    const double lo = static_cast<double>(std::min(a, b));
    return hi == 0.0 || (hi - lo) / hi <= tol;
  };
  // A 0.5% per-packet fault rate may duplicate/drop a handful of packets and
  // discard a handful more at decode; the table-level numbers must move by
  // at most a few percent.
  EXPECT_TRUE(within(clean.total_packets, dirty.total_packets, 0.02))
      << clean.total_packets << " vs " << dirty.total_packets;
  EXPECT_TRUE(within(clean.l3.ip, dirty.l3.ip, 0.03))
      << clean.l3.ip << " vs " << dirty.l3.ip;
  EXPECT_TRUE(within(clean.connections.size(), dirty.connections.size(), 0.05))
      << clean.connections.size() << " vs " << dirty.connections.size();
  EXPECT_TRUE(within(clean.events.total(), dirty.events.total(), 0.10))
      << clean.events.total() << " vs " << dirty.events.total();
  // And the damage itself is bounded: dropped packets stay near the rate.
  EXPECT_LT(dirty.quality.packets_dropped,
            dirty.quality.packets_seen / 50);
}

TEST_F(CorruptionTest, CaptureQualityReportListsAnomalies) {
  TraceSet corrupted = clean_traces();
  CorruptionConfig config;
  config.seed = 9;
  config.rate = 0.2;
  corrupt_dataset(corrupted, config);
  const DatasetAnalysis a = analyze(corrupted, 1);

  const report::ReportInput input{nullptr, &a};
  const std::string text =
      report::render_section(report::section("capture_quality"), {&input, 1});
  EXPECT_NE(text.find("Capture quality"), std::string::npos);
  EXPECT_NE(text.find("Seen"), std::string::npos);
  EXPECT_NE(text.find("Dropped"), std::string::npos);
  // At a 20% fault rate at least one checksum anomaly is all but certain;
  // assert the kind identifiers render.
  for (const auto& [kind, count] : a.quality.anomalies.as_map()) {
    EXPECT_NE(text.find(kind), std::string::npos) << kind;
  }
}

TEST_F(CorruptionTest, SummaryMapNamesEveryAppliedFault) {
  TraceSet corrupted = clean_traces();
  CorruptionConfig config;
  config.seed = 11;
  config.rate = 0.25;
  const CorruptionSummary summary = corrupt_dataset(corrupted, config);
  const auto map = summary.as_map();
  EXPECT_FALSE(map.empty());
  std::uint64_t total = 0;
  for (const auto& [name, count] : map) {
    EXPECT_FALSE(name.empty());
    total += count;
  }
  EXPECT_EQ(total, summary.total());
}

}  // namespace
}  // namespace entrace
