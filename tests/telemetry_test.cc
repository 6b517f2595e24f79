// Telemetry suite (CTest label "telemetry", also run sanitized via
// `ctest --preset telemetry-asan` and `ctest --preset telemetry-tsan`).
//
// Pins the obs contract:
//   1. Registry semantics: idempotent registration, one-name-one-meaning,
//      deterministic merge (counters/buckets sum, gauges sum).
//   2. Exposition: table/JSON/Prometheus render stably; timing-class
//      metrics never leak into semantic-only views.
//   3. Determinism: every semantic metric is byte-identical across thread
//      counts AND across a shard→snapshot→decode→merge round trip — the
//      same contract the report itself honours.
//   4. EmpiricalCdf concurrency regression: concurrent const reads of a
//      shared CDF are race-free (run under TSan via telemetry-tsan).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/analyzer.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/stage_timer.h"
#include "snapshot/reader.h"
#include "snapshot/writer.h"
#include "synth/synth_source.h"
#include "util/stats.h"

namespace entrace {
namespace {

using obs::MetricClass;
using obs::MetricKind;
using obs::Registry;

// ---- registry semantics -----------------------------------------------------

TEST(Registry, CounterHandleIsStableAndIdempotent) {
  Registry reg;
  obs::Counter* c = reg.counter("a.count", MetricClass::kSemantic, "help text");
  c->add(3);
  // Re-registration returns the same handle and keeps the first help text.
  EXPECT_EQ(reg.counter("a.count", MetricClass::kSemantic), c);
  c->add();
  EXPECT_EQ(c->value(), 4u);
  const obs::Metric* m = reg.find("a.count");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->help, "help text");
  EXPECT_EQ(m->kind, MetricKind::kCounter);
}

TEST(Registry, KindAndClassMismatchThrow) {
  Registry reg;
  reg.counter("x", MetricClass::kSemantic);
  EXPECT_THROW(reg.gauge("x", MetricClass::kSemantic), std::logic_error);
  EXPECT_THROW(reg.counter("x", MetricClass::kTiming), std::logic_error);
  reg.histogram("h", MetricClass::kSemantic, {1.0, 2.0});
  EXPECT_THROW(reg.histogram("h", MetricClass::kSemantic, {1.0, 3.0}), std::logic_error);
}

TEST(Registry, MetricsAreNameOrdered) {
  Registry reg;
  reg.counter("zeta", MetricClass::kSemantic);
  reg.counter("alpha", MetricClass::kSemantic);
  reg.gauge("mid", MetricClass::kTiming);
  const auto all = reg.metrics();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0]->name, "alpha");
  EXPECT_EQ(all[1]->name, "mid");
  EXPECT_EQ(all[2]->name, "zeta");
}

TEST(Registry, MergeSumsAndCreates) {
  Registry a, b;
  a.counter("c", MetricClass::kSemantic)->add(2);
  b.counter("c", MetricClass::kSemantic)->add(5);
  b.gauge("g", MetricClass::kTiming)->set(1.5);
  b.histogram("h", MetricClass::kSemantic, {10.0})->observe(3.0);
  a.merge(b);
  EXPECT_EQ(a.find("c")->counter.value(), 7u);
  EXPECT_DOUBLE_EQ(a.find("g")->gauge.value(), 1.5);
  ASSERT_NE(a.find("h"), nullptr);
  EXPECT_EQ(a.find("h")->histogram->count(), 1u);
  // Merge order does not matter for the folded values.
  Registry c;
  c.counter("c", MetricClass::kSemantic)->add(5);
  Registry d;
  d.counter("c", MetricClass::kSemantic)->add(2);
  c.merge(d);
  EXPECT_EQ(c.find("c")->counter.value(), a.find("c")->counter.value());
}

// ---- histogram --------------------------------------------------------------

TEST(Histogram, BucketPlacementAndOverflow) {
  obs::Histogram h({10.0, 20.0});
  h.observe(5.0);    // <= 10
  h.observe(10.0);   // inclusive upper bound -> first bucket
  h.observe(15.0);   // <= 20
  h.observe(100.0);  // overflow
  ASSERT_EQ(h.buckets().size(), 3u);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 130.0);
}

TEST(Histogram, MergeRequiresSameBounds) {
  obs::Histogram a({1.0, 2.0}), b({1.0, 2.0}), c({1.0, 3.0});
  a.observe(0.5);
  b.observe_n(1.5, 4);
  a.merge(b);
  EXPECT_EQ(a.count(), 5u);
  EXPECT_EQ(a.buckets()[1], 4u);
  EXPECT_THROW(a.merge(c), std::logic_error);
}

// p50/p99 on the daemon's /metrics come from bucket interpolation: the
// first bucket starts at 0, and the overflow bucket reads as the last bound.
TEST(Histogram, QuantileInterpolatesWithinBucket) {
  obs::Histogram h({1.0, 2.0, 4.0});
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty
  h.observe(0.5);
  h.observe_n(1.5, 2);
  h.observe(3.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 1.0);  // rank 1: top of the first bucket
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.5);   // rank 2: halfway through (1, 2]
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);
  h.observe(100.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);  // overflow reads as the last bound
}

TEST(Histogram, UnsortedBoundsRejected) {
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), std::logic_error);
}

TEST(Histogram, RestoreValidatesBucketCount) {
  obs::Histogram h({1.0});
  EXPECT_THROW(h.restore({1, 2, 3}, 6, 1.0), std::logic_error);
  h.restore({1, 2}, 3, 4.5);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 4.5);
}

// ---- exposition -------------------------------------------------------------

TEST(Exposition, TableOmitsTimingByDefault) {
  Registry reg;
  reg.counter("sem.count", MetricClass::kSemantic, "a semantic fact")->add(7);
  reg.gauge("time.secs", MetricClass::kTiming)->set(1.0);
  const std::string table = obs::render_table(reg, "Telemetry");
  EXPECT_NE(table.find("sem.count"), std::string::npos);
  EXPECT_NE(table.find("7"), std::string::npos);
  EXPECT_EQ(table.find("time.secs"), std::string::npos);
  const std::string with_timing = obs::render_table(reg, "Telemetry", /*include_timing=*/true);
  EXPECT_NE(with_timing.find("time.secs"), std::string::npos);
}

TEST(Exposition, JsonRendersAllKindsStably) {
  Registry reg;
  reg.counter("c", MetricClass::kSemantic)->add(3);
  reg.gauge("g", MetricClass::kTiming)->set(0.25);
  reg.histogram("h", MetricClass::kSemantic, {1.0, 2.0})->observe(1.5);
  const std::string json = obs::render_json(reg);
  EXPECT_NE(json.find("\"c\": {\"class\": \"semantic\", \"kind\": \"counter\", \"value\": 3}"),
            std::string::npos);
  EXPECT_NE(json.find("\"g\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
  // Two renders of the same registry are identical.
  EXPECT_EQ(json, obs::render_json(reg));
  // Semantic-only view drops the gauge.
  const std::string sem = obs::render_json(reg, /*include_timing=*/false);
  EXPECT_EQ(sem.find("\"g\""), std::string::npos);
}

TEST(Exposition, PrometheusSanitizesNamesAndAccumulatesBuckets) {
  Registry reg;
  reg.counter("decode.packets_ok", MetricClass::kSemantic, "decoded ok")->add(12);
  obs::Histogram* h = reg.histogram("source.bytes", MetricClass::kSemantic, {10.0, 20.0});
  h->observe(5.0);
  h->observe(15.0);
  h->observe(100.0);
  const std::string prom = obs::render_prometheus(reg);
  EXPECT_NE(prom.find("decode_packets_ok{class=\"semantic\"} 12"), std::string::npos);
  // Cumulative buckets: le="20" includes the le="10" observations.
  EXPECT_NE(prom.find("source_bytes_bucket{class=\"semantic\",le=\"10\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("source_bytes_bucket{class=\"semantic\",le=\"20\"} 2"), std::string::npos);
  EXPECT_NE(prom.find("source_bytes_bucket{class=\"semantic\",le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("source_bytes_count{class=\"semantic\"} 3"), std::string::npos);
}

TEST(Exposition, WriteMetricsFileDispatchesOnExtension) {
  Registry reg;
  reg.counter("c", MetricClass::kSemantic, "a counter")->add(1);
  const auto dir = std::filesystem::temp_directory_path();
  const std::string json_path = (dir / "entrace_metrics_test.json").string();
  const std::string prom_path = (dir / "entrace_metrics_test.prom").string();
  obs::write_metrics_file(reg, json_path);
  obs::write_metrics_file(reg, prom_path);
  std::ifstream jf(json_path), pf(prom_path);
  const std::string json((std::istreambuf_iterator<char>(jf)), {});
  const std::string prom((std::istreambuf_iterator<char>(pf)), {});
  std::filesystem::remove(json_path);
  std::filesystem::remove(prom_path);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(prom.rfind("# HELP", 0), 0u);
  EXPECT_THROW(obs::write_metrics_file(reg, "/nonexistent-dir/x.json"), std::runtime_error);
}

// ---- stage scopes -----------------------------------------------------------

TEST(StageScope, RecordsTimingTriple) {
  Registry reg;
  {
    obs::StageScope scope(&reg, "demo");
    scope.add_items(42);
    EXPECT_GE(scope.elapsed_seconds(), 0.0);
  }
  const obs::Metric* secs = reg.find("stage.demo.seconds");
  const obs::Metric* runs = reg.find("stage.demo.runs");
  const obs::Metric* items = reg.find("stage.demo.items");
  ASSERT_NE(secs, nullptr);
  ASSERT_NE(runs, nullptr);
  ASSERT_NE(items, nullptr);
  EXPECT_EQ(secs->cls, MetricClass::kTiming);
  EXPECT_GE(secs->gauge.value(), 0.0);
  EXPECT_EQ(runs->counter.value(), 1u);
  EXPECT_EQ(items->counter.value(), 42u);
}

TEST(StageScope, NullRegistryIsNoOp) {
  obs::StageScope scope(nullptr, "demo");
  scope.add_items(5);
  EXPECT_DOUBLE_EQ(scope.elapsed_seconds(), 0.0);
  obs::record_stage(nullptr, "demo", 1.0, 1);  // must not crash
}

// ---- EmpiricalCdf concurrency regression ------------------------------------

// Before the fix, ensure_sorted() mutated `values_` from a const accessor
// with a plain bool guard: two threads calling quantile() concurrently on a
// shared CDF raced on the sort.  Run under TSan (telemetry-tsan preset)
// this test fails on the old code and is clean on the new one.
TEST(EmpiricalCdfConcurrency, ConcurrentConstReadsAreRaceFree) {
  EmpiricalCdf cdf;
  for (int i = 1000; i >= 1; --i) cdf.add(i);  // reverse order: sort has work
  const EmpiricalCdf& shared = cdf;
  std::vector<std::thread> threads;
  std::vector<double> medians(8, 0.0);
  threads.reserve(medians.size());
  for (std::size_t t = 0; t < medians.size(); ++t) {
    threads.emplace_back([&shared, &medians, t] {
      double acc = 0.0;
      for (int i = 0; i < 50; ++i) {
        acc = shared.quantile(0.5);
        (void)shared.fraction_below(250.0);
      }
      medians[t] = acc;
    });
  }
  for (auto& th : threads) th.join();
  for (double m : medians) EXPECT_DOUBLE_EQ(m, 500.5);
}

TEST(EmpiricalCdfConcurrency, CopyWhileReadingIsRaceFree) {
  EmpiricalCdf cdf;
  for (int i = 100; i >= 1; --i) cdf.add(i);
  const EmpiricalCdf& shared = cdf;
  std::thread reader([&shared] {
    for (int i = 0; i < 100; ++i) (void)shared.median();
  });
  for (int i = 0; i < 100; ++i) {
    EmpiricalCdf copy(shared);
    EXPECT_EQ(copy.count(), 100u);
  }
  reader.join();
}

// ---- end-to-end determinism -------------------------------------------------

class TelemetryDeterminism : public ::testing::Test {
 protected:
  static const EnterpriseModel& model() {
    static const EnterpriseModel m;
    return m;
  }
  static DatasetSpec spec() { return dataset_by_name("D0", 0.004); }
  static const SyntheticTraceSourceSet& sources() {
    static const SyntheticTraceSourceSet s(spec(), model());
    return s;
  }
  static AnalyzerConfig config(std::size_t threads) {
    AnalyzerConfig c = default_config_for_model(model().site());
    c.threads = threads;
    return c;
  }
  // The determinism contract is over semantic metrics only.
  static std::string semantic_json(const Registry& reg) {
    return obs::render_json(reg, /*include_timing=*/false);
  }
};

TEST_F(TelemetryDeterminism, SemanticMetricsIdenticalAcrossThreadCounts) {
  const DatasetAnalysis one = analyze_dataset(sources(), config(1));
  const DatasetAnalysis four = analyze_dataset(sources(), config(4));
  const std::string json1 = semantic_json(one.metrics);
  ASSERT_FALSE(json1.empty());
  EXPECT_NE(json1.find("decode.packets_seen"), std::string::npos);
  EXPECT_EQ(json1, semantic_json(four.metrics));
}

TEST_F(TelemetryDeterminism, SemanticMetricsSurviveSnapshotRoundTrip) {
  // Direct run vs shard→write→decode→merge across two snapshot files with
  // an uneven split: the folded semantic metrics must be byte-identical.
  const DatasetAnalysis direct = analyze_dataset(sources(), config(1));

  const std::size_t n = sources().size();
  ASSERT_GE(n, 2u);
  const std::size_t split = n / 3 + 1;
  const snapshot::SnapshotMeta meta{spec().name, 0.004, static_cast<std::uint32_t>(n)};
  const auto dir = std::filesystem::temp_directory_path();
  const std::string path_a = (dir / "entrace_telemetry_a.esnap").string();
  const std::string path_b = (dir / "entrace_telemetry_b.esnap").string();
  {
    std::vector<TraceShard> shards = analyze_trace_shards(sources(), config(2), 0, split);
    snapshot::SnapshotWriter writer(path_a, meta);
    for (std::size_t i = 0; i < shards.size(); ++i) {
      writer.add_shard(static_cast<std::uint32_t>(i), shards[i]);
    }
    writer.close();
  }
  {
    std::vector<TraceShard> shards = analyze_trace_shards(sources(), config(2), split, n);
    snapshot::SnapshotWriter writer(path_b, meta);
    for (std::size_t i = 0; i < shards.size(); ++i) {
      writer.add_shard(static_cast<std::uint32_t>(split + i), shards[i]);
    }
    writer.close();
  }

  std::vector<TraceShard> decoded;
  for (const std::string& p : {path_a, path_b}) {
    snapshot::Snapshot snap = snapshot::read_snapshot(p);
    for (auto& s : snap.shards) decoded.push_back(std::move(s.shard));
  }
  std::filesystem::remove(path_a);
  std::filesystem::remove(path_b);
  const DatasetAnalysis merged = fold_shards(spec().name, std::move(decoded), config(1));

  const std::string json_direct = semantic_json(direct.metrics);
  ASSERT_FALSE(json_direct.empty());
  EXPECT_EQ(json_direct, semantic_json(merged.metrics));
}

TEST_F(TelemetryDeterminism, CollectMetricsOffYieldsEmptyRegistry) {
  AnalyzerConfig c = config(1);
  c.collect_metrics = false;
  const DatasetAnalysis off = analyze_dataset(sources(), c);
  EXPECT_TRUE(off.metrics.empty());
  // And the analysis itself is unchanged: quality accounting matches a
  // metrics-on run (metrics observe, never influence).
  const DatasetAnalysis on = analyze_dataset(sources(), config(1));
  EXPECT_EQ(off.quality.packets_seen, on.quality.packets_seen);
  EXPECT_EQ(off.load_raw.size(), on.load_raw.size());
}

}  // namespace
}  // namespace entrace
