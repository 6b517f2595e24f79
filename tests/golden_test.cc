// Golden report digests (CTest label "golden", also run under sanitizers
// via `ctest --preset golden-asan` / `ctest --preset golden-tsan`).
//
// Every other equality test in the repo is relative: one configuration
// must render what another renders.  A change that moves every path the
// same way passes all of them.  These digests are absolute: for each case
// tests/golden/reports.txt holds the byte length and CRC-32
// (snapshot::crc32) of two renderings of one analysis:
//
//   - report::full_report, exactly what `enterprise_report Dx 0.004`
//     prints on stdout for the clean cases;
//   - obs::render_json(metrics, /*include_timing=*/false), the semantic
//     metrics, including the histogram buckets that the report's telemetry
//     table shows only as n=/mean=.
//
// The cases are D0-D4 at scale 0.004 streamed through
// SyntheticTraceSourceSet with the default config, plus materialized D0 at
// 0.004 corrupted with the corruption_demo seed (42) at rate 0.1, and the
// five-dataset report over D0-D4 (the body bench/paper_tables prints).
//
// A deliberate behaviour change updates the golden file: on a mismatch the
// test writes the new report and metrics to temp files (for diffing) and
// prints the replacement line.  CHANGES.md must say why the line moved.
//
// The suite also pins the one packet path's regrouping contract: however a
// source cuts its batches, analyze_dataset renders the same bytes.
//
// tests/golden/snapshots.txt pins the .esnap encoding the same way: the
// byte length and CRC-32 of
//
//   - each dataset's full image, D0-D4 at 0.004 with every trace, written
//     through SnapshotWriter(std::ostream&) as cluster workers write it (the
//     same bytes `entrace_shard Dx 0.004` writes to its file);
//   - the window images of an exact windowed replay of D3 at 0.004 with 60 s
//     windows, concatenated in window order, and of the same replay with
//     eviction and reclaim on (the daemon's default).
//
// Every image must also survive decode -> re-encode byte for byte, so the
// reader restores everything the writer writes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "core/incremental.h"
#include "core/report.h"
#include "obs/exposition.h"
#include "snapshot/format.h"
#include "snapshot/reader.h"
#include "snapshot/writer.h"
#include "synth/corruptor.h"
#include "synth/generator.h"
#include "synth/synth_source.h"

namespace entrace {
namespace {

constexpr double kScale = 0.004;

struct Rendered {
  std::string report;
  std::string metrics;
};

Rendered render(const DatasetSpec& spec, const DatasetAnalysis& analysis) {
  const report::ReportInput input{&spec, &analysis};
  const std::vector<report::ReportInput> inputs{input};
  return {report::full_report(inputs), obs::render_json(analysis.metrics, false)};
}

std::string digest(const std::string& bytes) {
  const std::span<const std::uint8_t> span(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%zu %08x", bytes.size(), snapshot::crc32(span));
  return buf;
}

// "<case> <report bytes> <report crc32> <metrics bytes> <metrics crc32>"
std::string golden_line(const std::string& name, const Rendered& r) {
  return name + " " + digest(r.report) + " " + digest(r.metrics);
}

// Case name -> its line in a golden file ('#' lines are comments).
std::map<std::string, std::string> read_golden(const char* path) {
  std::map<std::string, std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    out.emplace(line.substr(0, line.find(' ')), line);
  }
  return out;
}

const std::map<std::string, std::string>& golden() {
  static const std::map<std::string, std::string> lines = read_golden(ENTRACE_GOLDEN_FILE);
  return lines;
}

void expect_golden(const std::string& name, const Rendered& r) {
  const std::string want_line = golden().count(name) != 0 ? golden().at(name) : "";
  const std::string got_line = golden_line(name, r);
  if (got_line == want_line) return;
  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  const std::string report_path = (dir / ("entrace_golden_" + name + ".txt")).string();
  const std::string metrics_path = (dir / ("entrace_golden_" + name + ".json")).string();
  std::ofstream(report_path, std::ios::binary) << r.report;
  std::ofstream(metrics_path, std::ios::binary) << r.metrics;
  ADD_FAILURE() << "golden digest mismatch for " << name << " (" << ENTRACE_GOLDEN_FILE
                << ")\n  golden:  " << (want_line.empty() ? "<missing>" : want_line)
                << "\n  current: " << got_line << "\nnew report: " << report_path
                << "\nnew metrics: " << metrics_path
                << "\nIf the change is deliberate, replace the golden line with:\n"
                << got_line;
}

const EnterpriseModel& model() {
  static const EnterpriseModel m;
  return m;
}

class GoldenTest : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenTest, StreamedReportMatchesDigest) {
  const std::string name = GetParam();
  const DatasetSpec spec = dataset_by_name(name, kScale);
  const SyntheticTraceSourceSet sources(spec, model());
  const DatasetAnalysis analysis =
      analyze_dataset(sources, default_config_for_model(model().site()));
  expect_golden(name, render(spec, analysis));
}

INSTANTIATE_TEST_SUITE_P(Datasets, GoldenTest,
                         ::testing::Values("D0", "D1", "D2", "D3", "D4"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// The five-dataset report pins the multi-column layout: one names_row
// column per dataset, the payload filter over mixed snaplens (D1 and D2 are
// header-only) and Figures 2 and 9 once per input.  Its metrics digest is
// the five semantic JSONs concatenated in dataset order.
TEST(GoldenFiveDatasetTest, ReportMatchesDigest) {
  const std::vector<std::string> names{"D0", "D1", "D2", "D3", "D4"};
  std::vector<DatasetSpec> specs;
  std::vector<DatasetAnalysis> analyses;
  Rendered rendered;
  for (const std::string& name : names) {
    specs.push_back(dataset_by_name(name, kScale));
    const SyntheticTraceSourceSet sources(specs.back(), model());
    analyses.push_back(analyze_dataset(sources, default_config_for_model(model().site())));
    rendered.metrics += obs::render_json(analyses.back().metrics, false);
  }
  std::vector<report::ReportInput> inputs;
  for (std::size_t i = 0; i < names.size(); ++i) inputs.push_back({&specs[i], &analyses[i]});
  rendered.report = report::full_report(inputs);
  expect_golden("D0-D4", rendered);
}

// The decode path's anomaly taxonomy on damaged captures: every fault kind
// the injector draws at corruption_demo's seed lands in the capture-quality
// table and in the semantic decode.anomaly.* counters.
TEST(GoldenCorruptTest, CorruptedD0MatchesDigest) {
  const DatasetSpec spec = dataset_d0(kScale);
  TraceSet traces = generate_dataset(spec, model());
  CorruptionConfig cc;
  cc.seed = 42;
  cc.rate = 0.1;
  corrupt_dataset(traces, cc);
  const DatasetAnalysis analysis =
      analyze_dataset(traces, default_config_for_model(model().site()));
  expect_golden("D0-corrupt-42", render(spec, analysis));
}

// ---- batch regrouping ---------------------------------------------------------

// Caps every batch of the wrapped source at `cap` views.  Sources may
// return short batches anywhere (slice refills, merged-stream head
// exhaustion), so analyze_trace must render the same bytes for any
// grouping: 1 is packet-at-a-time, 7 divides no trace or slice evenly.
class CappedSource final : public PacketSource {
 public:
  CappedSource(std::unique_ptr<PacketSource> inner, std::size_t cap)
      : inner_(std::move(inner)), cap_(cap) {}

  const TraceMeta& meta() const override { return inner_->meta(); }
  const AnomalyCounts& anomalies() const override { return inner_->anomalies(); }

 protected:
  std::size_t pull_batch(PacketView* out, std::size_t n) override {
    return inner_->next_batch(out, std::min(n, cap_));
  }

 private:
  std::unique_ptr<PacketSource> inner_;
  std::size_t cap_;
};

class CappedSourceSet final : public TraceSourceSet {
 public:
  CappedSourceSet(const TraceSourceSet& inner, std::size_t cap) : inner_(inner), cap_(cap) {}

  const std::string& dataset_name() const override { return inner_.dataset_name(); }
  std::size_t size() const override { return inner_.size(); }
  std::unique_ptr<PacketSource> open(std::size_t index) const override {
    return std::make_unique<CappedSource>(inner_.open(index), cap_);
  }

 private:
  const TraceSourceSet& inner_;
  std::size_t cap_;
};

constexpr std::array<std::size_t, 2> kCaps = {1, 7};

DatasetSpec regroup_spec() {
  DatasetSpec spec = dataset_d3(kScale);
  spec.monitored_subnets = {4, 15, 20};
  return spec;
}

TEST(BatchRegroupingTest, CappedBatchesRenderDefaultReport) {
  const DatasetSpec spec = regroup_spec();
  const SyntheticTraceSourceSet sources(spec, model(), {3});
  const AnalyzerConfig config = default_config_for_model(model().site());
  const Rendered want = render(spec, analyze_dataset(sources, config));
  for (const std::size_t cap : kCaps) {
    SCOPED_TRACE("cap=" + std::to_string(cap));
    const Rendered got = render(spec, analyze_dataset(CappedSourceSet(sources, cap), config));
    EXPECT_EQ(got.report, want.report);
    EXPECT_EQ(got.metrics, want.metrics);
  }
}

// The decode stage pre-validates capture bounds before its in-place field
// loads; corrupted captures are where that validation earns its keep.  Every
// grouping must reproduce the default run's report and exact anomaly
// taxonomy across 8 corruption seeds.
TEST(BatchRegroupingTest, CorruptedCappedBatchesKeepReportAndTaxonomy) {
  const DatasetSpec spec = regroup_spec();
  const TraceSet clean = generate_dataset(spec, model());
  const AnalyzerConfig config = default_config_for_model(model().site());
  for (const std::uint64_t seed : {1, 2, 3, 5, 8, 13, 21, 34}) {
    TraceSet corrupted = clean;
    CorruptionConfig cc;
    cc.seed = seed;
    cc.rate = 0.1;
    corrupt_dataset(corrupted, cc);
    const MemoryTraceSourceSet sources(corrupted);
    const DatasetAnalysis want = analyze_dataset(sources, config);
    for (const std::size_t cap : kCaps) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " cap=" + std::to_string(cap));
      const DatasetAnalysis got = analyze_dataset(CappedSourceSet(sources, cap), config);
      EXPECT_EQ(got.quality.anomalies.as_map(), want.quality.anomalies.as_map());
      EXPECT_EQ(got.quality, want.quality);
      EXPECT_EQ(render(spec, got).report, render(spec, want).report);
    }
  }
}

// ---- snapshot images ---------------------------------------------------------

// "<case> <image bytes> <image crc32>"
void expect_snapshot_line(const std::string& got_line) {
  static const std::map<std::string, std::string> lines = read_golden(ENTRACE_GOLDEN_SNAPSHOTS);
  const std::string name = got_line.substr(0, got_line.find(' '));
  const std::string want_line = lines.count(name) != 0 ? lines.at(name) : "";
  EXPECT_EQ(got_line, want_line)
      << "snapshot digest mismatch for " << name << " (" << ENTRACE_GOLDEN_SNAPSHOTS
      << ")\nIf the change is deliberate, replace the golden line with:\n"
      << got_line;
}

// Shard i goes in at trace index i, through the stream-sink writer.
std::string encode_image(const snapshot::SnapshotMeta& meta,
                         const std::vector<TraceShard>& shards) {
  std::ostringstream out(std::ios::binary);
  snapshot::SnapshotWriter writer(out, meta);
  for (std::size_t i = 0; i < shards.size(); ++i) {
    writer.add_shard(static_cast<std::uint32_t>(i), shards[i]);
  }
  writer.close();
  return std::move(out).str();
}

void expect_reencodes(const std::string& image) {
  const snapshot::Snapshot snap = snapshot::decode_snapshot(
      {reinterpret_cast<const std::uint8_t*>(image.data()), image.size()});
  std::ostringstream out(std::ios::binary);
  snapshot::SnapshotWriter writer(out, snap.meta);
  for (const snapshot::SnapshotShard& s : snap.shards) writer.add_shard(s.trace_index, s.shard);
  writer.close();
  const std::string again = std::move(out).str();
  EXPECT_TRUE(again == image) << "decode -> encode changed a " << image.size()
                              << "-byte image into " << again.size() << " bytes";
}

class GoldenSnapshotTest : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenSnapshotTest, DatasetImageMatchesDigest) {
  const std::string name = GetParam();
  const DatasetSpec spec = dataset_by_name(name, kScale);
  const SyntheticTraceSourceSet sources(spec, model());
  const std::vector<TraceShard> shards = analyze_trace_shards(
      sources, default_config_for_model(model().site()), 0, sources.size());
  const std::string image =
      encode_image({spec.name, kScale, static_cast<std::uint32_t>(sources.size())}, shards);
  expect_snapshot_line(name + " " + digest(image));
  expect_reencodes(image);
}

INSTANTIATE_TEST_SUITE_P(Datasets, GoldenSnapshotTest,
                         ::testing::Values("D0", "D1", "D2", "D3", "D4"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// A windowed replay of D3 the way entrace_daemon runs it (every tap merged
// into one time-ordered stream), each rotated window encoded as its
// checkpoint image.  Returns the digest line of the images concatenated in
// window order, kept as a running length and CRC (the concatenation is
// ~60 MB).
std::string d3_window_images_line(const std::string& name, bool evict_and_reclaim) {
  const DatasetSpec spec = dataset_d3(kScale);
  const SyntheticTraceSourceSet sources(spec, model());
  std::vector<std::unique_ptr<PacketSource>> taps;
  for (std::size_t i = 0; i < sources.size(); ++i) taps.push_back(sources.open(i));
  MergedPacketStream stream(std::move(taps));
  std::vector<TraceMeta> metas;
  for (std::size_t i = 0; i < stream.source_count(); ++i) metas.push_back(stream.source(i).meta());

  IncrementalOptions options;
  options.window_seconds = 60.0;
  options.evict = evict_and_reclaim;
  options.reclaim = evict_and_reclaim;
  IncrementalAnalyzer analyzer(std::move(metas), default_config_for_model(model().site()),
                               options);
  const snapshot::SnapshotMeta meta{spec.name, kScale,
                                    static_cast<std::uint32_t>(sources.size())};
  std::size_t bytes = 0;
  std::uint32_t crc = 0;
  const auto append = [&](const WindowShard& window) {
    const std::string image = encode_image(meta, window.shards);
    expect_reencodes(image);
    bytes += image.size();
    crc = snapshot::crc32({reinterpret_cast<const std::uint8_t*>(image.data()), image.size()},
                          crc);
  };
  std::vector<PacketView> views(kBatchSize);
  for (;;) {
    const std::size_t got = stream.next_batch(views.data(), views.size());
    if (got == 0) break;
    analyzer.feed(views.data(), got);
    while (analyzer.window_complete()) append(analyzer.rotate());
  }
  append(analyzer.finish(&stream));
  char buf[32];
  std::snprintf(buf, sizeof(buf), " %zu %08x", bytes, crc);
  return name + buf;
}

TEST(GoldenWindowSnapshotTest, ExactWindowImagesMatchDigest) {
  expect_snapshot_line(d3_window_images_line("D3-windows-60", false));
}

TEST(GoldenWindowSnapshotTest, EvictingWindowImagesMatchDigest) {
  expect_snapshot_line(d3_window_images_line("D3-windows-60-evict", true));
}

}  // namespace
}  // namespace entrace
