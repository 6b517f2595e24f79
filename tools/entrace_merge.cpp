// entrace_merge: fold N .esnap shard snapshots (written by entrace_shard)
// into the full paper report.
//
// Shards are re-ordered by trace index before folding, so the merge is
// independent of argument order and of how the dataset was partitioned:
// for any split of a dataset's traces across shard files, the report
// printed here is byte-identical to running enterprise_report over the
// whole dataset in one process.
//
// --allow-partial accepts an incomplete shard set instead of failing: the
// report is branded with the PARTIAL banner, prefixed with a coverage
// manifest naming exactly the missing trace indices, and covers only the
// traces that are present (cluster/coverage.h semantics).
//
//   $ entrace_merge [--metrics-out file] [--allow-partial] a.esnap ... > report.txt
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "cluster/coverage.h"
#include "core/analyzer.h"
#include "core/report.h"
#include "obs/exposition.h"
#include "obs/stage_timer.h"
#include "snapshot/reader.h"
#include "synth/synth_source.h"

using namespace entrace;

int main(int argc, char** argv) {
  std::string metrics_out;
  bool allow_partial = false;
  std::vector<const char*> paths;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (std::strcmp(argv[i], "--allow-partial") == 0) {
      allow_partial = true;
    } else {
      paths.push_back(argv[i]);
    }
  }
  if (paths.empty()) {
    std::fprintf(stderr,
                 "usage: %s [--metrics-out file] [--allow-partial] <shard.esnap> "
                 "[more.esnap ...]\n",
                 argv[0]);
    return 2;
  }

  obs::Registry process_metrics;
  std::vector<snapshot::SnapshotShard> shards;
  snapshot::SnapshotMeta meta;
  std::uint64_t snapshot_bytes = 0;
  const auto decode_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < paths.size(); ++i) {
    snapshot::Snapshot snap;
    try {
      snap = snapshot::read_snapshot(paths[i]);
      std::error_code ec;
      const auto sz = std::filesystem::file_size(paths[i], ec);
      if (!ec) snapshot_bytes += static_cast<std::uint64_t>(sz);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", paths[i], e.what());
      return 1;
    }
    if (i == 0) {
      meta = snap.meta;
    } else if (!(snap.meta == meta)) {
      std::fprintf(stderr,
                   "%s: snapshot metadata mismatch (%s scale %g, %u traces) vs "
                   "first file (%s scale %g, %u traces)\n",
                   argv[i], snap.meta.dataset.c_str(), snap.meta.scale, snap.meta.trace_count,
                   meta.dataset.c_str(), meta.scale, meta.trace_count);
      return 1;
    }
    for (auto& shard : snap.shards) shards.push_back(std::move(shard));
  }

  std::sort(shards.begin(), shards.end(),
            [](const snapshot::SnapshotShard& a, const snapshot::SnapshotShard& b) {
              return a.trace_index < b.trace_index;
            });
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (i > 0 && shards[i].trace_index == shards[i - 1].trace_index) {
      std::fprintf(stderr, "duplicate shard for trace index %u\n", shards[i].trace_index);
      return 1;
    }
  }
  std::vector<std::uint32_t> present;
  present.reserve(shards.size());
  for (const auto& s : shards) present.push_back(s.trace_index);
  const orchestrate::CoverageManifest manifest = orchestrate::manifest_for(meta, present);
  if (!manifest.complete()) {
    if (!allow_partial) {
      std::fprintf(stderr,
                   "incomplete dataset: have %zu of %u trace shards; missing: %s\n"
                   "(pass --allow-partial to merge what is present)\n",
                   shards.size(), meta.trace_count, manifest.missing_ranges().c_str());
      return 1;
    }
    std::fputs(orchestrate::partial_banner(manifest).c_str(), stdout);
    std::fputs(manifest.render().c_str(), stdout);
    std::fputs("\n", stdout);
    std::fprintf(stderr, "merging PARTIAL shard set: %zu of %u traces\n", manifest.covered(),
                 meta.trace_count);
    if (shards.empty()) return 0;  // nothing to fold: banner + manifest is the report
  }

  const double decode_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - decode_start).count();
  obs::record_stage(&process_metrics, "snapshot_decode", decode_seconds, shards.size());
  process_metrics
      .gauge("snapshot.decode.bytes", obs::MetricClass::kTiming,
             "bytes read from .esnap snapshot files")
      ->set(static_cast<double>(snapshot_bytes));

  // The fold is the exact code path analyze_dataset uses after its per-trace
  // loop, so the merged result (and the report bytes below) match a
  // single-process run of the same dataset.
  const EnterpriseModel model;
  const DatasetSpec spec = dataset_by_name(meta.dataset, meta.scale);
  std::vector<TraceShard> trace_shards;
  trace_shards.reserve(shards.size());
  const std::size_t shard_count = shards.size();
  for (auto& s : shards) trace_shards.push_back(std::move(s.shard));
  DatasetAnalysis analysis = fold_shards(spec.name, std::move(trace_shards),
                                         default_config_for_model(model.site()));
  std::fprintf(stderr, "merged %zu shards: %llu packets\n", shard_count,
               static_cast<unsigned long long>(analysis.quality.packets_seen));

  const report::ReportInput input{&spec, &analysis};
  const std::vector<report::ReportInput> inputs{input};
  {
    obs::StageScope report_stage(&analysis.metrics, "report");
    const std::string text = report::full_report(inputs);
    report_stage.add_items(1);
    std::fputs(text.c_str(), stdout);
  }

  if (!metrics_out.empty()) {
    analysis.metrics.merge(process_metrics);
    try {
      obs::write_metrics_file(analysis.metrics, metrics_out);
      std::fprintf(stderr, "wrote metrics to %s\n", metrics_out.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "--metrics-out: %s\n", e.what());
      return 1;
    }
  }
  return 0;
}
