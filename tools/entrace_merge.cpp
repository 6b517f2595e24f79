// entrace_merge: fold N .esnap shard snapshots (written by entrace_shard)
// into the full paper report.
//
// The shards are folded and rendered by the code entrace_orchestrate runs
// (orchestrate::fold_result, orchestrate::render_report), in trace-index
// order, so the merge is independent of argument order and of how the
// dataset was partitioned: for any split of a dataset's traces across
// shard files, the report printed here is byte-identical to running
// enterprise_report over the whole dataset in one process.
//
// An incomplete shard set prints the report of the traces that are
// present, branded with the PARTIAL banner and prefixed with a coverage
// manifest naming exactly the missing trace indices (cluster/coverage.h
// semantics), and exits 1; --allow-partial makes that exit 0.  Files whose
// metadata differ or name no known dataset, or two shards of one trace,
// exit 1 with no report.
//
//   $ entrace_merge [--metrics-out file] [--allow-partial] a.esnap ... > report.txt
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "cluster/result.h"
#include "obs/exposition.h"
#include "obs/stage_timer.h"
#include "snapshot/reader.h"

using namespace entrace;

int main(int argc, char** argv) {
  std::string metrics_out;
  bool allow_partial = false;
  std::vector<const char*> paths;
  bool usage_error = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (std::strcmp(argv[i], "--allow-partial") == 0) {
      allow_partial = true;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {  // unknown, or missing its value
      std::fprintf(stderr, "%s: unknown flag or missing value\n", argv[i]);
      usage_error = true;
    } else {
      paths.push_back(argv[i]);
    }
  }
  if (paths.empty() || usage_error) {
    std::fprintf(stderr,
                 "usage: %s [--metrics-out file] [--allow-partial] <shard.esnap> "
                 "[more.esnap ...]\n",
                 argv[0]);
    return 2;
  }

  obs::Registry process_metrics;
  std::map<std::uint32_t, TraceShard> shards;
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
                   paths[i], snap.meta.dataset.c_str(), snap.meta.scale, snap.meta.trace_count,
                   meta.dataset.c_str(), meta.scale, meta.trace_count);
      return 1;
    }
    for (auto& s : snap.shards) {
      if (!shards.emplace(s.trace_index, std::move(s.shard)).second) {
        std::fprintf(stderr, "%s: duplicate shard for trace index %u\n", paths[i],
                     s.trace_index);
        return 1;
      }
    }
  }
  const double decode_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - decode_start).count();
  obs::record_stage(&process_metrics, "snapshot_decode", decode_seconds, shards.size());
  process_metrics
      .gauge("snapshot.decode.bytes", obs::MetricClass::kTiming,
             "bytes read from .esnap snapshot files")
      ->set(static_cast<double>(snapshot_bytes));

  orchestrate::OrchestrateResult result;
  try {
    result = orchestrate::fold_result(meta, std::move(shards));
  } catch (const std::exception& e) {  // a dataset name no spec matches
    std::fprintf(stderr, "%s: %s\n", paths[0], e.what());
    return 1;
  }
  std::fprintf(stderr, "merged %zu of %u traces: %llu packets\n", result.manifest.covered(),
               meta.trace_count,
               static_cast<unsigned long long>(result.analysis.quality.packets_seen));
  {
    obs::StageScope report_stage(&result.analysis.metrics, "report");
    std::fputs(orchestrate::render_report(result).c_str(), stdout);
    report_stage.add_items(1);
  }

  if (!metrics_out.empty()) {
    result.analysis.metrics.merge(process_metrics);
    try {
      obs::write_metrics_file(result.analysis.metrics, metrics_out);
      std::fprintf(stderr, "wrote metrics to %s\n", metrics_out.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "--metrics-out: %s\n", e.what());
      return 1;
    }
  }

  if (!result.complete && !allow_partial) {
    std::fprintf(stderr,
                 "incomplete dataset: missing traces %s "
                 "(pass --allow-partial to exit 0 on a PARTIAL report)\n",
                 result.manifest.missing_ranges().c_str());
    return 1;
  }
  return 0;
}
