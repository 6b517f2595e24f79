// entrace_shard: analyze a slice of a dataset's traces and write the
// per-trace analysis shards to a .esnap snapshot file.
//
// One shard process per trace range turns analyze_dataset into a
// multi-process pipeline: N invocations with disjoint --traces ranges can
// run on N machines, and entrace_merge folds their snapshots into a report
// bit-identical to a single-process run.  --resume makes shard files
// checkpoints: a file that decodes cleanly for the same dataset slice is
// trusted and the analysis is skipped, so a killed fleet re-runs only the
// shards that never finished (partial files carry no end marker and are
// rejected by the reader).
//
// This is the offline half of distributed analysis: ship the binary,
// run the slices wherever, merge the files.  Supervised dispatch with
// retries and a coverage manifest is entrace_orchestrate's job
// (src/cluster), which streams the same .esnap bytes over TCP instead.
//
//   $ entrace_shard out.esnap [D0|..|D4] [scale] [--traces lo:hi]
//                   [--threads N] [--resume] [--metrics-out file]
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "obs/exposition.h"
#include "obs/stage_timer.h"
#include "snapshot/reader.h"
#include "snapshot/writer.h"
#include "synth/synth_source.h"
#include "util/cli.h"

using namespace entrace;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <out.esnap> [D0|D1|D2|D3|D4] [scale] [--traces lo:hi] "
               "[--threads N] [--resume] [--metrics-out file]\n"
               "  analyzes traces [lo, hi) of the dataset (default: all) and snapshots\n"
               "  the per-trace shards; merge the .esnap files with entrace_merge.\n",
               argv0);
  return 2;
}

}  // namespace

// A function-try-block: a runtime failure (an output path that cannot be
// created, a failed write) prints the error and exits 1 instead of aborting.
int main(int argc, char** argv) try {
  if (argc < 2) return usage(argv[0]);
  const std::string out_path = argv[1];

  std::vector<const char*> positionals;
  std::size_t lo = 0, hi = SIZE_MAX;
  bool have_range = false, resume = false;
  std::size_t threads = 0;
  std::string metrics_out;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (std::strcmp(argv[i], "--traces") == 0 && i + 1 < argc) {
      if (!cli::parse_index_range(argv[++i], lo, hi)) {
        std::fprintf(stderr, "bad --traces range '%s' (want lo:hi with lo < hi)\n", argv[i]);
        return usage(argv[0]);
      }
      have_range = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      std::uint64_t n = 0;
      if (!cli::parse_uint(argv[++i], n)) {
        std::fprintf(stderr, "bad --threads '%s' (want a non-negative integer)\n", argv[i]);
        return usage(argv[0]);
      }
      threads = static_cast<std::size_t>(n);
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      resume = true;
    } else {
      positionals.push_back(argv[i]);
    }
  }
  cli::DatasetArgs dataset{"D3", 0.008};
  std::string error;
  const int consumed = cli::parse_dataset_args(positionals, dataset, &error);
  if (consumed < 0 || static_cast<std::size_t>(consumed) != positionals.size()) {
    std::fprintf(stderr, "%s\n", error.empty() ? "unrecognized arguments" : error.c_str());
    return usage(argv[0]);
  }

  const EnterpriseModel model;
  const DatasetSpec spec = dataset_by_name(dataset.name, dataset.scale);
  const SyntheticTraceSourceSet sources(spec, model);
  if (!have_range) hi = sources.size();
  if (hi > sources.size()) hi = sources.size();
  if (lo >= hi) {
    std::fprintf(stderr, "trace range [%zu, %zu) is empty for %s (%zu traces)\n", lo, hi,
                 spec.name.c_str(), sources.size());
    return 2;
  }

  const snapshot::SnapshotMeta meta{spec.name, dataset.scale,
                                    static_cast<std::uint32_t>(sources.size())};
  if (resume) {
    try {
      const snapshot::Snapshot existing = snapshot::read_snapshot(out_path);
      const std::string mismatch = snapshot::describe_range_mismatch(existing, meta, lo, hi);
      if (mismatch.empty()) {
        std::fprintf(stderr, "%s: already holds %s traces [%zu, %zu), skipping\n",
                     out_path.c_str(), spec.name.c_str(), lo, hi);
        return 0;
      }
      std::fprintf(stderr, "%s: exists but does not match the requested slice (%s), re-analyzing\n",
                   out_path.c_str(), mismatch.c_str());
    } catch (const std::exception&) {
      // Missing or partial (no end marker) file: fall through and redo it.
    }
  }

  AnalyzerConfig config = default_config_for_model(model.site());
  config.threads = threads;
  obs::Registry process_metrics;
  std::vector<TraceShard> shards = analyze_trace_shards(sources, config, lo, hi, &process_metrics);

  snapshot::SnapshotWriter writer(out_path, meta);
  std::uint64_t packets = 0;
  {
    obs::StageScope encode_stage(&process_metrics, "snapshot_encode");
    for (std::size_t i = 0; i < shards.size(); ++i) {
      packets += shards[i].quality.packets_seen;
      writer.add_shard(static_cast<std::uint32_t>(lo + i), shards[i]);
      encode_stage.add_items(1);
    }
    writer.close();
  }
  process_metrics
      .gauge("snapshot.encode.bytes", obs::MetricClass::kTiming,
             "bytes written to the .esnap snapshot file")
      ->set(static_cast<double>(writer.bytes_written()));
  std::fprintf(stderr, "%s: %s traces [%zu, %zu), %llu packets, %llu snapshot bytes\n",
               out_path.c_str(), spec.name.c_str(), lo, hi,
               static_cast<unsigned long long>(packets),
               static_cast<unsigned long long>(writer.bytes_written()));

  if (!metrics_out.empty()) {
    // Fold per-trace semantic metrics with this process's timing metrics so
    // the file covers both what the slice contained and what the run cost.
    for (const TraceShard& shard : shards) process_metrics.merge(shard.metrics);
    obs::write_metrics_file(process_metrics, metrics_out);
    std::fprintf(stderr, "wrote metrics to %s\n", metrics_out.c_str());
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "entrace_shard: %s\n", e.what());
  return 1;
}
