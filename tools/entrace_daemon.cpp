// entrace_daemon: continuous windowed analysis over a paced replay.
//
// The batch tools (entrace_shard/merge) answer "what was in this capture";
// the daemon answers "what is on the wire right now".  It replays a
// synthetic dataset as if it were a set of live taps — every trace merged
// into one time-ordered stream (MergedPacketStream, which merges ahead of
// ingest on a thread of its own), released on the capture's own timeline
// scaled by --speedup (PacedReplaySource) — and runs the windowed
// incremental engine over it:
//
//   ingest batches -> IncrementalAnalyzer::feed (per-trace demux)
//     -> rotate() at each --window boundary
//     -> checkpoint the window as an ordinary .esnap (snapshot/window.h)
//     -> age old checkpoints through the retention tiers (summary.jsonl);
//        sketch folds run on the retention manager's fold thread
//
// while serving observability over HTTP (--http-port):
//   /metrics        Prometheus text of the daemon's status registry
//   /metrics.json   the same registry, as JSON
//   /window/latest  summary of the most recently checkpointed window
//   /report         full paper report folded across every retained tier
//                   (tier-2 + tier-1 sketches, aged windows, tier-0)
//   /healthz        liveness
//
// SIGTERM/SIGINT drain gracefully: the loop stops pulling, still-open flows
// are classified (flow.drained), the final partial window is checkpointed,
// and the process exits 0 — no analyzed packet is ever lost to a shutdown.
// Flow eviction (--window-scoped evict_idle) and slot reclamation keep
// memory flat over unbounded runs; --exact disables both for replays that
// must reconstruct byte-identically to a batch run.  A runtime failure (an
// --out that cannot be created, a --http-port in use, a checkpoint that
// cannot be written) prints the error and exits 1.
//
//   $ entrace_daemon [D0|..|D4] [scale] --out DIR [--window SEC] [--speedup X]
//                    [--http-port P] [--retain K] [--sketch-every K] [--max-windows N]
//                    [--exact] [--metrics-out file]
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <system_error>
#include <vector>

#include "core/incremental.h"
#include "obs/exposition.h"
#include "obs/http_server.h"
#include "pcap/replay.h"
#include "snapshot/retention.h"
#include "snapshot/window.h"
#include "synth/synth_source.h"
#include "util/cli.h"
#include "util/clock.h"

using namespace entrace;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [D0|D1|D2|D3|D4] [scale] --out DIR [--window SEC] [--speedup X]\n"
      "          [--http-port P] [--retain K] [--sketch-every K] [--max-windows N]\n"
      "          [--exact] [--metrics-out file]\n"
      "  replays the dataset as a paced live stream, rotating and checkpointing\n"
      "  one .esnap window every SEC seconds of capture time; SIGTERM drains.\n"
      "  --retain K       tier-0: newest K full window checkpoints (0 = none;\n"
      "                   the history then lives in the sketch tiers alone)\n"
      "  --sketch-every K tier-1/2: fold aged windows K at a time into sketch\n"
      "                   .esnaps, K sketches into a coarser tier-2 sketch\n"
      "                   (K >= 2, default 8)\n",
      argv0);
  return 2;
}

// The daemon's one status store, shared between the event loop (writer)
// and the HTTP workers (readers).  The ingest loop, the checkpoint and the
// /report settle update the registry in place; /metrics, /metrics.json and
// --metrics-out render it as it is.
struct DaemonStatus {
  std::mutex mu;
  obs::Registry reg;
  std::string latest_window_json;  // empty until the first checkpoint
};

// The RetentionManager takes one caller at a time: the event loop ages
// windows and the HTTP workers list /report's files, all under `mu`.  The
// same lock single-flights /report renders (they can take seconds) and
// guards the last render, cached by its path list so repeated scrapes
// between checkpoints fold once.  A render holds `mu` throughout, so no
// fold can be applied — and no file unlinked — while it reads.
struct ReportCache {
  std::mutex mu;
  std::vector<std::string> paths;
  std::string body;
  bool valid = false;
};

// Counters advance to a running total that the analyzer or the retention
// manager keeps, so publishing the same state twice changes nothing.
void advance(obs::Counter* counter, std::uint64_t total) {
  if (total > counter->value()) counter->add(total - counter->value());
}

// Caller holds DaemonStatus::mu.
void publish_ingest(obs::Registry& reg, const IncrementalAnalyzer& analyzer,
                    std::uint64_t packets, bool draining) {
  using obs::MetricClass;
  advance(reg.counter("daemon.packets", MetricClass::kSemantic, "packets ingested"), packets);
  advance(reg.counter("daemon.windows_rotated", MetricClass::kSemantic, "windows rotated"),
          analyzer.windows_rotated());
  advance(reg.counter("daemon.flows_drained", MetricClass::kSemantic,
                      "flows classified by end-of-stream drains"),
          analyzer.drained_total());
  advance(reg.counter("daemon.flows_evicted", MetricClass::kSemantic,
                      "flows closed by idle eviction"),
          analyzer.evicted_total());
  reg.gauge("daemon.live_flows", MetricClass::kTiming, "live flow-table entries")
      ->set(static_cast<double>(analyzer.live_entries()));
  reg.gauge("daemon.stream_ts", MetricClass::kTiming, "latest capture timestamp ingested")
      ->set(analyzer.max_ts());
  reg.gauge("daemon.draining", MetricClass::kTiming,
            "1 once ingest has stopped and the final window is being flushed")
      ->set(draining ? 1.0 : 0.0);
}

// Caller holds ReportCache::mu (the manager's lock), then DaemonStatus::mu.
void publish_retention(obs::Registry& reg, const snapshot::RetentionManager& retention) {
  using obs::MetricClass;
  reg.gauge("daemon.tier0_windows", MetricClass::kTiming, "full-resolution checkpoints kept")
      ->set(static_cast<double>(retention.tier0_count()));
  advance(reg.counter("daemon.summarized_windows", MetricClass::kTiming,
                      "windows aged to the headline summary tier"),
          retention.summarized_count());
  reg.gauge("daemon.tier1_sketches", MetricClass::kTiming,
            "tier-1 sketch files (K aged windows folded each)")
      ->set(static_cast<double>(retention.tier1_sketch_count()));
  reg.gauge("daemon.tier2_sketches", MetricClass::kTiming,
            "tier-2 sketch files (K tier-1 sketches folded each)")
      ->set(static_cast<double>(retention.tier2_sketch_count()));
  reg.gauge("retention.bytes", MetricClass::kTiming,
            "bytes retained across all tiers (checkpoints, sketches, summaries)")
      ->set(static_cast<double>(retention.bytes_retained()));
  advance(reg.counter("retention.io_errors", MetricClass::kTiming,
                      "retention I/O failures (summary appends, removes, sketch folds)"),
          retention.io_errors());
  reg.gauge("retention.fold_backlog", MetricClass::kTiming,
            "aged windows that no applied sketch covers yet")
      ->set(static_cast<double>(retention.pending_count()));
  const obs::Histogram& folds = retention.fold_seconds();
  reg.histogram("retention.fold_seconds", MetricClass::kTiming, folds.bounds(),
                "sketch fold wall time on the fold thread")
      ->restore(folds.buckets(), folds.count(), folds.sum());
  reg.gauge("retention.fold_seconds.p50", MetricClass::kTiming, "median sketch fold time")
      ->set(folds.quantile(0.5));
  reg.gauge("retention.fold_seconds.p99", MetricClass::kTiming, "99th-percentile sketch fold time")
      ->set(folds.quantile(0.99));
}

obs::HttpResponse handle_http(DaemonStatus& st, ReportCache& cache,
                              snapshot::RetentionManager& retention, const DatasetSpec& spec,
                              const AnalyzerConfig& config, const std::string& path) {
  if (path == "/healthz") return {200, "text/plain; charset=utf-8", "ok\n"};

  if (path == "/report") {
    // Fold every retained tier — tier-2 sketches, tier-1 sketches, aged
    // windows, tier-0 checkpoints — back into the full paper report, so the
    // answer covers the entire run, not just the newest keep_full windows.
    // The fold reads files and can take a while, so it runs outside the
    // status lock (and on an HTTP worker thread, so /healthz stays live).
    // Lock order is cache.mu -> st.mu everywhere.
    std::lock_guard<std::mutex> render_lock(cache.mu);
    const std::vector<std::string> paths = retention.report_paths();
    {
      // report_paths() settles the manager: publish the folds it applied.
      std::lock_guard<std::mutex> lock(st.mu);
      publish_retention(st.reg, retention);
    }
    if (paths.empty()) {
      return {404, "text/plain; charset=utf-8", "no window checkpointed yet\n"};
    }
    try {
      if (!cache.valid || cache.paths != paths) {
        cache.body = snapshot::render_windowed_report(paths, spec, config);
        cache.paths = paths;
        cache.valid = true;
      }
      return {200, "text/plain; charset=utf-8", cache.body};
    } catch (const std::exception& e) {
      return {500, "text/plain; charset=utf-8",
              std::string("report unavailable: ") + e.what() + "\n"};
    }
  }

  std::lock_guard<std::mutex> lock(st.mu);
  if (path == "/metrics") return {200, "text/plain; version=0.0.4", obs::render_prometheus(st.reg)};
  if (path == "/metrics.json") return {200, "application/json", obs::render_json(st.reg)};
  if (path == "/window/latest") {
    if (st.latest_window_json.empty()) {
      return {404, "text/plain; charset=utf-8", "no window checkpointed yet\n"};
    }
    return {200, "application/json", st.latest_window_json + "\n"};
  }
  return {404, "text/plain; charset=utf-8", "unknown path\n"};
}

}  // namespace

// A function-try-block: an exception that escapes the run (a snapshot
// write that fails, a port already in use) unwinds every local — the HTTP
// server and the fold thread are joined — and exits 1 instead of aborting.
int main(int argc, char** argv) try {
  std::vector<const char*> positionals;
  std::string out_dir, metrics_out;
  double window_seconds = 60.0;
  double speedup = 0.0;  // 0 = unpaced (as fast as the generators produce)
  std::uint64_t http_port = 0;
  bool serve_http = false;
  std::uint64_t retain = 4;
  std::uint64_t sketch_every = 8;
  std::uint64_t max_windows = 0;  // 0 = until the stream ends
  bool exact = false;
  bool parse_error = false;

  for (int i = 1; i < argc; ++i) {
    const auto has_value = [&](const char* flag) {
      return std::strcmp(argv[i], flag) == 0 && i + 1 < argc;
    };
    // Strict flag-value parsing: std::atoi here would wrap "--retain -1"
    // to SIZE_MAX and read "--retain x" as 0 — both silently.
    const auto uint_value = [&](std::uint64_t& out) {
      if (!cli::parse_uint(argv[++i], out)) {
        std::fprintf(stderr, "%s: '%s' is not a non-negative integer\n", argv[i - 1], argv[i]);
        parse_error = true;
      }
    };
    const auto double_value = [&](double& out) {
      if (!cli::parse_nonneg_double(argv[++i], out)) {
        std::fprintf(stderr, "%s: '%s' is not a non-negative number\n", argv[i - 1], argv[i]);
        parse_error = true;
      }
    };
    if (has_value("--out")) {
      out_dir = argv[++i];
    } else if (has_value("--window")) {
      double_value(window_seconds);
    } else if (has_value("--speedup")) {
      double_value(speedup);
    } else if (has_value("--http-port")) {
      serve_http = true;
      uint_value(http_port);
    } else if (has_value("--retain")) {
      uint_value(retain);
    } else if (has_value("--sketch-every")) {
      uint_value(sketch_every);
    } else if (has_value("--max-windows")) {
      uint_value(max_windows);
    } else if (has_value("--metrics-out")) {
      metrics_out = argv[++i];
    } else if (std::strcmp(argv[i], "--exact") == 0) {
      exact = true;
    } else {
      positionals.push_back(argv[i]);
    }
  }
  if (parse_error) return usage(argv[0]);
  cli::DatasetArgs dataset{"D3", 0.008};
  std::string error;
  const int consumed = cli::parse_dataset_args(positionals, dataset, &error);
  if (consumed < 0 || static_cast<std::size_t>(consumed) != positionals.size()) {
    std::fprintf(stderr, "%s\n", error.empty() ? "unrecognized arguments" : error.c_str());
    return usage(argv[0]);
  }
  if (out_dir.empty()) {
    std::fprintf(stderr, "--out DIR is required (window checkpoints land there)\n");
    return usage(argv[0]);
  }
  if (window_seconds <= 0.0) {
    std::fprintf(stderr, "--window must be > 0\n");
    return usage(argv[0]);
  }
  if (serve_http && http_port > 65535) {
    std::fprintf(stderr, "--http-port must be <= 65535\n");
    return usage(argv[0]);
  }
  if (sketch_every < 2) {
    std::fprintf(stderr, "--sketch-every must be >= 2 (the sketch fold width)\n");
    return usage(argv[0]);
  }
  std::error_code mkdir_error;
  std::filesystem::create_directories(out_dir, mkdir_error);
  if (mkdir_error) {
    std::fprintf(stderr, "entrace_daemon: cannot create --out %s: %s\n", out_dir.c_str(),
                 mkdir_error.message().c_str());
    return 1;
  }

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  const EnterpriseModel model;
  const DatasetSpec spec = dataset_by_name(dataset.name, dataset.scale);
  const SyntheticTraceSourceSet sources(spec, model);
  std::vector<std::unique_ptr<PacketSource>> taps;
  taps.reserve(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) taps.push_back(sources.open(i));
  MergedPacketStream stream(std::move(taps));
  std::vector<TraceMeta> metas;
  metas.reserve(stream.source_count());
  for (std::size_t i = 0; i < stream.source_count(); ++i) metas.push_back(stream.source(i).meta());

  util::SystemClock clock;
  PacedReplaySource paced(stream, clock, speedup);

  const AnalyzerConfig config = default_config_for_model(model.site());
  IncrementalOptions options;
  options.window_seconds = window_seconds;
  options.evict = !exact;
  options.reclaim = !exact;
  IncrementalAnalyzer analyzer(metas, config, options);

  const snapshot::SnapshotMeta snap_meta{spec.name, dataset.scale,
                                         static_cast<std::uint32_t>(sources.size())};
  // The manager's recovery scan picks up whatever an earlier run left in
  // --out, and tells us where window numbering must resume so a restart
  // cannot overwrite retained history.
  snapshot::RetentionOptions retention_opts;
  retention_opts.keep_full = static_cast<std::size_t>(retain);
  retention_opts.sketch_every = static_cast<std::size_t>(sketch_every);
  snapshot::RetentionManager retention(out_dir, retention_opts, config, snap_meta);
  const std::uint64_t window_base = retention.next_window_index();
  if (window_base != 0) {
    std::fprintf(stderr, "entrace_daemon: recovered %zu retained files, resuming at window %llu\n",
                 retention.tier0_count() + retention.pending_count() +
                     retention.tier1_sketch_count() + retention.tier2_sketch_count(),
                 static_cast<unsigned long long>(window_base));
  }

  DaemonStatus status;
  ReportCache report_cache;
  std::uint64_t packets = 0;
  {
    // Register every series before the first scrape can arrive.
    std::lock_guard<std::mutex> render_lock(report_cache.mu);
    std::lock_guard<std::mutex> lock(status.mu);
    publish_ingest(status.reg, analyzer, packets, /*draining=*/false);
    publish_retention(status.reg, retention);
  }
  std::unique_ptr<obs::HttpServer> http;
  if (serve_http) {
    http = std::make_unique<obs::HttpServer>(
        static_cast<std::uint16_t>(http_port),
        [&status, &report_cache, &retention, &spec, &config](const std::string& path) {
          return handle_http(status, report_cache, retention, spec, config, path);
        });
    http->start();
    std::fprintf(stderr, "entrace_daemon: http on 127.0.0.1:%u\n", http->port());
  }

  const auto checkpoint = [&](WindowShard win) {
    win.index += window_base;  // resume numbering past recovered history
    const std::string path = out_dir + "/" + snapshot::window_file_name(win.index);
    snapshot::WindowSummary summary = snapshot::summarize_window(win);
    summary.snapshot_bytes = snapshot::write_window_snapshot(path, snap_meta, win);
    // Applying a finished fold deletes its inputs; the render lock keeps
    // that from happening under an in-flight /report.  The cost is
    // symmetric — a slow render delays this rotation — which is why
    // /healthz and /metrics are served by the other pool worker.
    std::lock_guard<std::mutex> render_lock(report_cache.mu);
    const snapshot::AgeResult aged = retention.add_window(summary, path);
    if (!aged.ok()) {
      std::fprintf(stderr, "entrace_daemon: retention hit %llu I/O error(s) aging window %llu\n",
                   static_cast<unsigned long long>(aged.io_errors),
                   static_cast<unsigned long long>(win.index));
    }
    std::lock_guard<std::mutex> lock(status.mu);
    status.latest_window_json = snapshot::to_json_line(summary);
    publish_retention(status.reg, retention);
  };

  std::vector<PacketView> views(kBatchSize);
  bool source_drained = false;
  while (g_stop == 0) {
    const std::size_t got = paced.next_batch(views.data(), views.size());
    if (got == 0) {
      source_drained = true;
      break;
    }
    packets += got;
    analyzer.feed(views.data(), got);
    while (analyzer.window_complete()) {
      checkpoint(analyzer.rotate());
      std::fprintf(stderr, "entrace_daemon: window %llu done, %zu live flows\n",
                   static_cast<unsigned long long>(analyzer.windows_rotated() - 1),
                   analyzer.live_entries());
    }
    {
      std::lock_guard<std::mutex> lock(status.mu);
      publish_ingest(status.reg, analyzer, packets, /*draining=*/false);
    }
    if (max_windows != 0 && analyzer.windows_rotated() >= max_windows) break;
  }

  // Graceful drain: classify still-open flows and flush the final partial
  // window, whether the stream ended or a signal asked us to stop.
  {
    std::lock_guard<std::mutex> lock(status.mu);
    publish_ingest(status.reg, analyzer, packets, /*draining=*/true);
  }
  if (analyzer.saw_packets()) checkpoint(analyzer.finish(&stream));
  // Settle the manager — apply the running fold and run every due one — so
  // the exit summary and --metrics-out count every fold and every I/O error
  // it surfaced; the destructor then has nothing left to apply.
  {
    std::lock_guard<std::mutex> render_lock(report_cache.mu);
    retention.report_paths();
    std::lock_guard<std::mutex> lock(status.mu);
    publish_ingest(status.reg, analyzer, packets, /*draining=*/true);
    publish_retention(status.reg, retention);
  }
  if (http != nullptr) http->stop();

  std::fprintf(
      stderr,
      "entrace_daemon: %s after %llu packets, %llu windows "
      "(%zu full, %llu aged, %zu+%zu sketches, %llu bytes retained, %llu io errors), "
      "%llu flows drained\n",
      g_stop != 0 ? "drained on signal" : (source_drained ? "stream complete" : "window limit"),
      static_cast<unsigned long long>(packets),
      static_cast<unsigned long long>(analyzer.windows_rotated()), retention.tier0_count(),
      static_cast<unsigned long long>(retention.summarized_count()),
      retention.tier1_sketch_count(), retention.tier2_sketch_count(),
      static_cast<unsigned long long>(retention.bytes_retained()),
      static_cast<unsigned long long>(retention.io_errors()),
      static_cast<unsigned long long>(analyzer.drained_total()));
  if (!metrics_out.empty()) obs::write_metrics_file(status.reg, metrics_out);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "entrace_daemon: %s\n", e.what());
  return 1;
}
