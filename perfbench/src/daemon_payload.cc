// daemon_payload: D3 (full snaplen, 18 traces) from pcap files, replayed
// unpaced through MergedPacketStream into IncrementalAnalyzer on kThreads
// threads with eviction and reclaim on, as entrace_daemon runs by default.
// Every window is checkpointed with write_window_snapshot and aged by a
// tiered RetentionManager (keep_full 4, sketch_every 8); after the final
// checkpoint a fixed number of /report renders fold the retained history.
//
// Payload parsing, the per-batch demux barrier, snapshot writes and sketch
// folds dominate here, with /report reads beside those writes.  The
// workload drives the library calls of entrace_daemon's loop: the binary
// generates its own traffic and exposes no per-window timing.
#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "core/incremental.h"
#include "core/report.h"
#include "layers.h"
#include "snapshot/retention.h"
#include "snapshot/window.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace entrace;

constexpr double kScale = 0.1;
constexpr double kSmokeScale = 0.004;
constexpr PacketBudget kBudget{20'000};
constexpr PacketBudget kSmokeBudget{2'000};
constexpr int kSetupReps = 3;
constexpr int kReports = 2;  // /report renders per iteration
constexpr std::uint64_t kMinWindows = 256;

struct Report {
  double read_s = 0.0, merge_s = 0.0, fold_s = 0.0, render_s = 0.0;
  std::uint64_t read_bytes = 0;
  double total_s() const { return read_s + merge_s + fold_s + render_s; }
};

struct Iteration {
  double wall_s = 0.0;
  std::uint64_t packets = 0;
  std::uint64_t windows = 0;
  std::vector<double> stall_s, rotate_s, encode_s, age_s, window_bytes;
  std::uint64_t io_errors = 0, sketch_folds = 0, retained_peak = 0, live_peak = 0, evicted = 0;
  std::vector<Report> reports;
  std::uint64_t failed_checks = 0;
  // Traced iterations only.
  double merge_s = 0.0, feed_s = 0.0;
  double decode_ns = 0.0, tally_ns = 0.0, flow_ns = 0.0;
};

struct Inputs {
  DatasetSpec spec;
  AnalyzerConfig config;
  PcapDataset data;
  snapshot::SnapshotMeta meta;
  std::string checkpoint_dir;
  double window_seconds = 0.0;
};

Iteration run_once(const Inputs& in, TraceLog& log, std::uint64_t run, std::uint64_t& expect) {
  std::filesystem::remove_all(in.checkpoint_dir);
  std::filesystem::create_directories(in.checkpoint_dir);
  const bool traced = log.enabled();
  Iteration it;
  SpanScope run_span(log, "daemon_payload", "run", 0, run);

  const auto t0 = Clock::now();
  std::vector<std::unique_ptr<PacketSource>> opened;
  for (const PcapTraceSpec& f : in.data.files) {
    opened.push_back(std::make_unique<PcapFileSource>(f.path, f.name, f.subnet_id));
  }
  MergedPacketStream stream(std::move(opened));
  std::vector<TraceMeta> metas;
  for (std::size_t i = 0; i < stream.source_count(); ++i) metas.push_back(stream.source(i).meta());
  AnalyzerConfig config = in.config;
  config.threads = kThreads;
  IncrementalAnalyzer analyzer(std::move(metas), config,
                               IncrementalOptions{in.window_seconds, true, true});
  snapshot::RetentionManager retention(in.checkpoint_dir, snapshot::RetentionOptions{4, 8},
                                       config, in.meta);

  // The pause one window inflicts on ingest: rotate, encode, age, and
  // dropping the window, as the daemon's checkpoint lambda does.
  const auto checkpoint = [&](bool final) {
    const auto c0 = Clock::now();
    Clock::time_point c1, c2, c3;
    double probe_s = 0.0;  // reading the stage timers is not part of the pause
    {
      WindowShard win = final ? analyzer.finish(&stream) : analyzer.rotate();
      c1 = Clock::now();
      const std::string path = in.checkpoint_dir + "/" + snapshot::window_file_name(win.index);
      snapshot::WindowSummary summary = snapshot::summarize_window(win);
      summary.snapshot_bytes = snapshot::write_window_snapshot(path, in.meta, win);
      c2 = Clock::now();
      it.io_errors += retention.add_window(summary, path).io_errors;
      c3 = Clock::now();
      it.window_bytes.push_back(static_cast<double>(summary.snapshot_bytes));
      if (final && traced) {
        // The final window carries each trace's cumulative stage timers.
        const obs::Registry stages = merged_metrics(win.shards);
        it.decode_ns = stage_ns_per_item(stages, "batch.decode");
        it.tally_ns = stage_ns_per_item(stages, "batch.tally");
        it.flow_ns = stage_ns_per_item(stages, "batch.flow");
        probe_s = seconds_since(c3);
      }
    }
    const auto c4 = Clock::now();
    it.stall_s.push_back(seconds_between(c0, c4) - probe_s);
    it.rotate_s.push_back(seconds_between(c0, c1));
    it.encode_s.push_back(seconds_between(c1, c2));
    it.age_s.push_back(seconds_between(c2, c3));
    it.retained_peak = std::max(it.retained_peak, retention.bytes_retained());
    it.live_peak = std::max<std::uint64_t>(it.live_peak, analyzer.live_entries());
    if (traced) {
      const std::uint64_t id = log.reserve_id();
      log.record(id, "window", "snapshot", c0, c4, run_span.id(), run);
      log.record(log.reserve_id(), "rotate", "core", c0, c1, id, run);
      log.record(log.reserve_id(), "write_window_snapshot", "snapshot", c1, c2, id, run);
      log.record(log.reserve_id(), "add_window", "snapshot", c2, c3, id, run);
    }
  };

  std::vector<PacketView> views(kBatch);
  for (;;) {
    const auto b0 = traced ? Clock::now() : Clock::time_point{};
    const std::size_t got = stream.next_batch(views.data(), views.size());
    const auto b1 = traced ? Clock::now() : Clock::time_point{};
    if (got == 0) break;
    it.packets += got;
    analyzer.feed(views.data(), got);
    if (traced) {
      const auto b2 = Clock::now();
      it.merge_s += seconds_between(b0, b1);
      it.feed_s += seconds_between(b1, b2);
    }
    while (analyzer.window_complete()) checkpoint(false);
  }
  if (analyzer.saw_packets()) checkpoint(true);
  it.wall_s = seconds_since(t0);
  it.windows = it.stall_s.size();
  it.evicted = analyzer.evicted_total();
  it.sketch_folds = retention.sketch_folds();

  // /report: the daemon's render_windowed_report, phase by phase.
  for (int r = 0; r < kReports; ++r) {
    SpanScope report_span(log, "/report", "report", run_span.id(), run);
    Report rep;
    const std::vector<std::string> paths = retention.report_paths();
    const auto r0 = Clock::now();
    std::vector<WindowShard> windows;
    for (std::size_t i = 0; i < paths.size(); ++i) {
      windows.push_back(snapshot::read_window_snapshot(paths[i]));
      windows.back().index = i;
    }
    const auto r1 = Clock::now();
    std::vector<TraceShard> shards = snapshot::merge_window_shards(std::move(windows), config);
    const auto r2 = Clock::now();
    const DatasetAnalysis analysis = fold_shards(in.spec.name, std::move(shards), config);
    const auto r3 = Clock::now();
    const report::ReportInput input{&in.spec, &analysis};
    const std::string text = report::full_report({&input, 1});
    const auto r4 = Clock::now();
    rep.read_s = seconds_between(r0, r1);
    rep.merge_s = seconds_between(r1, r2);
    rep.fold_s = seconds_between(r2, r3);
    rep.render_s = seconds_between(r3, r4);
    rep.read_bytes = total_file_bytes(paths);
    it.reports.push_back(rep);
    if (traced) {
      const std::uint64_t parent = report_span.id();
      log.record(log.reserve_id(), "read_window_snapshot", "snapshot", r0, r1, parent, run);
      log.record(log.reserve_id(), "merge_window_shards", "snapshot", r1, r2, parent, run);
      log.record(log.reserve_id(), "fold_shards", "core", r2, r3, parent, run);
      log.record(log.reserve_id(), "full_report", "report", r3, r4, parent, run);
    }
    // The report must account for every packet ingested, and render the
    // same bytes on every iteration.
    const std::uint64_t d = digest(text);
    if (expect == 0) expect = d;
    if (analysis.quality.packets_seen != it.packets || d != expect) ++it.failed_checks;
  }
  return it;
}

template <typename F>
std::vector<double> each_report(const std::vector<Iteration>& its, F f) {
  std::vector<double> v;
  for (const Iteration& it : its) {
    for (const Report& r : it.reports) v.push_back(f(r));
  }
  return v;
}

std::vector<double> pooled(const std::vector<Iteration>& its,
                           std::vector<double> Iteration::*samples) {
  std::vector<double> v;
  for (const Iteration& it : its) v.insert(v.end(), (it.*samples).begin(), (it.*samples).end());
  return v;
}

}  // namespace

RunResult run_daemon_payload(const Options& opt, TraceLog& log) {
  const EnterpriseModel model;
  const double scale = opt.smoke ? kSmokeScale : kScale;
  Inputs in;
  in.spec = seeded(dataset_d3(scale), opt.seed);
  in.config = default_config_for_model(model.site());
  in.checkpoint_dir = opt.work_dir + "/checkpoints";

  std::vector<double> setup_s;
  for (int r = 0; r < (opt.smoke ? 1 : kSetupReps); ++r) {
    const auto t0 = Clock::now();
    in.data = write_pcap_dataset(in.spec, model, opt.work_dir + "/pcap",
                                 opt.smoke ? kSmokeBudget : kBudget);
    setup_s.push_back(seconds_since(t0));
  }
  in.meta = {in.spec.name, scale, static_cast<std::uint32_t>(in.data.files.size())};
  in.window_seconds = in.data.span_seconds / kReplayWindows;
  const TraceSizes& sizes = in.data.sizes;

  RunResult out;
  out.note("dataset", "D3");
  out.note("scale", format_number(scale));
  out.note("traces", std::to_string(in.data.files.size()));
  out.note("packets", std::to_string(sizes.total));
  out.note("input_bytes", std::to_string(in.data.input_bytes));
  out.note("largest_trace_share", format_number(sizes.largest_share()));
  out.note("window_seconds", format_number(in.window_seconds));
  out.note("threads", std::to_string(kThreads));
  // peak_rss_mb covers the measured iterations, not the set-up before them.
  out.note("peak_rss_since", reset_peak_rss() ? "set-up end" : "process start");

  std::uint64_t run = 0;
  std::uint64_t expect = 0;  // digest of the first /report
  const auto loop = [&](TraceLog& l, double seconds) {
    std::vector<Iteration> its;
    const IterationBudget budget(seconds, opt.smoke);
    while (budget.more(its.size())) {
      its.push_back(run_once(in, l, ++run, expect));
      const Iteration& it = its.back();
      if (!opt.smoke && it.windows < kMinWindows) {
        throw std::runtime_error("daemon_payload rotated only " + std::to_string(it.windows) +
                                 " windows");
      }
      out.attempted += it.windows + it.reports.size();
      out.failed += it.io_errors + it.failed_checks;
    }
    return its;
  };
  const auto walls = [](const std::vector<Iteration>& its) {
    return median(each(its, [](const Iteration& it) { return it.wall_s; }));
  };

  TraceLog untraced(false);
  if (!opt.trace) {
    const std::vector<Iteration> its = loop(untraced, opt.seconds);
    const std::vector<double> stalls = pooled(its, &Iteration::stall_s);
    const double wall = walls(its);
    out.add("setup_s", median(setup_s), "s");
    out.add("wall_s", wall, "s");
    out.add("mpps", static_cast<double>(its.front().packets) / wall / 1e6, "Mpps");
    out.add("peak_rss_mb", self_peak_rss_mb(), "MB");
    out.add("report_ms",
            median(each_report(its, [](const Report& r) { return r.total_s(); })) * 1e3, "ms");
    out.add("stall_p50_ms", percentile(stalls, 50) * 1e3, "ms");
    out.add("stall_p95_ms", percentile(stalls, 95) * 1e3, "ms");
    out.add("retained_mb",
            median(each(its, [](const Iteration& it) { return 1.0 * it.retained_peak; })) / 1e6,
            "MB");
    out.note("x_wall", join_values(each(its, [](const Iteration& it) { return it.wall_s; })));
    out.note("x_p50", join_values(each(its, [](const Iteration& it) { return percentile(it.stall_s, 50); })));
    out.note("x_p95", join_values(each(its, [](const Iteration& it) { return percentile(it.stall_s, 95); })));
    out.note("stall_samples", std::to_string(stalls.size()));
    out.note("windows", std::to_string(its.front().windows));
    return out;
  }

  const std::vector<Iteration> plain = loop(untraced, opt.seconds / 2);
  const std::vector<Iteration> traced = loop(log, opt.seconds / 2);
  const double feed_1t = replay_feed_seconds(in.data.files, in.config, 1, in.window_seconds);
  const double feed_4t =
      replay_feed_seconds(in.data.files, in.config, kThreads, in.window_seconds);
  const PcapFileSourceSet files(in.spec.name, in.data.files);
  const auto med = [&](auto f) { return median(each(traced, f)); };
  const auto med_report = [&](auto f) { return median(each_report(traced, f)); };
  const std::vector<double> encode_s = pooled(traced, &Iteration::encode_s);
  const std::vector<double> window_bytes = pooled(traced, &Iteration::window_bytes);
  const std::vector<double> age_s = pooled(traced, &Iteration::age_s);
  double encode_total = 0.0, bytes_total = 0.0;
  for (const double s : encode_s) encode_total += s;
  for (const double b : window_bytes) bytes_total += b;
  const double read_ms = med_report([](const Report& r) { return r.read_s; }) * 1e3;
  const double fold_ms = med_report([](const Report& r) { return r.fold_s; }) * 1e3;
  const double render_ms = med_report([](const Report& r) { return r.render_s; }) * 1e3;

  out.add("pcap.read_ns_per_pkt", pcap_read_ns_per_pkt(in.data.files), "ns");
  out.add("pcap.merge_ns_per_pkt",
          med([](const Iteration& it) { return it.merge_s * 1e9 / it.packets; }), "ns");
  out.add("net.decode_ns_per_pkt", med([](const Iteration& it) { return it.decode_ns; }), "ns");
  out.add("core.tally_ns_per_pkt", med([](const Iteration& it) { return it.tally_ns; }), "ns");
  out.add("flow.ns_per_pkt", med([](const Iteration& it) { return it.flow_ns; }), "ns");
  out.add("proto.payload_ns_per_pkt", payload_ns_per_pkt(files, in.config), "ns");
  out.add("pool.largest_trace_share", sizes.largest_share(), "ratio");
  out.add("core.feed_ns_per_pkt",
          med([](const Iteration& it) { return it.feed_s * 1e9 / it.packets; }), "ns");
  out.add("core.feed_1t_s", feed_1t, "s");
  out.add("core.feed_4t_s", feed_4t, "s");
  out.add("core.feed_speedup_vs_1t", feed_1t / feed_4t, "x");
  out.add("core.rotate_ms_p50", percentile(pooled(traced, &Iteration::rotate_s), 50) * 1e3, "ms");
  out.add("snapshot.encode_ms_p50", percentile(encode_s, 50) * 1e3, "ms");
  out.add("snapshot.encode_mb_per_s", bytes_total / encode_total / 1e6, "MB/s");
  out.add("snapshot.window_kb_p50", percentile(window_bytes, 50) / 1e3, "KB");
  out.add("snapshot.age_ms_p50", percentile(age_s, 50) * 1e3, "ms");
  out.add("snapshot.age_ms_p95", percentile(age_s, 95) * 1e3, "ms");
  out.add("snapshot.sketch_folds", med([](const Iteration& it) { return 1.0 * it.sketch_folds; }),
          "count");
  out.add("snapshot.report_read_ms", read_ms, "ms");
  out.add("snapshot.report_merge_ms", med_report([](const Report& r) { return r.merge_s; }) * 1e3,
          "ms");
  out.add("snapshot.report_fold_ms", fold_ms, "ms");
  out.add("snapshot.report_render_ms", render_ms, "ms");
  out.add("snapshot.decode_mb_per_s",
          med_report([](const Report& r) { return r.read_bytes / r.read_s; }) / 1e6, "MB/s");
  out.add("core.fold_ms", fold_ms, "ms");
  out.add("report.render_ms", render_ms, "ms");
  out.add("flow.live_peak", med([](const Iteration& it) { return 1.0 * it.live_peak; }), "count");
  out.add("flow.evicted", med([](const Iteration& it) { return 1.0 * it.evicted; }), "count");
  out.add("synth.ns_per_pkt", synth_ns_per_pkt(in.spec, model), "ns");
  out.add("trace.overhead_s", walls(traced) - walls(plain), "s");
  return out;
}

void print_daemon_payload_mix(const Options& opt) {
  const EnterpriseModel model;
  print_input_mix(dataset_d3(opt.smoke ? kSmokeScale : kScale), opt.smoke ? kSmokeBudget : kBudget,
                  model, opt.work_dir);
}

}  // namespace perfbench
