// batch_headers: D1 (snaplen 68, 44 traces) from pcap files, analyzed by
// analyze_trace_shards on kThreads threads, folded and rendered.
//
// Header-only capture puts nearly all the work in pcap read, decode, tally
// and flow, and in balancing the thread pool, because one trace holds 30%
// of the packets; payload parsers and snapshots sit idle.
#include <mutex>

#include "core/report.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace entrace;

constexpr double kScale = 0.1;
constexpr double kSmokeScale = 0.004;
// 20k packets per tap.  The mail-server subnet's first hour (D1 monitors
// it, and its SMTP is boosted 110x) keeps 360k, 30% of the total: the one
// oversized trace the pool has to balance around.  D1's largest trace held
// 34.5% of the bytes at the dataset's built-in seed.
constexpr std::uint64_t kPerTrace = 20'000, kBusy = 360'000;
constexpr std::uint64_t kSmokePerTrace = 1'000, kSmokeBusy = 18'000;
constexpr int kSetupReps = 3;
constexpr int kSerialIterations = 2;  // 1-thread base of pool.speedup_vs_1t

struct Iteration {
  double analyze_s = 0.0, fold_s = 0.0, render_s = 0.0;
  std::vector<double> batch_s;  // per-batch processing pauses of every trace job
  bool ok = false;
  // Traced iterations only: the program's own stage and pool timers.
  double decode_ns = 0.0, tally_ns = 0.0, flow_ns = 0.0;
  double busy_s = 0.0, max_task_s = 0.0;

  double wall_s() const { return analyze_s + fold_s + render_s; }
};

struct Inputs {
  DatasetSpec spec;
  AnalyzerConfig config;
  PcapDataset data;
  std::uint64_t expect = 0;  // digest of the 1-thread reference report
};

PacketBudget budget_for(const EnterpriseModel& model, bool smoke) {
  return {smoke ? kSmokePerTrace : kPerTrace, model.subnet_of(model.smtp_server().ip),
          smoke ? kSmokeBusy : kBusy};
}

Iteration run_once(const Inputs& in, const TraceSourceSet& files, std::size_t threads,
                   TraceLog& log, std::uint64_t run) {
  AnalyzerConfig config = in.config;
  config.threads = threads;
  Iteration it;
  SpanScope run_span(log, "batch_headers", "run", 0, run);
  const std::uint64_t analyze_id = log.enabled() ? log.reserve_id() : 0;
  std::mutex mu;
  const JobTimingSourceSet timed(
      files, [&](std::size_t i, Clock::time_point open, Clock::time_point close,
                 const std::vector<double>& batch_s) {
        std::lock_guard<std::mutex> lock(mu);
        it.batch_s.insert(it.batch_s.end(), batch_s.begin(), batch_s.end());
        if (log.enabled()) {
          log.record(log.reserve_id(), in.data.files[i].name, "core", open, close, analyze_id,
                     run);
        }
      });

  obs::Registry pool;
  const auto t0 = Clock::now();
  std::vector<TraceShard> shards = analyze_trace_shards(timed, config, 0, timed.size(), &pool);
  const auto t1 = Clock::now();
  it.analyze_s = seconds_between(t0, t1);
  if (log.enabled()) {
    log.record(analyze_id, "analyze_trace_shards", "core", t0, t1, run_span.id(), run);
    const obs::Registry stages = merged_metrics(shards);
    it.decode_ns = stage_ns_per_item(stages, "batch.decode");
    it.tally_ns = stage_ns_per_item(stages, "batch.tally");
    it.flow_ns = stage_ns_per_item(stages, "batch.flow");
    it.busy_s = gauge_value(pool, "pool.busy_seconds");
    it.max_task_s = gauge_value(pool, "pool.max_task_seconds");
  }

  const auto t2 = Clock::now();
  DatasetAnalysis analysis;
  {
    SpanScope span(log, "fold_shards", "core", run_span.id(), run);
    analysis = fold_shards(in.spec.name, std::move(shards), config);
  }
  const auto t3 = Clock::now();
  std::string text;
  {
    SpanScope span(log, "full_report", "report", run_span.id(), run);
    const report::ReportInput input{&in.spec, &analysis};
    text = report::full_report({&input, 1});
  }
  const auto t4 = Clock::now();
  it.fold_s = seconds_between(t2, t3);
  it.render_s = seconds_between(t3, t4);
  it.ok = digest(text) == in.expect;
  return it;
}

}  // namespace

RunResult run_batch_headers(const Options& opt, TraceLog& log) {
  const EnterpriseModel model;
  const double scale = opt.smoke ? kSmokeScale : kScale;
  Inputs in;
  in.spec = seeded(dataset_d1(scale), opt.seed);
  in.config = default_config_for_model(model.site());

  const PacketBudget budget = budget_for(model, opt.smoke);
  std::vector<double> setup_s;
  for (int r = 0; r < (opt.smoke ? 1 : kSetupReps); ++r) {
    const auto t0 = Clock::now();
    in.data = write_pcap_dataset(in.spec, model, opt.work_dir, budget);
    setup_s.push_back(seconds_since(t0));
  }
  const PcapFileSourceSet files(in.spec.name, in.data.files);

  // The output check's reference: the same pcaps analyzed on one thread.
  AnalyzerConfig serial = in.config;
  serial.threads = 1;
  std::vector<TraceShard> ref = analyze_trace_shards(files, serial, 0, files.size());
  const TraceSizes sizes = trace_sizes(ref);
  const snapshot::SnapshotMeta meta{in.spec.name, scale, static_cast<std::uint32_t>(files.size())};
  const double retained_mb = static_cast<double>(encode_shards(ref, meta).size()) / 1e6;
  {
    const DatasetAnalysis analysis = fold_shards(in.spec.name, std::move(ref), serial);
    const report::ReportInput input{&in.spec, &analysis};
    in.expect = digest(report::full_report({&input, 1}));
  }

  RunResult out;
  out.note("dataset", "D1");
  out.note("scale", format_number(scale));
  out.note("traces", std::to_string(files.size()));
  out.note("packets", std::to_string(sizes.total));
  out.note("input_bytes", std::to_string(in.data.input_bytes));
  out.note("largest_trace_share", format_number(sizes.largest_share()));
  out.note("threads", std::to_string(kThreads));
  // peak_rss_mb covers the measured iterations, not the set-up before them.
  out.note("peak_rss_since", reset_peak_rss() ? "set-up end" : "process start");

  std::uint64_t run = 0;
  const auto loop = [&](TraceLog& l, std::size_t threads, double seconds, int max_iterations) {
    std::vector<Iteration> its;
    const IterationBudget budget(seconds, opt.smoke);
    while (budget.more(its.size()) && static_cast<int>(its.size()) < max_iterations) {
      its.push_back(run_once(in, files, threads, l, ++run));
      ++out.attempted;
      if (!its.back().ok) ++out.failed;
    }
    return its;
  };
  const auto walls = [](const std::vector<Iteration>& its) {
    return median(each(its, [](const Iteration& it) { return it.wall_s(); }));
  };

  TraceLog untraced(false);
  if (!opt.trace) {
    const std::vector<Iteration> its = loop(untraced, kThreads, opt.seconds, 1 << 30);
    std::vector<double> batches;
    for (const Iteration& it : its) {
      batches.insert(batches.end(), it.batch_s.begin(), it.batch_s.end());
    }
    const double wall = walls(its);
    out.add("setup_s", median(setup_s), "s");
    out.add("wall_s", wall, "s");
    out.add("mpps", static_cast<double>(sizes.total) / wall / 1e6, "Mpps");
    out.add("peak_rss_mb", self_peak_rss_mb(), "MB");
    out.add("report_ms",
            median(each(its, [](const Iteration& it) { return it.fold_s + it.render_s; })) * 1e3,
            "ms");
    out.add("stall_p50_ms", percentile(batches, 50) * 1e3, "ms");
    out.add("stall_p95_ms", percentile(batches, 95) * 1e3, "ms");
    out.add("retained_mb", retained_mb, "MB");
    out.note("x_wall", join_values(each(its, [](const Iteration& it) { return it.wall_s(); })));
    out.note("stall_samples", std::to_string(batches.size()));
    return out;
  }

  const std::vector<Iteration> plain = loop(untraced, kThreads, opt.seconds / 2, 1 << 30);
  const std::vector<Iteration> traced = loop(log, kThreads, opt.seconds / 2, 1 << 30);
  const std::vector<Iteration> one = loop(log, 1, 1e9, kSerialIterations);
  const auto analyze_s = [](const Iteration& it) { return it.analyze_s; };
  const double wall_4t = median(each(traced, analyze_s));
  const double wall_1t = median(each(one, analyze_s));
  const double window = in.data.span_seconds / kReplayWindows;
  const double feed_1t = replay_feed_seconds(in.data.files, in.config, 1, window);
  const double feed_4t = replay_feed_seconds(in.data.files, in.config, kThreads, window);

  const auto med = [&](auto f) { return median(each(traced, f)); };
  out.add("pcap.read_ns_per_pkt", pcap_read_ns_per_pkt(in.data.files), "ns");
  out.add("net.decode_ns_per_pkt", med([](const Iteration& it) { return it.decode_ns; }), "ns");
  out.add("core.tally_ns_per_pkt", med([](const Iteration& it) { return it.tally_ns; }), "ns");
  out.add("flow.ns_per_pkt", med([](const Iteration& it) { return it.flow_ns; }), "ns");
  out.add("proto.payload_ns_per_pkt", payload_ns_per_pkt(files, in.config), "ns");
  out.add("pool.busy_s", med([](const Iteration& it) { return it.busy_s; }), "s");
  out.add("pool.max_task_s", med([](const Iteration& it) { return it.max_task_s; }), "s");
  out.add("pool.critical_share",
          med([](const Iteration& it) { return it.max_task_s / it.analyze_s; }), "ratio");
  out.add("pool.wall_1t_s", wall_1t, "s");
  out.add("pool.wall_4t_s", wall_4t, "s");
  out.add("pool.speedup_vs_1t", wall_1t / wall_4t, "x");
  out.add("pool.largest_trace_share", sizes.largest_share(), "ratio");
  out.add("core.fold_ms", med([](const Iteration& it) { return it.fold_s; }) * 1e3, "ms");
  out.add("report.render_ms", med([](const Iteration& it) { return it.render_s; }) * 1e3, "ms");
  out.add("core.feed_1t_s", feed_1t, "s");
  out.add("core.feed_4t_s", feed_4t, "s");
  out.add("core.feed_ns_per_pkt", feed_4t * 1e9 / static_cast<double>(sizes.total), "ns");
  out.add("core.feed_speedup_vs_1t", feed_1t / feed_4t, "x");
  out.add("synth.ns_per_pkt", synth_ns_per_pkt(in.spec, model), "ns");
  out.add("trace.overhead_s", walls(traced) - walls(plain), "s");
  return out;
}

void print_batch_headers_mix(const Options& opt) {
  const EnterpriseModel model;
  const double scale = opt.smoke ? kSmokeScale : kScale;
  print_input_mix(dataset_d1(scale), budget_for(model, opt.smoke), model, opt.work_dir);
}

}  // namespace perfbench
