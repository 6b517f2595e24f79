// perfbench: the repo benchmark's measuring program.
//
//   perfbench --workload batch_headers|daemon_payload|cluster_loopback
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//             [--trace-out FILE] [--worker-bin PATH] [--git-sha SHA] [--smoke]
//   perfbench --workload batch_headers|daemon_payload --mix --work-dir DIR [--smoke]
//
// Prints the run context, one line per metric with its unit, and as the
// last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones
// (a metric of a layer the workload does not exercise reads 0) and writes
// the spans to --trace-out as Chrome trace-event JSON.  --mix instead
// prints how the workload's shaped inputs differ from its dataset.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "common.h"
#include "workloads.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json ("end_to_end" and "per_layer").
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},       {"wall_s", "s"},        {"mpps", "Mpps"},
    {"peak_rss_mb", "MB"},  {"report_ms", "ms"},    {"stall_p50_ms", "ms"},
    {"stall_p95_ms", "ms"}, {"retained_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"pcap.read_ns_per_pkt", "ns"},
    {"pcap.merge_ns_per_pkt", "ns"},
    {"synth.ns_per_pkt", "ns"},
    {"net.decode_ns_per_pkt", "ns"},
    {"core.tally_ns_per_pkt", "ns"},
    {"flow.ns_per_pkt", "ns"},
    {"proto.payload_ns_per_pkt", "ns"},
    {"pool.busy_s", "s"},
    {"pool.max_task_s", "s"},
    {"pool.critical_share", "ratio"},
    {"pool.wall_1t_s", "s"},
    {"pool.wall_4t_s", "s"},
    {"pool.speedup_vs_1t", "x"},
    {"pool.largest_trace_share", "ratio"},
    {"core.feed_ns_per_pkt", "ns"},
    {"core.feed_1t_s", "s"},
    {"core.feed_4t_s", "s"},
    {"core.feed_speedup_vs_1t", "x"},
    {"core.rotate_ms_p50", "ms"},
    {"core.fold_ms", "ms"},
    {"report.render_ms", "ms"},
    {"snapshot.encode_ms_p50", "ms"},
    {"snapshot.encode_mb_per_s", "MB/s"},
    {"snapshot.window_kb_p50", "KB"},
    {"snapshot.age_ms_p50", "ms"},
    {"snapshot.age_ms_p95", "ms"},
    {"snapshot.sketch_folds", "count"},
    {"snapshot.report_read_ms", "ms"},
    {"snapshot.report_merge_ms", "ms"},
    {"snapshot.report_fold_ms", "ms"},
    {"snapshot.report_render_ms", "ms"},
    {"snapshot.decode_mb_per_s", "MB/s"},
    {"flow.live_peak", "count"},
    {"flow.evicted", "count"},
    {"cluster.dispatch_s", "s"},
    {"cluster.bytes_rx_mb", "MB"},
    {"cluster.attempts", "count"},
    {"cluster.largest_job_share", "ratio"},
    {"trace.overhead_s", "s"},
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload batch_headers|daemon_payload|cluster_loopback\n"
               "          --seed N --seconds S --trace 0|1 --work-dir DIR\n"
               "          [--trace-out FILE] [--worker-bin PATH] [--git-sha SHA] [--smoke]\n"
               "       %s --workload batch_headers|daemon_payload --mix --work-dir DIR [--smoke]\n",
               argv0, argv0);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  if (*s == '\0' || *s == '-') return false;
  out = std::strtoull(s, &end, 10);
  return *end == '\0';
}

bool parse_seconds(const char* s, double& out) {
  char* end = nullptr;
  out = std::strtod(s, &end);
  return *s != '\0' && *end == '\0' && out > 0.0 && out <= 3600.0;
}

// Removes the work directory however the run ends.
struct WorkDirGuard {
  std::string path;
  ~WorkDirGuard() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove_all(path, ec);
  }
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string git_sha = "unknown";
  std::uint64_t trace = 0;
  bool have_seed = false, have_seconds = false, have_trace = false, mix = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke" || flag == "--mix") {
      (flag == "--smoke" ? opt.smoke : mix) = true;
      continue;
    }
    if (i + 1 >= argc) return usage(argv[0]);
    const char* value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, opt.seed)) return usage(argv[0]);
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_seconds(value, opt.seconds)) return usage(argv[0]);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!parse_u64(value, trace) || trace > 1) return usage(argv[0]);
      have_trace = true;
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else if (flag == "--worker-bin") {
      opt.worker_bin = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      return usage(argv[0]);
    }
  }
  opt.trace = trace == 1;
  if (mix) {
    void (*print)(const Options&) = nullptr;
    if (opt.workload == "batch_headers") print = print_batch_headers_mix;
    if (opt.workload == "daemon_payload") print = print_daemon_payload_mix;
    if (print == nullptr || opt.work_dir.empty()) return usage(argv[0]);
    const WorkDirGuard guard{opt.work_dir};
    try {
      print(opt);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: --mix failed: %s\n", e.what());
      return 1;
    }
    return 0;
  }
  if (!have_seed || !have_seconds || !have_trace || opt.work_dir.empty()) return usage(argv[0]);

  RunResult (*workload)(const Options&, TraceLog&) = nullptr;
  if (opt.workload == "batch_headers") workload = run_batch_headers;
  if (opt.workload == "daemon_payload") workload = run_daemon_payload;
  if (opt.workload == "cluster_loopback") workload = run_cluster_loopback;
  if (workload == nullptr) return usage(argv[0]);

  const WorkDirGuard guard{opt.work_dir};
  TraceLog log(opt.trace);
  RunResult result;
  try {
    result = workload(opt, log);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }

  std::vector<std::pair<std::string, std::string>> context = {
      {"workload", opt.workload},
      {"mode", opt.trace ? "traced" : "untraced"},
      {"smoke", opt.smoke ? "1" : "0"},
      {"seed", std::to_string(opt.seed)},
      {"seconds", format_number(opt.seconds)},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"compiler", PERFBENCH_COMPILER},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"git_sha", git_sha},
  };
  context.insert(context.end(), result.context.begin(), result.context.end());
  std::printf("context {");
  for (std::size_t i = 0; i < context.size(); ++i) {
    std::printf("%s%s: %s", i ? ", " : "", json_string(context[i].first).c_str(),
                json_string(context[i].second).c_str());
  }
  std::printf("}\n");

  std::map<std::string, Metric> by_name;
  for (const Metric& m : result.metrics) by_name[m.name] = m;
  std::string metrics_json;
  bool complete = true;
  const auto emit = [&](const MetricSpec& spec, bool required) {
    const auto it = by_name.find(spec.name);
    if ((it == by_name.end() && required) ||
        (it != by_name.end() && it->second.unit != spec.unit)) {
      std::fprintf(stderr, "perfbench: %s did not measure %s in %s\n", opt.workload.c_str(),
                   spec.name, spec.unit);
      complete = false;
      return;
    }
    const double value = it == by_name.end() ? 0.0 : it->second.value;
    std::printf("metric %-28s %16s %-6s%s\n", spec.name, format_number(value).c_str(), spec.unit,
                it == by_name.end() ? "  (layer not exercised by this workload)" : "");
    if (!metrics_json.empty()) metrics_json += ", ";
    metrics_json += "\"" + std::string(spec.name) + "\": {\"value\": " + format_number(value) +
                    ", \"unit\": \"" + spec.unit + "\"}";
  };
  if (opt.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec, false);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec, true);
  }
  if (!complete) return 1;
  const double error_rate = result.attempted == 0 ? 1.0
                                                  : static_cast<double>(result.failed) /
                                                        static_cast<double>(result.attempted);
  std::printf("metric %-28s %16s %-6s(%llu failed of %llu attempted)\n", "error_rate",
              format_number(error_rate).c_str(), "ratio",
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));

  if (opt.trace && !opt.trace_out.empty()) {
    if (!log.write(opt.trace_out, context)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_out.c_str());
      return 1;
    }
    std::printf("trace %s (%zu spans)\n", opt.trace_out.c_str(), log.size());
  }

  const bool correct = result.attempted > 0 && result.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics_json.c_str());
  return 0;
}
