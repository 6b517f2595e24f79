// entrace_orchestrate: fault-tolerant dispatch front end over the cluster
// coordinator (src/cluster).
//
// Partitions a dataset's traces into jobs and runs them on entrace_worker
// processes: --workers N local slots, each attempt in a fresh child that is
// SIGKILLed and reaped when the attempt ends, and/or --cluster endpoints
// (long-lived workers, e.g. on other hosts).  Every worker streams its
// .esnap bytes back in CRC-framed chunks while heartbeating, and the
// coordinator survives the ways workers actually fail: refused connects,
// mid-stream disconnects (a crashed child), corrupt frames, silence past
// the heartbeat deadline, and snapshots that fail validation all land in a
// retry loop with seeded-jitter exponential backoff.  For any fault
// schedule in which every job eventually succeeds, the report printed here
// is byte-identical to a direct single-process run.  When a job exhausts
// its attempt budget the run degrades gracefully instead of dying: with
// --allow-partial it exits 0 and brands the report PARTIAL with a coverage
// manifest naming the missing traces.
//
// --inject drives the built-in deterministic network-fault harness
// (per-attempt probabilities, seeded per job attempt) — the same knob the
// cluster test suite and bench study use:
//
//   $ entrace_orchestrate D0 0.01 --workers 4 --retries 8 --hb-timeout 2 ..
//       --inject refuse=0.05,disconnect=0.05,corrupt=0.05,hang=0.05 > report.txt
//   $ entrace_orchestrate D0 0.01 --cluster 10.0.0.5:7461,10.0.0.6:7461
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "cluster/coordinator.h"
#include "obs/exposition.h"
#include "util/cli.h"

using namespace entrace;

namespace {

// The shortest and longest heartbeat interval or deadline, in seconds: one
// millisecond, and UINT32_MAX milliseconds rounded down.
constexpr double kMinHeartbeatSeconds = 0.001;
constexpr double kMaxHeartbeatSeconds = 4294967.0;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [D0|D1|D2|D3|D4] [scale]\n"
      "  [--workers N]         local worker slots, a fresh child per attempt\n"
      "                        (default 2 without --cluster, else 0)\n"
      "  [--cluster H:P,...]   also dispatch to these entrace_worker endpoints\n"
      "  [--jobs N]            trace-range partitions (default: one per worker)\n"
      "  [--shard-threads N]   analysis threads per worker (default 1)\n"
      "  [--retries K]         retries per job after the first attempt (default 2)\n"
      "  [--backoff S]         base retry delay, seconds (default 0.05)\n"
      "  [--seed S]            fault-injection + backoff-jitter seed (default 1)\n"
      "  [--inject SPEC]       refuse=P,disconnect=P,corrupt=P,hang=P per-attempt faults\n"
      "  [--inject-attempts N] inject only into each job's first N attempts\n"
      "  [--hb-interval S]     worker heartbeat cadence, seconds (default 0.1)\n"
      "  [--hb-timeout S]      silence deadline before a worker is hung (default 5)\n"
      "  [--allow-partial]     exit 0 with a PARTIAL report when jobs exhaust retries\n"
      "  [--worker-bin PATH]   entrace_worker binary (default: next to this binary)\n"
      "  [--metrics-out FILE]  write cluster.* metrics (.json or .prom)\n"
      "  [--verbose]           per-event progress on stderr\n",
      argv0);
  return 2;
}

// The worker binary ships next to this one; fall back to argv[0]'s
// directory when /proc/self/exe is unavailable.
std::string sibling_binary(const char* argv0, const char* name) {
  std::error_code ec;
  std::filesystem::path self = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) self = std::filesystem::absolute(argv0, ec);
  return (self.parent_path() / name).string();
}

}  // namespace

int main(int argc, char** argv) {
  cluster::ClusterConfig config;
  config.retry.max_attempts = 3;  // --retries 2
  bool allow_partial = false;
  std::string metrics_out, cluster_spec;
  std::uint64_t workers = 2, retries = 2, seed = 1;
  bool workers_set = false, parse_error = false;
  std::vector<const char*> positionals;

  for (int i = 1; i < argc; ++i) {
    const auto has_value = [&](const char* flag) {
      return std::strcmp(argv[i], flag) == 0 && i + 1 < argc;
    };
    // Strict flag-value parsing: std::atoi here would run "--workers abc"
    // as 0 workers and "--retries -1" as a wrapped budget — both silently.
    const auto uint_value = [&](std::uint64_t& out, std::uint64_t max = INT_MAX) {
      if (!cli::parse_uint(argv[++i], out) || out > max) {
        std::fprintf(stderr, "%s: '%s' is not an integer in [0, %llu]\n", argv[i - 1], argv[i],
                     static_cast<unsigned long long>(max));
        parse_error = true;
      }
    };
    const auto seconds_value = [&](double& out, bool positive) {
      if (!cli::parse_nonneg_double(argv[++i], out) || (positive && out <= 0.0)) {
        std::fprintf(stderr, "%s: '%s' is not a %s number of seconds\n", argv[i - 1], argv[i],
                     positive ? "positive" : "non-negative");
        parse_error = true;
        return false;
      }
      return true;
    };
    // The heartbeat cadence travels as u32 milliseconds in the JOB frame,
    // and the deadline becomes a millisecond count too.  Below a millisecond
    // the count would be 0, which the worker reads as "use the default".
    const auto heartbeat_value = [&](double& out) {
      if (seconds_value(out, true) &&
          (out < kMinHeartbeatSeconds || out > kMaxHeartbeatSeconds)) {
        std::fprintf(stderr, "%s: '%s' is not between %.3f and %.0f seconds\n", argv[i - 1],
                     argv[i], kMinHeartbeatSeconds, kMaxHeartbeatSeconds);
        parse_error = true;
      }
    };
    std::uint64_t n = 0;
    if (has_value("--workers")) {
      uint_value(workers);
      workers_set = true;
    } else if (has_value("--cluster")) {
      cluster_spec = argv[++i];
    } else if (has_value("--jobs")) {
      uint_value(n);
      config.jobs = static_cast<std::size_t>(n);
    } else if (has_value("--shard-threads")) {
      uint_value(n);
      config.shard_threads = static_cast<std::size_t>(n);
    } else if (has_value("--retries")) {
      uint_value(retries, INT_MAX - 1);
      config.retry.max_attempts = static_cast<int>(retries) + 1;
    } else if (has_value("--backoff")) {
      seconds_value(config.retry.base_delay, false);
    } else if (has_value("--seed")) {
      uint_value(seed, UINT64_MAX);
      config.inject.seed = seed;
      config.retry.seed = seed;
    } else if (has_value("--inject")) {
      std::string error;
      if (!cluster::parse_net_inject_spec(argv[++i], config.inject, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        parse_error = true;
      }
    } else if (has_value("--inject-attempts")) {
      uint_value(n);
      config.inject.attempt_limit = static_cast<int>(n);
    } else if (has_value("--hb-interval")) {
      heartbeat_value(config.heartbeat_interval);
    } else if (has_value("--hb-timeout")) {
      heartbeat_value(config.heartbeat_deadline);
    } else if (has_value("--worker-bin")) {
      config.worker_binary = argv[++i];
    } else if (has_value("--metrics-out")) {
      metrics_out = argv[++i];
    } else if (std::strcmp(argv[i], "--allow-partial") == 0) {
      allow_partial = true;
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      config.verbose = true;
    } else {
      positionals.push_back(argv[i]);
    }
  }
  if (parse_error) return usage(argv[0]);

  cli::DatasetArgs dataset{config.dataset, config.scale};
  std::string error;
  const int consumed = cli::parse_dataset_args(positionals, dataset, &error);
  if (consumed < 0 || static_cast<std::size_t>(consumed) != positionals.size()) {
    std::fprintf(stderr, "%s\n", error.empty() ? "unrecognized arguments" : error.c_str());
    return usage(argv[0]);
  }
  config.dataset = dataset.name;
  config.scale = dataset.scale;
  if (!cluster_spec.empty() && !cluster::parse_endpoints(cluster_spec, config.endpoints, &error)) {
    std::fprintf(stderr, "--cluster: %s\n", error.c_str());
    return usage(argv[0]);
  }
  config.local_slots = workers_set || cluster_spec.empty() ? static_cast<std::size_t>(workers) : 0;
  if (config.worker_binary.empty()) {
    config.worker_binary = sibling_binary(argv[0], "entrace_worker");
  }

  obs::Registry metrics;
  config.metrics = &metrics;

  orchestrate::OrchestrateResult result;
  try {
    result = cluster::run_cluster(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "orchestrate: %s\n", e.what());
    return 2;
  }

  std::fprintf(stderr,
               "orchestrate: %zu jobs, %llu attempts (%llu retries), %llu faults; "
               "%zu of %u traces covered\n",
               result.jobs.size(), static_cast<unsigned long long>(result.attempts),
               static_cast<unsigned long long>(result.retries),
               static_cast<unsigned long long>(result.fault_counts.total_faults()),
               result.manifest.covered(), result.manifest.trace_count);

  const std::string report = orchestrate::render_report(result);
  std::fputs(report.c_str(), stdout);

  if (!metrics_out.empty()) {
    try {
      obs::write_metrics_file(metrics, metrics_out);
      std::fprintf(stderr, "wrote metrics to %s\n", metrics_out.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "--metrics-out: %s\n", e.what());
      return 1;
    }
  }

  if (!result.complete && !allow_partial) {
    std::fprintf(stderr,
                 "orchestrate: incomplete run (missing traces %s) and --allow-partial not set\n",
                 result.manifest.missing_ranges().c_str());
    return 1;
  }
  return 0;
}
