// cluster_loopback: D0 (payload, 22 traces) through cluster::run_cluster,
// 8 jobs over 4 entrace_worker processes on 127.0.0.1 spawned at set-up,
// no faults.  The only workload where snapshot bytes cross a socket and are
// decoded and folded by the coordinator.
//
// The JOB message carries only dataset and scale, so the workers generate
// D0 from its built-in seed: the benchmark seed does not reach them.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "cluster/coordinator.h"
#include "core/report.h"
#include "layers.h"
#include "snapshot/reader.h"
#include "synth/synth_source.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace entrace;

constexpr double kScale = 0.02;
constexpr double kSmokeScale = 0.002;
constexpr std::size_t kWorkers = 4;
constexpr std::size_t kJobs = 8;
constexpr int kSetupReps = 3;

// One entrace_worker child with its stderr on a pipe (its --verbose job
// events are how per-job times are observed from outside).
class WorkerProcess {
 public:
  WorkerProcess(const std::string& bin, const std::string& port_file, const std::string& name) {
    const std::vector<std::string> args = {bin, "--port-file", port_file, "--name", name,
                                           "--verbose"};
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
    pid_ = ::fork();
    if (pid_ < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      throw std::runtime_error("fork failed");
    }
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive a killed benchmark
      ::dup2(fds[1], 2);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    fd_ = fds[0];
  }
  ~WorkerProcess() { stop(); }
  WorkerProcess(const WorkerProcess&) = delete;
  WorkerProcess& operator=(const WorkerProcess&) = delete;

  int pid() const { return pid_; }
  int stderr_fd() const { return fd_; }

  // SIGTERM (the worker drains within one poll tick), SIGKILL after 5 s.
  void stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      const auto t0 = Clock::now();
      int status = 0;
      while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (seconds_since(t0) > 5.0) {
          ::kill(pid_, SIGKILL);
          ::waitpid(pid_, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      pid_ = -1;
    }
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int pid_ = -1;
  int fd_ = -1;
};

std::uint16_t await_port(const std::string& port_file) {
  const auto t0 = Clock::now();
  while (seconds_since(t0) < 10.0) {
    std::ifstream in(port_file);
    unsigned port = 0;
    if (in >> port && port != 0 && port <= 65535) return static_cast<std::uint16_t>(port);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  throw std::runtime_error("worker did not publish " + port_file);
}

// Timestamps each worker's "job ... attempt" and "job ... done" lines as
// they arrive: the span between them is one job's time on the worker.
class JobClock {
 public:
  JobClock(std::vector<int> fds, TraceLog& log)
      : fds_(std::move(fds)), log_(log), start_(fds_.size()), pending_(fds_.size()),
        thread_([this] { loop(); }) {}
  ~JobClock() {
    stop_.store(true);
    thread_.join();
  }
  JobClock(const JobClock&) = delete;
  JobClock& operator=(const JobClock&) = delete;

  void set_run(std::uint64_t run, std::uint64_t parent) {
    run_.store(run);
    parent_.store(parent);
  }
  // Job durations seen so far (seconds); clears them.
  std::vector<double> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(durations_, {});
  }

 private:
  void loop() {
    std::vector<pollfd> polls;
    for (const int fd : fds_) polls.push_back({fd, POLLIN, 0});
    char buf[4096];
    while (!stop_.load()) {
      if (::poll(polls.data(), polls.size(), 20) <= 0) continue;
      for (std::size_t w = 0; w < polls.size(); ++w) {
        if (polls[w].fd < 0 || (polls[w].revents & (POLLIN | POLLHUP)) == 0) continue;
        const ssize_t n = ::read(polls[w].fd, buf, sizeof(buf));
        if (n <= 0) {
          polls[w].fd = -1;  // the worker exited
          continue;
        }
        const auto now = Clock::now();
        pending_[w].append(buf, static_cast<std::size_t>(n));
        std::size_t eol;
        while ((eol = pending_[w].find('\n')) != std::string::npos) {
          on_line(w, pending_[w].substr(0, eol), now);
          pending_[w].erase(0, eol + 1);
        }
      }
    }
  }

  void on_line(std::size_t w, const std::string& line, Clock::time_point now) {
    if (line.find(" attempt ") != std::string::npos) {
      start_[w] = now;
    } else if (line.find(" done: ") != std::string::npos) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        durations_.push_back(seconds_between(start_[w], now));
      }
      if (log_.enabled()) {
        log_.record(log_.reserve_id(), "job on worker " + std::to_string(w), "cluster", start_[w],
                    now, parent_.load(), run_.load());
      }
    }
  }

  std::vector<int> fds_;
  TraceLog& log_;
  std::vector<Clock::time_point> start_;
  std::vector<std::string> pending_;
  std::mutex mu_;
  std::vector<double> durations_;
  std::atomic<std::uint64_t> run_{0}, parent_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after every member it reads
};

struct Iteration {
  double cluster_s = 0.0, render_s = 0.0;
  double dispatch_s = 0.0;
  std::uint64_t attempts = 0, jobs_done = 0, bytes_rx = 0;
  std::vector<double> job_s;
  bool ok = false;
  double wall_s() const { return cluster_s + render_s; }
};

}  // namespace

RunResult run_cluster_loopback(const Options& opt, TraceLog& log) {
  if (opt.worker_bin.empty()) throw std::runtime_error("cluster_loopback needs --worker-bin");
  const EnterpriseModel model;
  const double scale = opt.smoke ? kSmokeScale : kScale;
  const DatasetSpec spec = dataset_d0(scale);  // the workers' built-in seed
  std::filesystem::create_directories(opt.work_dir);

  const auto spawn = [&] {
    std::vector<std::unique_ptr<WorkerProcess>> workers;
    std::vector<std::string> endpoints;
    for (std::size_t w = 0; w < kWorkers; ++w) {
      const std::string port_file = opt.work_dir + "/worker" + std::to_string(w) + ".port";
      std::filesystem::remove(port_file);
      workers.push_back(
          std::make_unique<WorkerProcess>(opt.worker_bin, port_file, "w" + std::to_string(w)));
    }
    for (std::size_t w = 0; w < kWorkers; ++w) {
      const std::string port_file = opt.work_dir + "/worker" + std::to_string(w) + ".port";
      endpoints.push_back("127.0.0.1:" + std::to_string(await_port(port_file)));
    }
    return std::make_pair(std::move(workers), std::move(endpoints));
  };
  // Set-up: the workers, spawned until each has published its port, and
  // the output check's reference, an in-process analysis of the same D0.
  const SyntheticTraceSourceSet sources(spec, model, SyntheticSourceOptions{1, false});
  AnalyzerConfig config = default_config_for_model(model.site());
  config.threads = kThreads;
  std::vector<double> setup_s;
  std::vector<std::unique_ptr<WorkerProcess>> workers;
  std::vector<std::string> endpoints;
  std::vector<TraceShard> ref;
  for (int r = 0; r < (opt.smoke ? 1 : kSetupReps); ++r) {
    workers.clear();  // stops the previous repetition's workers
    const auto t0 = Clock::now();
    std::tie(workers, endpoints) = spawn();
    ref = analyze_trace_shards(sources, config, 0, sources.size());
    setup_s.push_back(seconds_since(t0));
  }
  const TraceSizes sizes = trace_sizes(ref);
  // Traced run: the coordinator's decode + fold, replayed from outside on
  // the snapshot images the workers would send for the same 8 ranges.
  std::vector<std::string> images;
  if (opt.trace) {
    const snapshot::SnapshotMeta meta{spec.name, scale, static_cast<std::uint32_t>(ref.size())};
    for (std::size_t j = 0; j < kJobs; ++j) {
      const std::size_t lo = ref.size() * j / kJobs, hi = ref.size() * (j + 1) / kJobs;
      images.push_back(encode_shards(std::span<const TraceShard>(ref).subspan(lo, hi - lo), meta,
                                     static_cast<std::uint32_t>(lo)));
    }
  }
  std::uint64_t expect = 0;
  {
    const DatasetAnalysis analysis = fold_shards(spec.name, std::move(ref), config);
    const report::ReportInput input{&spec, &analysis};
    expect = digest(report::full_report({&input, 1}));
  }

  RunResult out;
  out.note("dataset", "D0");
  out.note("scale", format_number(scale));
  out.note("traces", std::to_string(sizes.packets.size()));
  out.note("packets", std::to_string(sizes.total));
  out.note("input_bytes", "0 (workers generate D0 from its built-in seed)");
  out.note("largest_job_share", format_number(sizes.largest_job_share(kJobs)));
  out.note("workers", std::to_string(kWorkers));
  out.note("jobs", std::to_string(kJobs));

  std::vector<int> fds;
  for (const auto& w : workers) fds.push_back(w->stderr_fd());
  JobClock jobs(fds, log);

  std::uint64_t run = 0;
  const auto run_once = [&](TraceLog& l) {
    Iteration it;
    ++run;
    SpanScope run_span(l, "cluster_loopback", "run", 0, run);
    jobs.set_run(run, run_span.id());
    obs::Registry reg;
    cluster::ClusterConfig cc;
    cc.dataset = spec.name;
    cc.scale = scale;
    cc.endpoints = endpoints;
    cc.jobs = kJobs;
    cc.shard_threads = 1;
    cc.metrics = &reg;
    const auto t0 = Clock::now();
    orchestrate::OrchestrateResult result;
    {
      SpanScope span(l, "run_cluster", "cluster", run_span.id(), run);
      result = cluster::run_cluster(cc);
    }
    const auto t1 = Clock::now();
    std::string text;
    {
      SpanScope span(l, "render_report", "report", run_span.id(), run);
      text = orchestrate::render_report(result);
    }
    it.render_s = seconds_since(t1);
    it.cluster_s = seconds_between(t0, t1);
    it.dispatch_s = gauge_value(reg, "stage.cluster.seconds");
    it.attempts = counter_value(reg, "cluster.attempts");
    it.jobs_done = counter_value(reg, "cluster.jobs.done");
    it.bytes_rx = counter_value(reg, "cluster.bytes.rx");
    it.ok = result.complete && text.find("PARTIAL") == std::string::npos &&
            digest(text) == expect;
    // The worker's done line may trail the coordinator's fold slightly.
    const auto wait0 = Clock::now();
    while (it.job_s.size() < it.jobs_done && seconds_since(wait0) < 1.0) {
      const std::vector<double> got = jobs.take();
      it.job_s.insert(it.job_s.end(), got.begin(), got.end());
      if (it.job_s.size() < it.jobs_done) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    out.attempted += it.attempts + 1;
    out.failed += (it.attempts - it.jobs_done) + (it.ok ? 0 : 1);
    return it;
  };
  const auto loop = [&](TraceLog& l, double seconds) {
    std::vector<Iteration> its;
    const IterationBudget budget(seconds, opt.smoke);
    while (budget.more(its.size())) its.push_back(run_once(l));
    return its;
  };
  const auto walls = [](const std::vector<Iteration>& its) {
    return median(each(its, [](const Iteration& it) { return it.wall_s(); }));
  };

  TraceLog untraced(false);
  if (!opt.trace) {
    const std::vector<Iteration> its = loop(untraced, opt.seconds);
    std::vector<double> job_s;
    for (const Iteration& it : its) job_s.insert(job_s.end(), it.job_s.begin(), it.job_s.end());
    // The workers are the processes doing the analysis.
    double rss = 0.0;
    for (const auto& w : workers) rss = std::max(rss, pid_peak_rss_mb(w->pid()));
    const double wall = walls(its);
    out.add("setup_s", median(setup_s), "s");
    out.add("wall_s", wall, "s");
    out.add("mpps", static_cast<double>(sizes.total) / wall / 1e6, "Mpps");
    out.add("peak_rss_mb", rss, "MB");
    out.add("report_ms", median(each(its, [](const Iteration& it) { return it.render_s; })) * 1e3,
            "ms");
    out.add("stall_p50_ms", percentile(job_s, 50) * 1e3, "ms");
    out.add("stall_p95_ms", percentile(job_s, 95) * 1e3, "ms");
    out.add("retained_mb",
            median(each(its, [](const Iteration& it) { return 1.0 * it.bytes_rx; })) / 1e6, "MB");
    out.note("x_wall", join_values(each(its, [](const Iteration& it) { return it.wall_s(); })));
    out.note("x_p50", join_values(each(its, [](const Iteration& it) { return percentile(it.job_s, 50); })));
    out.note("x_p95", join_values(each(its, [](const Iteration& it) { return percentile(it.job_s, 100); })));
    out.note("stall_samples", std::to_string(job_s.size()));
    return out;
  }

  const std::vector<Iteration> plain = loop(untraced, opt.seconds / 2);
  const std::vector<Iteration> traced = loop(log, opt.seconds / 2);

  // Decode and fold of the job images, as the coordinator does them.
  std::uint64_t image_bytes = 0;
  const auto d0 = Clock::now();
  std::vector<TraceShard> decoded;
  for (const std::string& image : images) {
    image_bytes += image.size();
    snapshot::Snapshot snap = snapshot::decode_snapshot(
        {reinterpret_cast<const std::uint8_t*>(image.data()), image.size()});
    for (snapshot::SnapshotShard& s : snap.shards) decoded.push_back(std::move(s.shard));
  }
  const auto d1 = Clock::now();
  const DatasetAnalysis folded = fold_shards(spec.name, std::move(decoded), config);
  const auto d2 = Clock::now();

  const auto med = [&](auto f) { return median(each(traced, f)); };
  out.add("cluster.dispatch_s", med([](const Iteration& it) { return it.dispatch_s; }), "s");
  out.add("cluster.bytes_rx_mb", med([](const Iteration& it) { return 1.0 * it.bytes_rx; }) / 1e6,
          "MB");
  out.add("cluster.attempts", med([](const Iteration& it) { return 1.0 * it.attempts; }), "count");
  out.add("cluster.largest_job_share", sizes.largest_job_share(kJobs), "ratio");
  out.add("pool.largest_trace_share", sizes.largest_share(), "ratio");
  out.add("snapshot.decode_mb_per_s",
          static_cast<double>(image_bytes) / seconds_between(d0, d1) / 1e6, "MB/s");
  out.add("core.fold_ms", seconds_between(d1, d2) * 1e3, "ms");
  out.add("report.render_ms", med([](const Iteration& it) { return it.render_s; }) * 1e3, "ms");
  out.add("synth.ns_per_pkt", synth_ns_per_pkt(spec, model), "ns");
  out.add("trace.overhead_s", walls(traced) - walls(plain), "s");
  return out;
}

}  // namespace perfbench
