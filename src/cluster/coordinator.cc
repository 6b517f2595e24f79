#include "cluster/coordinator.h"

#include <stdlib.h>

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "cluster/protocol.h"
#include "obs/stage_timer.h"
#include "snapshot/reader.h"
#include "synth/model.h"
#include "synth/synth_source.h"
#include "util/cli.h"
#include "util/net_io.h"
#include "util/strings.h"
#include "util/subprocess.h"

namespace entrace::cluster {

namespace {

using orchestrate::JobState;
using orchestrate::WorkerFault;

// Idle tick of a dispatch thread with no eligible job: short enough that
// backoff expiries are picked up promptly, long enough to stay cheap on a
// small box.
constexpr auto kIdleTick = std::chrono::milliseconds(5);
// recv chunk granularity; also the poll cap so stop conditions and
// deadlines are rechecked at least this often.
constexpr int kPollCapMs = 100;
// How often a local slot looks for its child's port file.
constexpr auto kPortFileTick = std::chrono::milliseconds(1);
// Seconds to establish a connection before the attempt counts as
// connect-refused.
constexpr double kConnectTimeout = 2.0;

struct Endpoint {
  std::string host;
  std::uint16_t port = 0;  // 0 for a local slot: each attempt's child picks one
  std::string label;       // "host:port" or "local-N", for logs
  bool local = false;
};

// "host:port" with a port in [1, 65535]: the one parser behind both
// parse_endpoints and the coordinator's own endpoint list.
std::optional<Endpoint> parse_endpoint(std::string_view spec, std::string* error) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string_view::npos || colon == 0 || colon + 1 >= spec.size()) {
    *error = "endpoint '" + std::string(spec) + "' is not host:port";
    return std::nullopt;
  }
  std::uint64_t port = 0;
  if (!cli::parse_uint(std::string(spec.substr(colon + 1)), port) || port < 1 || port > 65535) {
    *error = "endpoint '" + std::string(spec) + "' has a bad port";
    return std::nullopt;
  }
  return Endpoint{std::string(spec.substr(0, colon)), static_cast<std::uint16_t>(port),
                  std::string(spec)};
}

struct Job {
  std::size_t index = 0;
  std::size_t lo = 0, hi = 0;
  JobState state = JobState::kPending;
  int launches = 0;
  double eligible_at = 0.0;
  std::vector<WorkerFault> faults;
};

// Per-attempt transfer tallies, accumulated lock-free during the attempt
// and folded into the shared obs counters at settle time (obs::Counter is
// not atomic, so all metric writes happen under the coordinator mutex).
struct AttemptStats {
  std::uint64_t bytes_rx = 0;
  std::uint64_t frames = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t chunks = 0;
  bool connected = false;
};

// Handles into the cluster telemetry (all timing class: they describe the
// run, never the dataset, so clustered reports stay byte-stable).
struct Metrics {
  obs::Counter* attempts = nullptr;
  obs::Counter* reconnects = nullptr;
  obs::Counter* connects = nullptr;
  obs::Counter* bytes_rx = nullptr;
  obs::Counter* frames_rx = nullptr;
  obs::Counter* heartbeats_rx = nullptr;
  obs::Counter* chunks_rx = nullptr;
  obs::Counter* jobs_done = nullptr;
  obs::Counter* jobs_failed = nullptr;
  obs::Counter* retired = nullptr;
  obs::Gauge* backoff_seconds = nullptr;
  std::array<obs::Counter*, orchestrate::kWorkerFaultCount> faults{};

  explicit Metrics(obs::Registry* reg) {
    if (reg == nullptr) return;
    using obs::MetricClass;
    attempts = reg->counter("cluster.attempts", MetricClass::kTiming,
                            "job dispatches across all endpoints");
    reconnects = reg->counter("cluster.reconnects", MetricClass::kTiming,
                              "redispatches after a classified fault");
    connects = reg->counter("cluster.connects", MetricClass::kTiming,
                            "TCP connections established to workers");
    bytes_rx = reg->counter("cluster.bytes.rx", MetricClass::kTiming,
                            "bytes received from workers");
    frames_rx = reg->counter("cluster.frames.rx", MetricClass::kTiming,
                             "protocol frames received from workers");
    heartbeats_rx = reg->counter("cluster.heartbeats.rx", MetricClass::kTiming,
                                 "heartbeat frames received from workers");
    chunks_rx = reg->counter("cluster.chunks.rx", MetricClass::kTiming,
                             "snapshot chunks received from workers");
    jobs_done = reg->counter("cluster.jobs.done", MetricClass::kTiming,
                             "jobs that delivered a validated snapshot");
    jobs_failed = reg->counter("cluster.jobs.failed", MetricClass::kTiming,
                               "jobs that exhausted their attempt budget");
    retired = reg->counter("cluster.endpoints.retired", MetricClass::kTiming,
                           "endpoints retired after genuinely refusing a connection");
    backoff_seconds = reg->gauge("cluster.backoff.seconds", MetricClass::kTiming,
                                 "total backoff delay scheduled before redispatches");
    for (std::size_t f = 1; f < orchestrate::kWorkerFaultCount; ++f) {
      std::string name =
          std::string("cluster.fault.") + to_string(static_cast<WorkerFault>(f));
      std::replace(name.begin(), name.end(), '-', '_');
      faults[f] = reg->counter(name, MetricClass::kTiming,
                               "attempts that ended in this worker fault");
    }
  }
};

class Coordinator {
 public:
  explicit Coordinator(const ClusterConfig& config)
      : config_(config), metrics_(config.metrics) {}
  ~Coordinator() {
    std::error_code ec;
    if (!port_dir_.empty()) std::filesystem::remove_all(port_dir_, ec);
  }
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  orchestrate::OrchestrateResult run() {
    const double start = clock_.now();
    prepare();

    std::vector<std::thread> dispatchers;
    dispatchers.reserve(endpoints_.size());
    for (const Endpoint& endpoint : endpoints_) {
      dispatchers.emplace_back([this, &endpoint] { dispatch_loop(endpoint); });
    }
    for (std::thread& t : dispatchers) t.join();

    orchestrate::OrchestrateResult result = finish();
    if (config_.metrics != nullptr) {
      obs::record_stage(config_.metrics, "cluster", clock_.now() - start, jobs_.size());
    }
    return result;
  }

 private:
  void log(const char* fmt, ...) const __attribute__((format(printf, 2, 3))) {
    if (!config_.verbose) return;
    va_list args;
    va_start(args, fmt);
    std::fprintf(stderr, "[cluster] ");
    std::vfprintf(stderr, fmt, args);
    std::fprintf(stderr, "\n");
    va_end(args);
  }

  void prepare() {
    if (config_.endpoints.empty() && config_.local_slots == 0) {
      throw std::runtime_error("cluster: no worker endpoints configured");
    }
    for (const std::string& spec : config_.endpoints) {
      std::string error;
      std::optional<Endpoint> endpoint = parse_endpoint(spec, &error);
      if (!endpoint.has_value()) throw std::runtime_error("cluster: " + error);
      endpoints_.push_back(std::move(*endpoint));
    }
    if (config_.local_slots > 0) {
      std::error_code ec;
      if (!std::filesystem::exists(config_.worker_binary, ec)) {
        throw std::runtime_error("cluster: worker binary '" + config_.worker_binary +
                                 "' does not exist");
      }
      // One private directory for the children's port files.
      std::string pattern =
          (std::filesystem::temp_directory_path(ec) / "entrace-slots-XXXXXX").string();
      if (::mkdtemp(pattern.data()) == nullptr) {
        throw std::runtime_error("cluster: cannot create a port-file directory");
      }
      port_dir_ = pattern;
      for (std::size_t s = 0; s < config_.local_slots; ++s) {
        endpoints_.push_back(Endpoint{"127.0.0.1", 0, "local-" + std::to_string(s), true});
      }
    }
    active_endpoints_ = endpoints_.size();

    spec_ = dataset_by_name(config_.dataset, config_.scale);
    const EnterpriseModel model;
    trace_count_ = SyntheticTraceSourceSet(spec_, model).size();
    if (trace_count_ == 0) {
      throw std::runtime_error("cluster: dataset " + config_.dataset + " has no traces");
    }
    meta_ = snapshot::SnapshotMeta{spec_.name, config_.scale,
                                   static_cast<std::uint32_t>(trace_count_)};

    std::size_t m = config_.jobs == 0 ? endpoints_.size() : config_.jobs;
    m = std::min(std::max<std::size_t>(1, m), trace_count_);
    jobs_.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
      jobs_[i].index = i;
      jobs_[i].lo = trace_count_ * i / m;
      jobs_[i].hi = trace_count_ * (i + 1) / m;
    }

    // A port that is bound once and immediately released: connecting to it
    // later gets a real ECONNREFUSED, which is how refuse-injection
    // exercises the genuine dead-endpoint code path.
    if (config_.inject.refuse > 0) {
      std::string error;
      util::ScopedFd probe = util::tcp_listen(0, &dead_port_, &error);
      if (!probe.valid()) throw std::runtime_error("cluster: " + error);
    }
    log("%zu traces of %s in %zu jobs over %zu endpoints (budget %d attempts/job)", trace_count_,
        spec_.name.c_str(), m, endpoints_.size(), config_.retry.max_attempts);
  }

  bool terminal_locked() const {
    return std::all_of(jobs_.begin(), jobs_.end(), [](const Job& job) {
      return job.state == JobState::kDone || job.state == JobState::kFailed;
    });
  }

  Job* pick_eligible_locked() {
    for (Job& job : jobs_) {
      if (job.state == JobState::kPending ||
          (job.state == JobState::kRetrying && clock_.now() >= job.eligible_at)) {
        return &job;
      }
    }
    return nullptr;
  }

  void dispatch_loop(const Endpoint& endpoint) {
    for (;;) {
      std::size_t index = 0;
      int attempt = 0;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (terminal_locked()) return;
        Job* job = pick_eligible_locked();
        if (job == nullptr) {
          // Nothing runnable right now; jobs running elsewhere may still
          // fail back into the queue, so idle rather than exit.
        } else {
          job->state = JobState::kRunning;
          attempt = ++job->launches;
          index = job->index;
          if (metrics_.attempts != nullptr) metrics_.attempts->add();
        }
      }
      if (attempt == 0) {
        std::this_thread::sleep_for(kIdleTick);
        continue;
      }

      const NetFault injected = config_.inject.draw(index, attempt);
      std::string detail;
      AttemptStats stats;
      std::map<std::uint32_t, TraceShard> delivered;
      const WorkerFault fault =
          attempt_job(endpoint, jobs_[index], attempt, injected, detail, stats, delivered);
      // Only a genuine refusal says the endpoint is dead; an injected one
      // exercises the retry path without retiring anything.
      const bool refused =
          fault == WorkerFault::kConnectRefused && injected != NetFault::kRefuseInject;
      if (settle(endpoint, jobs_[index], attempt, fault, detail, stats, std::move(delivered),
                 refused)) {
        return;
      }
    }
  }

  // Spawn a local slot's worker child for one attempt and wait for the port
  // it publishes (tmp+rename, so a file that exists is complete).  Silence
  // before then is judged like any worker's silence: by the heartbeat
  // deadline.
  WorkerFault spawn_local_worker(const Endpoint& endpoint, util::Subprocess& child,
                                 std::uint16_t& port, std::string& detail) {
    const std::string port_file = port_dir_ + "/" + endpoint.label + ".port";
    std::error_code ec;
    std::filesystem::remove(port_file, ec);
    std::vector<std::string> argv = {config_.worker_binary, "--once", "--port-file", port_file,
                                     "--name", endpoint.label};
    if (config_.verbose) argv.push_back("--verbose");
    try {
      child = util::Subprocess::spawn(argv);
    } catch (const std::exception& e) {
      detail = e.what();
      return WorkerFault::kConnectRefused;
    }
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(config_.heartbeat_deadline);
    for (;;) {
      std::uint64_t published = 0;
      std::ifstream in(port_file);
      std::string text;
      if (in >> text && cli::parse_uint(text, published) && published >= 1 && published <= 65535) {
        port = static_cast<std::uint16_t>(published);
        return WorkerFault::kNone;
      }
      if (const std::optional<util::ExitStatus> status = child.poll()) {
        detail = endpoint.label + " worker exited before publishing its port (" +
                 (status->exited ? "exit code " + std::to_string(status->exit_code)
                                 : "signal " + std::to_string(status->term_signal)) +
                 ")";
        return WorkerFault::kConnectRefused;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        detail = endpoint.label + " worker published no port within the heartbeat deadline";
        return WorkerFault::kHeartbeatTimeout;
      }
      std::this_thread::sleep_for(kPortFileTick);
    }
  }

  // One network attempt at `job` against `endpoint`: connect, handshake,
  // dispatch, gather, validate.  Pure I/O — no shared state is touched
  // (job.lo/hi/index are immutable after prepare()).
  WorkerFault attempt_job(const Endpoint& endpoint, const Job& job, int attempt,
                          NetFault injected, std::string& detail, AttemptStats& stats,
                          std::map<std::uint32_t, TraceShard>& delivered) {
    std::string host = endpoint.host;
    std::uint16_t port = endpoint.port;
    // A local slot's child for this attempt alone: declared before the
    // connection, so it is SIGKILLed and reaped after the socket closes,
    // however the attempt ends.
    util::Subprocess child;
    if (injected == NetFault::kRefuseInject) {
      host = "127.0.0.1";
      port = dead_port_;
    } else if (endpoint.local) {
      const WorkerFault fault = spawn_local_worker(endpoint, child, port, detail);
      if (fault != WorkerFault::kNone) return fault;
    }
    std::string error;
    util::ScopedFd fd = util::tcp_connect(host, port, kConnectTimeout, &error);
    if (!fd.valid()) {
      detail = error;
      return WorkerFault::kConnectRefused;
    }
    stats.connected = true;

    FrameDecoder decoder;
    std::vector<std::uint8_t> snapshot_bytes;
    std::optional<DoneMsg> done;
    bool got_hello = false;
    char buf[16384];
    auto last_frame = std::chrono::steady_clock::now();
    const auto deadline =
        std::chrono::milliseconds(static_cast<long>(config_.heartbeat_deadline * 1000.0));

    while (!done.has_value()) {
      // Drain every complete frame before blocking again.
      std::optional<Frame> frame;
      try {
        frame = decoder.next();
      } catch (const ProtocolError& e) {
        detail = e.what();
        return WorkerFault::kCorruptFrame;
      }
      if (frame.has_value()) {
        last_frame = std::chrono::steady_clock::now();
        ++stats.frames;
        try {
          switch (frame->type) {
            case MsgType::kHello: {
              const HelloMsg hello = HelloMsg::decode(*frame);
              if (got_hello) {
                detail = "duplicate HELLO";
                return WorkerFault::kCorruptFrame;
              }
              if (hello.protocol_version != kProtocolVersion) {
                detail = "worker '" + hello.worker_name + "' speaks protocol version " +
                         std::to_string(hello.protocol_version) + ", want " +
                         std::to_string(kProtocolVersion);
                return WorkerFault::kCorruptFrame;
              }
              got_hello = true;
              JobMsg msg;
              msg.job_id = job.index;
              msg.attempt = static_cast<std::uint32_t>(attempt);
              msg.dataset = spec_.name;
              msg.scale = config_.scale;
              msg.trace_count = static_cast<std::uint32_t>(trace_count_);
              msg.lo = static_cast<std::uint32_t>(job.lo);
              msg.hi = static_cast<std::uint32_t>(job.hi);
              msg.threads = static_cast<std::uint32_t>(config_.shard_threads);
              msg.heartbeat_interval_ms =
                  static_cast<std::uint32_t>(config_.heartbeat_interval * 1000.0);
              msg.injected_fault = static_cast<std::uint8_t>(
                  injected == NetFault::kRefuseInject ? NetFault::kNoInject : injected);
              const std::vector<std::uint8_t> job_frame = msg.encode();
              if (!util::send_all(fd.get(), job_frame.data(), job_frame.size())) {
                detail = "connection lost sending JOB";
                return WorkerFault::kDisconnect;
              }
              break;
            }
            case MsgType::kHeartbeat: {
              HeartbeatMsg::decode(*frame);
              ++stats.heartbeats;
              break;
            }
            case MsgType::kSnapshotChunk: {
              SnapshotChunkMsg chunk = SnapshotChunkMsg::decode(*frame);
              if (chunk.job_id != job.index) {
                detail = "chunk for job " + std::to_string(chunk.job_id) + " on job " +
                         std::to_string(job.index) + "'s connection";
                return WorkerFault::kCorruptFrame;
              }
              if (chunk.offset != snapshot_bytes.size()) {
                detail = "chunk offset " + std::to_string(chunk.offset) +
                         " leaves a gap (have " + std::to_string(snapshot_bytes.size()) +
                         " bytes)";
                return WorkerFault::kCorruptFrame;
              }
              snapshot_bytes.insert(snapshot_bytes.end(), chunk.bytes.begin(),
                                    chunk.bytes.end());
              ++stats.chunks;
              break;
            }
            case MsgType::kDone: {
              done = DoneMsg::decode(*frame);
              break;
            }
            case MsgType::kError: {
              const ErrorMsg err = ErrorMsg::decode(*frame);
              // The worker's analysis died on this job; the taxonomy's
              // closest kin to "the attempt reported its own death".
              detail = "worker error: " + err.message;
              return WorkerFault::kCrash;
            }
            case MsgType::kJob: {
              detail = "unexpected JOB frame from a worker";
              return WorkerFault::kCorruptFrame;
            }
          }
        } catch (const ProtocolError& e) {
          detail = e.what();
          return WorkerFault::kCorruptFrame;
        }
        continue;
      }

      // No complete frame buffered: wait for bytes, bounded by the
      // heartbeat deadline measured from the last *frame* (any frame —
      // heartbeat, chunk, DONE — proves liveness).
      const auto since_frame = std::chrono::steady_clock::now() - last_frame;
      if (since_frame >= deadline) {
        detail = "no frame within the " + std::to_string(config_.heartbeat_deadline) +
                 "s heartbeat deadline";
        return WorkerFault::kHeartbeatTimeout;
      }
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - since_frame);
      const int wait_ms = static_cast<int>(std::min<long>(left.count() + 1, kPollCapMs));
      const int ready = util::poll_in(fd.get(), wait_ms);
      if (ready < 0) {
        detail = "poll failed on the worker connection";
        return WorkerFault::kDisconnect;
      }
      if (ready == 0) continue;
      const long n = util::recv_some(fd.get(), buf, sizeof(buf));
      if (n == 0) {
        detail = got_hello ? "worker closed the connection before DONE"
                           : "worker closed the connection before HELLO";
        return WorkerFault::kDisconnect;
      }
      if (n < 0) {
        detail = "connection error while receiving";
        return WorkerFault::kDisconnect;
      }
      decoder.feed(buf, static_cast<std::size_t>(n));
      stats.bytes_rx += static_cast<std::uint64_t>(n);
    }

    // Transfer complete: the bytes now have to earn trust, exactly like a
    // shard file delivered by a subprocess.
    if (done->total_bytes != snapshot_bytes.size()) {
      detail = "DONE declares " + std::to_string(done->total_bytes) + " bytes, received " +
               std::to_string(snapshot_bytes.size());
      return WorkerFault::kTruncatedSnapshot;
    }
    if (done->snapshot_crc != snapshot::crc32(snapshot_bytes)) {
      detail = "whole-stream CRC mismatch";
      return WorkerFault::kSnapshotRejected;
    }
    snapshot::Snapshot snap;
    try {
      snap = snapshot::decode_snapshot(snapshot_bytes);
    } catch (const snapshot::SnapshotError& e) {
      detail = e.what();
      return orchestrate::classify_snapshot_error(e);
    }
    const std::string mismatch = snapshot::describe_range_mismatch(snap, meta_, job.lo, job.hi);
    if (!mismatch.empty()) {
      detail = mismatch;
      return WorkerFault::kWrongTraceRange;
    }
    for (snapshot::SnapshotShard& shard : snap.shards) {
      delivered[shard.trace_index] = std::move(shard.shard);
    }
    return WorkerFault::kNone;
  }

  // Advance `job`'s state machine after an attempt.  True when `endpoint`
  // retires: it genuinely refused the connection and another endpoint is
  // still active, so the range goes back to the live ones instead of the
  // dead endpoint burning one attempt of every job in turn.  The last
  // active endpoint never retires, so every job still ends done or failed
  // through its own budget.
  bool settle(const Endpoint& endpoint, Job& job, int attempt, WorkerFault fault,
              const std::string& detail, const AttemptStats& stats,
              std::map<std::uint32_t, TraceShard>&& delivered, bool refused) {
    std::lock_guard<std::mutex> lock(mu_);
    const bool retire = refused && active_endpoints_ > 1;
    if (retire) {
      --active_endpoints_;
      if (metrics_.retired != nullptr) metrics_.retired->add();
      log("%s refused a connection; retired (%zu endpoints left)", endpoint.label.c_str(),
          active_endpoints_);
    }
    if (metrics_.connects != nullptr && stats.connected) metrics_.connects->add();
    if (metrics_.bytes_rx != nullptr) metrics_.bytes_rx->add(stats.bytes_rx);
    if (metrics_.frames_rx != nullptr) metrics_.frames_rx->add(stats.frames);
    if (metrics_.heartbeats_rx != nullptr) metrics_.heartbeats_rx->add(stats.heartbeats);
    if (metrics_.chunks_rx != nullptr) metrics_.chunks_rx->add(stats.chunks);

    if (fault == WorkerFault::kNone) {
      for (auto& [index, shard] : delivered) shards_[index] = std::move(shard);
      job.state = JobState::kDone;
      if (metrics_.jobs_done != nullptr) metrics_.jobs_done->add();
      log("job %zu done on %s (attempt %d): traces [%zu, %zu)", job.index,
          endpoint.label.c_str(), attempt, job.lo, job.hi);
      return retire;
    }

    job.faults.push_back(fault);
    fault_counts_[fault] += 1;
    if (metrics_.faults[static_cast<std::size_t>(fault)] != nullptr) {
      metrics_.faults[static_cast<std::size_t>(fault)]->add();
    }
    if (config_.retry.should_retry(attempt)) {
      const double backoff = config_.retry.backoff_seconds(job.index, attempt);
      job.state = JobState::kRetrying;
      job.eligible_at = clock_.now() + backoff;
      if (metrics_.reconnects != nullptr) metrics_.reconnects->add();
      if (metrics_.backoff_seconds != nullptr) metrics_.backoff_seconds->add(backoff);
      log("job %zu attempt %d on %s: %s (%s); redispatch in %.3fs", job.index, attempt,
          endpoint.label.c_str(), to_string(fault), detail.c_str(), backoff);
    } else {
      job.state = JobState::kFailed;
      if (metrics_.jobs_failed != nullptr) metrics_.jobs_failed->add();
      log("job %zu FAILED after %d attempts: %s (%s); traces [%zu, %zu) will be missing",
          job.index, attempt, to_string(fault), detail.c_str(), job.lo, job.hi);
    }
    return retire;
  }

  orchestrate::OrchestrateResult finish() {
    orchestrate::OrchestrateResult result = orchestrate::fold_result(meta_, std::move(shards_));
    result.fault_counts = fault_counts_;
    for (const Job& job : jobs_) {
      orchestrate::JobOutcome outcome;
      outcome.index = job.index;
      outcome.lo = job.lo;
      outcome.hi = job.hi;
      outcome.state = job.state;
      outcome.attempts = job.launches;
      outcome.faults = job.faults;
      result.attempts += static_cast<std::uint64_t>(job.launches);
      result.retries += static_cast<std::uint64_t>(std::max(0, job.launches - 1));
      result.jobs.push_back(std::move(outcome));
    }
    return result;
  }

  const ClusterConfig& config_;
  util::SystemClock clock_;
  Metrics metrics_;
  DatasetSpec spec_;
  snapshot::SnapshotMeta meta_;
  std::size_t trace_count_ = 0;
  std::vector<Endpoint> endpoints_;
  std::string port_dir_;         // local slots' port files; removed with the coordinator
  std::uint16_t dead_port_ = 1;  // refuse-inject target; rebound in prepare()

  std::mutex mu_;  // guards jobs_ states, shards_, fault_counts_, metrics, active_endpoints_
  std::size_t active_endpoints_ = 0;
  std::vector<Job> jobs_;
  std::map<std::uint32_t, TraceShard> shards_;
  orchestrate::WorkerFaultCounts fault_counts_;
};

}  // namespace

bool parse_endpoints(const std::string& spec, std::vector<std::string>& out, std::string* error) {
  out.clear();
  for (const std::string_view part : split(spec, ',')) {
    if (part.empty()) continue;
    std::string why;
    if (!parse_endpoint(part, &why).has_value()) {
      if (error != nullptr) *error = why;
      return false;
    }
    out.emplace_back(part);
  }
  if (out.empty()) {
    if (error != nullptr) *error = "no endpoints in '" + spec + "'";
    return false;
  }
  return true;
}

orchestrate::OrchestrateResult run_cluster(const ClusterConfig& config) {
  return Coordinator(config).run();
}

}  // namespace entrace::cluster
