#include "cluster/worker.h"

#include <sys/socket.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cluster/fault.h"
#include "cluster/protocol.h"
#include "core/analyzer.h"
#include "snapshot/writer.h"
#include "synth/model.h"
#include "synth/synth_source.h"

namespace entrace::cluster {

namespace {

// How long a hang-injected connection stays silent waiting for the
// coordinator to give up; a real deadline fires well before this, the cap
// only guards against a coordinator that never does.
constexpr int kHangCapMs = 60'000;

// Encode the job's .esnap byte stream: the entrace_shard analysis loop with
// SnapshotWriter pointed at memory instead of a file.  Throws on any job
// the worker cannot honor; the caller turns that into an ERROR frame.
std::string encode_job_snapshot(const JobMsg& job) {
  const EnterpriseModel model;
  const DatasetSpec spec = dataset_by_name(job.dataset, job.scale);
  const SyntheticTraceSourceSet sources(spec, model);
  if (sources.size() != job.trace_count) {
    throw std::runtime_error("job names " + std::to_string(job.trace_count) + " traces for " +
                             spec.name + " but the dataset has " + std::to_string(sources.size()));
  }
  if (job.lo >= job.hi || job.hi > sources.size()) {
    throw std::runtime_error("trace range [" + std::to_string(job.lo) + ", " +
                             std::to_string(job.hi) + ") is invalid for " +
                             std::to_string(sources.size()) + " traces");
  }

  AnalyzerConfig config = default_config_for_model(model.site());
  config.threads = job.threads;
  std::vector<TraceShard> shards =
      analyze_trace_shards(sources, config, job.lo, job.hi, nullptr);

  std::ostringstream out(std::ios::binary);
  const snapshot::SnapshotMeta meta{spec.name, job.scale, job.trace_count};
  snapshot::SnapshotWriter writer(out, meta);
  for (std::size_t i = 0; i < shards.size(); ++i) {
    writer.add_shard(job.lo + static_cast<std::uint32_t>(i), shards[i]);
  }
  writer.close();
  return std::move(out).str();
}

}  // namespace

WorkerServer::WorkerServer(const WorkerConfig& config) : config_(config) {
  std::string error;
  listen_ = util::tcp_listen(config.port, &port_, &error);
  if (!listen_.valid()) throw std::runtime_error("worker: " + error);
}

void WorkerServer::serve() {
  while (!stopping_.load(std::memory_order_acquire)) serve_one(100);
}

bool WorkerServer::serve_one(int timeout_ms) {
  if (util::poll_in(listen_.get(), timeout_ms) != 1) return false;
  util::ScopedFd fd(::accept(listen_.get(), nullptr, nullptr));
  if (!fd.valid()) return false;
  handle_connection(fd.get());
  return true;
}

void WorkerServer::handle_connection(int fd) {
  HelloMsg hello;
  hello.worker_name = config_.name;
  const std::vector<std::uint8_t> hello_frame = hello.encode();
  if (!util::send_all(fd, hello_frame.data(), hello_frame.size())) return;

  // Serve JOB frames until the peer closes.  A coordinator that dislikes
  // anything about us just hangs up; there is no goodbye message.
  FrameDecoder decoder;
  char buf[4096];
  for (;;) {
    std::optional<Frame> frame;
    try {
      frame = decoder.next();
    } catch (const ProtocolError& e) {
      if (config_.verbose) std::fprintf(stderr, "[%s] %s\n", config_.name.c_str(), e.what());
      return;  // a peer speaking garbage gets the connection dropped
    }
    if (!frame.has_value()) {
      // Idle between jobs is fine, but a peer that vanished should not pin
      // this worker forever: poll, then read.
      if (util::poll_in(fd, 1000) < 0) return;
      const long n = util::recv_some(fd, buf, sizeof(buf));
      if (n == 0) return;  // orderly close: the coordinator is done with us
      if (n < 0) return;
      decoder.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (frame->type != MsgType::kJob) {
      if (config_.verbose) {
        std::fprintf(stderr, "[%s] unexpected %s frame, dropping connection\n",
                     config_.name.c_str(), to_string(frame->type));
      }
      return;
    }
    JobMsg job;
    try {
      job = JobMsg::decode(*frame);
    } catch (const ProtocolError& e) {
      if (config_.verbose) std::fprintf(stderr, "[%s] %s\n", config_.name.c_str(), e.what());
      return;
    }
    if (!handle_job(fd, job)) return;
  }
}

bool WorkerServer::handle_job(int fd, const JobMsg& job) {
  const auto injected = static_cast<NetFault>(
      job.injected_fault < static_cast<std::uint8_t>(NetFault::kNetFaultCount)
          ? job.injected_fault
          : 0);
  if (config_.verbose) {
    std::fprintf(stderr, "[%s] job %llu attempt %u: %s[%u, %u) threads=%u inject=%s\n",
                 config_.name.c_str(), static_cast<unsigned long long>(job.job_id), job.attempt,
                 job.dataset.c_str(), job.lo, job.hi, job.threads, to_string(injected));
  }

  if (injected == NetFault::kHangInject) {
    // Go silent: no heartbeats, no data.  Wait for the coordinator's
    // deadline to close the connection so the next accept finds a healthy
    // worker, with a cap in case it never does.
    char buf[256];
    const auto start = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - start < std::chrono::milliseconds(kHangCapMs)) {
      if (util::poll_in(fd, 100) != 1) continue;
      const long n = util::recv_some(fd, buf, sizeof(buf));
      if (n <= 0) break;  // peer gave up on us — hang complete
    }
    return false;
  }

  // The analysis runs on this thread while a helper keeps the heartbeat
  // cadence on the socket, so a long analysis never reads as a dead
  // worker.  Not the other way round: on a freshly spawned thread, D0's
  // largest job analyzed ~5% slower than on the thread a --once child
  // starts with (4-vCPU VM, median of 24 runs each).
  const auto interval = std::chrono::milliseconds(
      job.heartbeat_interval_ms == 0 ? 100 : job.heartbeat_interval_ms);
  HeartbeatMsg heartbeat;
  heartbeat.job_id = job.job_id;
  const std::vector<std::uint8_t> heartbeat_frame = heartbeat.encode();
  std::mutex mu;
  std::condition_variable analysis_done;
  bool done = false;        // guarded by mu
  bool peer_alive = true;   // written by the helper; read after the join
  std::thread heartbeats([&] {
    std::unique_lock<std::mutex> lock(mu);
    while (!analysis_done.wait_for(lock, interval, [&] { return done; })) {
      if (!util::send_all(fd, heartbeat_frame.data(), heartbeat_frame.size())) {
        peer_alive = false;  // the analysis still runs to completion
        return;
      }
    }
  });
  std::string bytes;
  std::string failure;
  try {
    bytes = encode_job_snapshot(job);
  } catch (const std::exception& e) {
    failure = e.what();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  analysis_done.notify_one();
  heartbeats.join();
  if (!peer_alive) return false;

  if (!failure.empty()) {
    ErrorMsg err;
    err.job_id = job.job_id;
    err.message = failure;
    const std::vector<std::uint8_t> err_frame = err.encode();
    util::send_all(fd, err_frame.data(), err_frame.size());
    return true;  // the job failed; the worker is fine
  }

  // Stream the snapshot in chunks.  Disconnect-inject closes the
  // connection about halfway through; corrupt-inject flips one payload bit
  // of the first chunk's frame (the receiver's CRC check must catch it).
  const auto* data = reinterpret_cast<const std::uint8_t*>(bytes.data());
  const std::size_t total = bytes.size();
  const std::size_t chunks = (total + kSnapshotChunkSize - 1) / kSnapshotChunkSize;
  const std::size_t disconnect_after =
      injected == NetFault::kDisconnectInject ? (chunks > 1 ? chunks / 2 : 0) : chunks + 1;
  for (std::size_t c = 0; c < chunks; ++c) {
    if (c >= disconnect_after) return false;  // mid-stream hangup, injected
    SnapshotChunkMsg chunk;
    chunk.job_id = job.job_id;
    chunk.offset = static_cast<std::uint64_t>(c * kSnapshotChunkSize);
    const std::size_t len = std::min(kSnapshotChunkSize, total - c * kSnapshotChunkSize);
    chunk.bytes.assign(data + chunk.offset, data + chunk.offset + len);
    std::vector<std::uint8_t> chunk_frame = chunk.encode();
    if (c == 0 && injected == NetFault::kCorruptFrameInject) {
      // Flip a bit inside the frame's payload region, past the header, so
      // the damage is a CRC mismatch rather than bad framing.
      chunk_frame[kFrameHeaderSize + (chunk_frame.size() / 2) % len] ^= 0x10;
    }
    if (!util::send_all(fd, chunk_frame.data(), chunk_frame.size())) return false;
  }

  DoneMsg done_msg;
  done_msg.job_id = job.job_id;
  done_msg.total_bytes = total;
  done_msg.snapshot_crc = snapshot::crc32({data, total});
  const std::vector<std::uint8_t> done_frame = done_msg.encode();
  if (!util::send_all(fd, done_frame.data(), done_frame.size())) return false;
  if (config_.verbose) {
    std::fprintf(stderr, "[%s] job %llu done: %zu bytes in %zu chunks\n", config_.name.c_str(),
                 static_cast<unsigned long long>(job.job_id), total, chunks);
  }
  return true;
}

}  // namespace entrace::cluster
