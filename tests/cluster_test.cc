// Cluster suite (CTest label "cluster", also run under sanitizers via
// `ctest --preset cluster-asan` / `ctest --preset cluster-tsan`).
//
// Pins the contracts the cluster layer (src/cluster) is trusted on:
//
//   codec      every message round-trips through FrameDecoder regardless of
//              how the byte stream is fragmented (byte-at-a-time, odd chunk
//              sizes), and structural damage — bad magic, unknown type,
//              hostile length, flipped payload bit — is a ProtocolError at a
//              named offset, never undefined behavior.  A seeded byte-flip
//              fuzz asserts no single-byte corruption ever yields the
//              original frame sequence silently.
//
//   dispatch   run_cluster produces a report byte-identical to a direct
//              single-process run: clean, per injected network-fault kind
//              (refuse / disconnect / corrupt frame / hang), and under a
//              mixed fault schedule — while an exhausted retry budget
//              degrades to the CoverageManifest + PARTIAL banner, never a
//              crash or a torn fold.  Each case runs on both fleet inputs:
//              in-process worker threads over loopback TCP, and local slots
//              that spawn an entrace_worker child per attempt, after which
//              no child may be left behind.  A dead endpoint retires
//              instead of burning every job's budget.
//
//   http       the observability server survives hostile clients: oversized
//              request lines answer 400, empty connections and mid-request
//              hangups are shrugged off, and an honest request still works
//              afterwards.
//
//   /report    render_windowed_report over the daemon's retained window
//              checkpoints equals the one-shot batch report.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/fault.h"
#include "cluster/protocol.h"
#include "cluster/worker.h"
#include "core/analyzer.h"
#include "core/incremental.h"
#include "core/report.h"
#include "obs/http_server.h"
#include "obs/metrics.h"
#include "pcap/replay.h"
#include "snapshot/reader.h"
#include "snapshot/window.h"
#include "snapshot/writer.h"
#include "synth/generator.h"
#include "synth/synth_source.h"
#include "util/net_io.h"
#include "util/subprocess.h"

namespace entrace {
namespace {

namespace fs = std::filesystem;
using cluster::Frame;
using cluster::FrameDecoder;
using cluster::MsgType;
using cluster::NetFault;
using cluster::ProtocolError;

// ---- codec: fragmentation invariance ----------------------------------------

cluster::JobMsg sample_job() {
  cluster::JobMsg job;
  job.job_id = 42;
  job.attempt = 3;
  job.dataset = "D0";
  job.scale = 0.004;
  job.trace_count = 22;
  job.lo = 7;
  job.hi = 11;
  job.threads = 2;
  job.heartbeat_interval_ms = 100;
  job.injected_fault = static_cast<std::uint8_t>(NetFault::kDisconnectInject);
  return job;
}

// Feed `bytes` to a decoder in pieces of `chunk` bytes, collecting every
// complete frame.
std::vector<Frame> decode_in_chunks(const std::vector<std::uint8_t>& bytes, std::size_t chunk) {
  FrameDecoder decoder;
  std::vector<Frame> frames;
  for (std::size_t i = 0; i < bytes.size(); i += chunk) {
    decoder.feed(bytes.data() + i, std::min(chunk, bytes.size() - i));
    while (auto f = decoder.next()) frames.push_back(std::move(*f));
  }
  EXPECT_EQ(decoder.buffered(), 0u);
  return frames;
}

TEST(ClusterCodecTest, EveryMessageRoundTripsByteAtATime) {
  cluster::HelloMsg hello;
  hello.worker_name = "w0";
  cluster::HeartbeatMsg beat;
  beat.job_id = 42;
  cluster::SnapshotChunkMsg chunk;
  chunk.job_id = 42;
  chunk.offset = 128 * 1024;
  for (int i = 0; i < 1000; ++i) chunk.bytes.push_back(static_cast<std::uint8_t>(i * 7));
  cluster::DoneMsg done;
  done.job_id = 42;
  done.total_bytes = 999;
  done.snapshot_crc = 0xdeadbeef;
  cluster::ErrorMsg err;
  err.job_id = 42;
  err.message = "unknown dataset \"D9\"";

  std::vector<std::uint8_t> stream;
  for (const auto& frame_bytes : {hello.encode(), sample_job().encode(), beat.encode(),
                                  chunk.encode(), done.encode(), err.encode()}) {
    stream.insert(stream.end(), frame_bytes.begin(), frame_bytes.end());
  }

  const std::vector<Frame> frames = decode_in_chunks(stream, 1);
  ASSERT_EQ(frames.size(), 6u);

  EXPECT_EQ(cluster::HelloMsg::decode(frames[0]).worker_name, "w0");
  EXPECT_EQ(cluster::HelloMsg::decode(frames[0]).protocol_version, cluster::kProtocolVersion);
  const cluster::JobMsg job = cluster::JobMsg::decode(frames[1]);
  EXPECT_EQ(job.job_id, 42u);
  EXPECT_EQ(job.attempt, 3u);
  EXPECT_EQ(job.dataset, "D0");
  EXPECT_EQ(job.scale, 0.004);
  EXPECT_EQ(job.trace_count, 22u);
  EXPECT_EQ(job.lo, 7u);
  EXPECT_EQ(job.hi, 11u);
  EXPECT_EQ(job.threads, 2u);
  EXPECT_EQ(job.heartbeat_interval_ms, 100u);
  EXPECT_EQ(job.injected_fault, static_cast<std::uint8_t>(NetFault::kDisconnectInject));
  EXPECT_EQ(cluster::HeartbeatMsg::decode(frames[2]).job_id, 42u);
  const cluster::SnapshotChunkMsg rt = cluster::SnapshotChunkMsg::decode(frames[3]);
  EXPECT_EQ(rt.offset, chunk.offset);
  EXPECT_EQ(rt.bytes, chunk.bytes);
  EXPECT_EQ(cluster::DoneMsg::decode(frames[4]).snapshot_crc, 0xdeadbeefu);
  EXPECT_EQ(cluster::ErrorMsg::decode(frames[5]).message, err.message);
}

TEST(ClusterCodecTest, FragmentationDoesNotChangeTheFrameSequence) {
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 8; ++i) {
    cluster::SnapshotChunkMsg chunk;
    chunk.job_id = static_cast<std::uint64_t>(i);
    chunk.offset = static_cast<std::uint64_t>(i) * 100;
    for (int j = 0; j < 50 + i * 37; ++j) chunk.bytes.push_back(static_cast<std::uint8_t>(i + j));
    const auto bytes = chunk.encode();
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }

  const std::vector<Frame> reference = decode_in_chunks(stream, stream.size());
  ASSERT_EQ(reference.size(), 8u);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                                  std::size_t{13}, std::size_t{101}}) {
    SCOPED_TRACE("chunk=" + std::to_string(chunk));
    const std::vector<Frame> frames = decode_in_chunks(stream, chunk);
    ASSERT_EQ(frames.size(), reference.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(frames[i].type, reference[i].type);
      EXPECT_EQ(frames[i].payload, reference[i].payload);
    }
  }
}

TEST(ClusterCodecTest, IncompleteFrameIsNullopt) {
  const auto bytes = sample_job().encode();
  FrameDecoder decoder;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    decoder.feed(bytes.data() + i, 1);
    EXPECT_FALSE(decoder.next().has_value()) << "frame complete after " << (i + 1) << " of "
                                             << bytes.size() << " bytes";
  }
  decoder.feed(bytes.data() + bytes.size() - 1, 1);
  EXPECT_TRUE(decoder.next().has_value());
}

TEST(ClusterCodecTest, StructuralDamageIsAProtocolErrorAtAnOffset) {
  const auto good = sample_job().encode();

  {  // bad magic
    auto bytes = good;
    bytes[0] ^= 0xff;
    FrameDecoder d;
    d.feed(bytes.data(), bytes.size());
    EXPECT_THROW(d.next(), ProtocolError);
  }
  {  // unknown message type
    auto bytes = good;
    bytes[cluster::kFrameMagicSize] = 0x77;
    FrameDecoder d;
    d.feed(bytes.data(), bytes.size());
    EXPECT_THROW(d.next(), ProtocolError);
  }
  {  // hostile length: claims more than kMaxFramePayload
    auto bytes = good;
    bytes[cluster::kFrameMagicSize + 4 + 3] = 0xff;  // top byte of length:u32
    FrameDecoder d;
    d.feed(bytes.data(), bytes.size());
    EXPECT_THROW(d.next(), ProtocolError);
  }
  {  // flipped payload bit: the CRC trailer catches it
    auto bytes = good;
    bytes[cluster::kFrameHeaderSize + 5] ^= 0x01;
    FrameDecoder d;
    d.feed(bytes.data(), bytes.size());
    EXPECT_THROW(d.next(), ProtocolError);
  }
  {  // the error names where in the stream the damage sits
    auto bytes = good;
    bytes[cluster::kFrameHeaderSize] ^= 0x01;
    FrameDecoder d;
    d.feed(bytes.data(), bytes.size());
    try {
      d.next();
      FAIL() << "corrupt frame decoded";
    } catch (const ProtocolError& e) {
      EXPECT_LE(e.offset(), bytes.size());
      EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
    }
  }
}

// Seeded single-byte-flip fuzz over a multi-frame stream: no flip may crash
// the decoder, and none may reproduce the original frame sequence without
// either a ProtocolError or an observable difference (changed frame, or a
// starved decoder when the length field grew).
TEST(ClusterCodecTest, ByteFlipFuzzNeverPassesSilently) {
  std::vector<std::uint8_t> stream;
  std::vector<Frame> reference;
  {
    cluster::HelloMsg hello;
    hello.worker_name = "fuzz";
    cluster::HeartbeatMsg beat;
    beat.job_id = 7;
    cluster::DoneMsg done;
    done.job_id = 7;
    done.total_bytes = 123;
    done.snapshot_crc = 456;
    for (const auto& b : {hello.encode(), sample_job().encode(), beat.encode(), done.encode()}) {
      stream.insert(stream.end(), b.begin(), b.end());
    }
    reference = decode_in_chunks(stream, stream.size());
    ASSERT_EQ(reference.size(), 4u);
  }

  // xorshift64: the same cheap deterministic draw the fault harness uses.
  std::uint64_t rng = 0x5eedu;
  const auto next_u64 = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };

  for (int round = 0; round < 500; ++round) {
    auto bytes = stream;
    const std::size_t pos = static_cast<std::size_t>(next_u64() % bytes.size());
    const std::uint8_t mask = static_cast<std::uint8_t>(1u << (next_u64() % 8));
    bytes[pos] ^= mask;

    FrameDecoder decoder;
    std::vector<Frame> frames;
    bool threw = false;
    try {
      decoder.feed(bytes.data(), bytes.size());
      while (auto f = decoder.next()) frames.push_back(std::move(*f));
    } catch (const ProtocolError&) {
      threw = true;
    }
    if (threw) continue;  // damage detected structurally: the desired outcome
    const bool identical =
        frames.size() == reference.size() &&
        std::equal(frames.begin(), frames.end(), reference.begin(), [](const Frame& a,
                                                                       const Frame& b) {
          return a.type == b.type && a.payload == b.payload;
        });
    EXPECT_FALSE(identical) << "flip of bit " << int(mask) << " at byte " << pos
                            << " went completely unnoticed";
  }
}

// The coordinator's receive path in miniature: a real .esnap image sliced
// into SNAPSHOT chunks at odd sizes, carried through the frame codec one
// byte at a time, reassembled, and decoded by the untrusted-input snapshot
// reader.  Any slicing must hand decode_snapshot the identical image.
TEST(ClusterCodecTest, SnapshotSurvivesArbitraryChunkSlicing) {
  std::ostringstream out(std::ios::binary);
  snapshot::SnapshotWriter writer(out, {"D0", 0.004, 22});
  writer.add_shard(3, TraceShard{});
  writer.add_shard(9, TraceShard{});
  writer.close();
  const std::string image = std::move(out).str();
  ASSERT_GT(image.size(), 64u);

  for (const std::size_t slice : {std::size_t{1}, std::size_t{37}, std::size_t{1000},
                                  image.size()}) {
    SCOPED_TRACE("slice=" + std::to_string(slice));
    std::vector<std::uint8_t> stream;
    for (std::size_t off = 0; off < image.size(); off += slice) {
      cluster::SnapshotChunkMsg chunk;
      chunk.job_id = 1;
      chunk.offset = off;
      const std::size_t len = std::min(slice, image.size() - off);
      chunk.bytes.assign(image.begin() + static_cast<long>(off),
                         image.begin() + static_cast<long>(off + len));
      const auto bytes = chunk.encode();
      stream.insert(stream.end(), bytes.begin(), bytes.end());
    }

    std::vector<std::uint8_t> assembled;
    for (const Frame& f : decode_in_chunks(stream, 1)) {
      const auto chunk = cluster::SnapshotChunkMsg::decode(f);
      ASSERT_EQ(chunk.offset, assembled.size()) << "chunks must arrive contiguously";
      assembled.insert(assembled.end(), chunk.bytes.begin(), chunk.bytes.end());
    }
    ASSERT_EQ(assembled.size(), image.size());
    EXPECT_EQ(std::memcmp(assembled.data(), image.data(), image.size()), 0);

    const snapshot::Snapshot snap = snapshot::decode_snapshot(assembled);
    ASSERT_EQ(snap.shards.size(), 2u);
    EXPECT_EQ(snap.shards[0].trace_index, 3u);
    EXPECT_EQ(snap.shards[1].trace_index, 9u);
  }
}

// ---- fault harness + endpoint parsing ---------------------------------------

TEST(NetFaultInjectionTest, ParsesSpecStrings) {
  cluster::NetFaultPlan inject;
  std::string error;
  EXPECT_TRUE(cluster::parse_net_inject_spec("refuse=0.1,disconnect=0.2,corrupt=0.05,hang=0.01",
                                             inject, &error));
  EXPECT_EQ(inject.refuse, 0.1);
  EXPECT_EQ(inject.disconnect, 0.2);
  EXPECT_EQ(inject.corrupt, 0.05);
  EXPECT_EQ(inject.hang, 0.01);
  EXPECT_TRUE(inject.any());

  cluster::NetFaultPlan bad;
  EXPECT_FALSE(cluster::parse_net_inject_spec("explode=0.5", bad, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(cluster::parse_net_inject_spec("refuse=1.5", bad, &error));
  EXPECT_FALSE(cluster::parse_net_inject_spec("refuse", bad, &error));
  EXPECT_FALSE(bad.any());
}

TEST(NetFaultInjectionTest, DrawIsSeededPerJobAttemptAndBounded) {
  cluster::NetFaultPlan f;
  f.refuse = 1.0;
  EXPECT_EQ(f.draw(0, 1), NetFault::kRefuseInject);
  EXPECT_EQ(f.draw(9, 4), NetFault::kRefuseInject);

  f.attempt_limit = 1;  // only the first attempt of each job faults
  EXPECT_EQ(f.draw(0, 1), NetFault::kRefuseInject);
  EXPECT_EQ(f.draw(0, 2), NetFault::kNoInject);

  cluster::NetFaultPlan mixed;
  mixed.refuse = mixed.disconnect = mixed.corrupt = mixed.hang = 0.25;
  mixed.seed = 42;
  for (std::uint64_t job = 0; job < 16; ++job) {
    EXPECT_EQ(mixed.draw(job, 1), mixed.draw(job, 1)) << "job " << job;
    EXPECT_EQ(mixed.draw(job, 2), mixed.draw(job, 2)) << "job " << job;
  }
}

TEST(NetFaultInjectionTest, ExpectedFaultMapsIntoTheWorkerTaxonomy) {
  using orchestrate::WorkerFault;
  EXPECT_EQ(cluster::expected_fault(NetFault::kNoInject), WorkerFault::kNone);
  EXPECT_EQ(cluster::expected_fault(NetFault::kRefuseInject), WorkerFault::kConnectRefused);
  EXPECT_EQ(cluster::expected_fault(NetFault::kDisconnectInject), WorkerFault::kDisconnect);
  EXPECT_EQ(cluster::expected_fault(NetFault::kCorruptFrameInject), WorkerFault::kCorruptFrame);
  EXPECT_EQ(cluster::expected_fault(NetFault::kHangInject), WorkerFault::kHeartbeatTimeout);
}

TEST(ClusterConfigTest, ParsesEndpointLists) {
  std::vector<std::string> endpoints;
  std::string error;
  EXPECT_TRUE(cluster::parse_endpoints("127.0.0.1:7461,10.0.0.6:80", endpoints, &error));
  ASSERT_EQ(endpoints.size(), 2u);
  EXPECT_EQ(endpoints[0], "127.0.0.1:7461");
  EXPECT_EQ(endpoints[1], "10.0.0.6:80");

  EXPECT_FALSE(cluster::parse_endpoints("127.0.0.1", endpoints, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(cluster::parse_endpoints("127.0.0.1:notaport", endpoints, &error));
  EXPECT_FALSE(cluster::parse_endpoints("127.0.0.1:70000", endpoints, &error));
  EXPECT_FALSE(cluster::parse_endpoints("127.0.0.1:0", endpoints, &error));
  EXPECT_FALSE(cluster::parse_endpoints("127.0.0.1:+80", endpoints, &error));
  EXPECT_FALSE(cluster::parse_endpoints("", endpoints, &error));
}

// Configuration errors are the only thing run_cluster throws for, and the
// coordinator judges endpoints with the same parser as parse_endpoints.
TEST(ClusterConfigTest, RunClusterRejectsBadConfiguration) {
  cluster::ClusterConfig none;
  EXPECT_THROW(cluster::run_cluster(none), std::runtime_error);

  for (const char* bad : {"127.0.0.1", "127.0.0.1:70000", "127.0.0.1:0", ":80"}) {
    cluster::ClusterConfig config;
    config.endpoints = {bad};
    EXPECT_THROW(cluster::run_cluster(config), std::runtime_error) << bad;
  }

  cluster::ClusterConfig missing_binary;
  missing_binary.local_slots = 2;
  missing_binary.worker_binary = "/no/such/entrace_worker";
  EXPECT_THROW(cluster::run_cluster(missing_binary), std::runtime_error);
}

// ---- cluster dispatch over loopback workers ---------------------------------

// The dispatch engine's two fleet inputs.  kThreads: in-process
// WorkerServers, each owning a real loopback socket and running serve() on
// its own thread, so sanitizers see both sides of every connection.
// kChildren: local slots, where every attempt spawns a fresh entrace_worker
// child that is SIGKILLed and reaped when the attempt ends.  The separate
// WorkerBinaryServesACoordinator test covers a long-lived worker process.
class WorkerFleet {
 public:
  enum class Kind { kThreads, kChildren };

  WorkerFleet(Kind kind, std::size_t n) : kind_(kind), n_(n) {
    if (kind == Kind::kChildren) return;
    for (std::size_t i = 0; i < n; ++i) {
      cluster::WorkerConfig config;
      config.name = "w" + std::to_string(i);
      servers_.push_back(std::make_unique<cluster::WorkerServer>(config));
      endpoints_.push_back("127.0.0.1:" + std::to_string(servers_.back()->port()));
    }
    for (auto& server : servers_) {
      threads_.emplace_back([&server] { server->serve(); });
    }
  }

  ~WorkerFleet() {
    for (auto& server : servers_) server->stop();
    for (auto& thread : threads_) thread.join();
  }

  // Point `config` at this fleet.
  void apply(cluster::ClusterConfig& config) const {
    if (kind_ == Kind::kChildren) {
      config.local_slots = n_;
      config.worker_binary = ENTRACE_WORKER_BIN;
    } else {
      config.endpoints = endpoints_;
    }
  }

  bool children() const { return kind_ == Kind::kChildren; }
  std::string name() const {
    return std::to_string(n_) + (children() ? " local children" : " worker threads");
  }

 private:
  Kind kind_;
  std::size_t n_;
  std::vector<std::unique_ptr<cluster::WorkerServer>> servers_;
  std::vector<std::string> endpoints_;
  std::vector<std::thread> threads_;
};

struct FleetShape {
  WorkerFleet::Kind kind;
  std::size_t workers;
};
constexpr FleetShape kThreads1{WorkerFleet::Kind::kThreads, 1};
constexpr FleetShape kThreads2{WorkerFleet::Kind::kThreads, 2};
constexpr FleetShape kChildren1{WorkerFleet::Kind::kChildren, 1};
constexpr FleetShape kChildren2{WorkerFleet::Kind::kChildren, 2};
constexpr FleetShape kChildren4{WorkerFleet::Kind::kChildren, 4};

// Every local child was SIGKILLed and reaped when its attempt ended: this
// process has no child left, running or zombie.
void expect_no_children() {
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

// A loopback port that was bound once and released: dialling it is a
// genuine ECONNREFUSED.
std::string dead_endpoint() {
  std::uint16_t port = 0;
  std::string error;
  const util::ScopedFd probe = util::tcp_listen(0, &port, &error);
  EXPECT_TRUE(probe.valid()) << error;
  return "127.0.0.1:" + std::to_string(port);
}

class ClusterTest : public ::testing::Test {
 protected:
  static const EnterpriseModel& model() {
    static const EnterpriseModel m;
    return m;
  }
  // Small scales, exactly as the orchestrate suite: byte-identity tests
  // analyze the dataset once directly and once per attempt, and hang tests
  // pay the heartbeat deadline per injected hang.
  static constexpr double kScale = 0.004;
  static constexpr double kFaultScale = 0.002;
  static constexpr double kHangDeadline = 2.0;

  static std::size_t trace_count(double scale) {
    return SyntheticTraceSourceSet(dataset_by_name("D0", scale), model()).size();
  }

  static std::string direct_report_at(double scale) {
    const DatasetSpec spec = dataset_by_name("D0", scale);
    const SyntheticTraceSourceSet sources(spec, model());
    const AnalyzerConfig config = default_config_for_model(model().site());
    std::vector<TraceShard> shards = analyze_trace_shards(sources, config, 0, sources.size());
    DatasetAnalysis analysis = fold_shards(spec.name, std::move(shards), config);
    const report::ReportInput input{&spec, &analysis};
    return report::full_report({&input, 1});
  }
  static const std::string& direct_report() {
    static const std::string text = direct_report_at(kScale);
    return text;
  }
  static const std::string& direct_fault_report() {
    static const std::string text = direct_report_at(kFaultScale);
    return text;
  }

  static cluster::ClusterConfig base_config(const WorkerFleet& fleet, double scale = kScale) {
    cluster::ClusterConfig config;
    config.dataset = "D0";
    config.scale = scale;
    fleet.apply(config);
    config.heartbeat_interval = 0.05;
    config.heartbeat_deadline = 10.0;  // generous: only hang tests shorten it
    return config;
  }
};

TEST_F(ClusterTest, CleanRunMatchesDirectReport) {
  for (const FleetShape shape : {kThreads1, kThreads2, kChildren1, kChildren4}) {
    WorkerFleet fleet(shape.kind, shape.workers);
    SCOPED_TRACE(fleet.name());
    const cluster::ClusterConfig config = base_config(fleet);
    const orchestrate::OrchestrateResult result = cluster::run_cluster(config);
    EXPECT_TRUE(result.complete);
    EXPECT_TRUE(result.manifest.missing.empty());
    EXPECT_EQ(result.retries, 0u);
    EXPECT_EQ(result.attempts, shape.workers);  // jobs default to one per endpoint
    EXPECT_EQ(orchestrate::render_report(result), direct_report());
    if (fleet.children()) expect_no_children();
  }
}

TEST_F(ClusterTest, EveryNetworkFaultKindIsRecoveredByRetry) {
  struct Case {
    const char* name;
    void (*arm)(cluster::NetFaultPlan&);
    orchestrate::WorkerFault expected;
  };
  const Case cases[] = {
      {"refuse", [](cluster::NetFaultPlan& f) { f.refuse = 1.0; },
       orchestrate::WorkerFault::kConnectRefused},
      {"disconnect", [](cluster::NetFaultPlan& f) { f.disconnect = 1.0; },
       orchestrate::WorkerFault::kDisconnect},
      {"corrupt", [](cluster::NetFaultPlan& f) { f.corrupt = 1.0; },
       orchestrate::WorkerFault::kCorruptFrame},
      {"hang", [](cluster::NetFaultPlan& f) { f.hang = 1.0; },
       orchestrate::WorkerFault::kHeartbeatTimeout},
  };
  for (const FleetShape shape : {kThreads2, kChildren2}) {
    for (const Case& c : cases) {
      WorkerFleet fleet(shape.kind, shape.workers);
      SCOPED_TRACE(fleet.name() + ", " + c.name);
      cluster::ClusterConfig config = base_config(fleet, kFaultScale);
      c.arm(config.inject);
      config.inject.attempt_limit = 1;  // fault every first attempt, then heal
      config.heartbeat_deadline = kHangDeadline;
      config.retry.max_attempts = 3;
      config.retry.base_delay = 0.01;
      config.retry.max_delay = 0.05;

      obs::Registry metrics;
      config.metrics = &metrics;
      const orchestrate::OrchestrateResult result = cluster::run_cluster(config);

      EXPECT_TRUE(result.complete);
      EXPECT_EQ(result.fault_counts[c.expected], 2u) << "one injected fault per job";
      EXPECT_EQ(result.fault_counts.total_faults(), 2u);
      EXPECT_EQ(result.retries, 2u);
      for (const orchestrate::JobOutcome& job : result.jobs) EXPECT_EQ(job.attempts, 2);
      EXPECT_EQ(orchestrate::render_report(result), direct_fault_report());

      std::string metric_name =
          std::string("cluster.fault.") + orchestrate::to_string(c.expected);
      std::replace(metric_name.begin(), metric_name.end(), '-', '_');
      const obs::Metric* counter = metrics.find(metric_name);
      ASSERT_NE(counter, nullptr) << metric_name;
      EXPECT_EQ(counter->counter.value(), 2u);
      // A silent child is killed at the deadline, a disconnected one reaped.
      if (fleet.children()) expect_no_children();
    }
  }
}

TEST_F(ClusterTest, MixedFaultScheduleIsByteIdenticalAcrossWorkerCounts) {
  for (const FleetShape shape : {kThreads1, kThreads2, kChildren1, kChildren4}) {
    WorkerFleet fleet(shape.kind, shape.workers);
    SCOPED_TRACE(fleet.name());
    cluster::ClusterConfig config = base_config(fleet, kFaultScale);
    config.jobs = 4;
    config.inject.refuse = config.inject.disconnect = config.inject.corrupt = 0.2;
    config.inject.hang = 0.1;  // hangs pay the deadline; keep them rarer
    config.inject.seed = 3;
    config.heartbeat_deadline = kHangDeadline;
    config.retry.max_attempts = 8;
    config.retry.base_delay = 0.01;
    config.retry.max_delay = 0.05;

    const orchestrate::OrchestrateResult result = cluster::run_cluster(config);
    EXPECT_TRUE(result.complete);
    EXPECT_EQ(orchestrate::render_report(result), direct_fault_report())
        << result.retries << " retries, " << result.fault_counts.total_faults() << " faults";
    if (fleet.children()) expect_no_children();
  }
}

TEST_F(ClusterTest, ExhaustedBudgetDegradesToAccurateManifest) {
  for (const FleetShape shape : {kThreads2, kChildren2}) {
    WorkerFleet fleet(shape.kind, shape.workers);
    SCOPED_TRACE(fleet.name());
    cluster::ClusterConfig config = base_config(fleet, kFaultScale);
    config.inject.refuse = 1.0;  // every attempt of every job refused, forever
    config.retry.max_attempts = 2;
    config.retry.base_delay = 0.01;
    config.retry.max_delay = 0.02;

    const orchestrate::OrchestrateResult result = cluster::run_cluster(config);
    EXPECT_FALSE(result.complete);
    EXPECT_EQ(result.manifest.missing.size(), trace_count(kFaultScale));
    EXPECT_EQ(result.shards_folded, 0u);
    EXPECT_EQ(result.attempts, 4u);  // 2 jobs x max_attempts
    EXPECT_EQ(result.fault_counts[orchestrate::WorkerFault::kConnectRefused], 4u);
    for (const orchestrate::JobOutcome& job : result.jobs) {
      EXPECT_EQ(job.state, orchestrate::JobState::kFailed);
    }

    const std::string report = orchestrate::render_report(result);
    EXPECT_NE(report.find("PARTIAL RESULTS"), std::string::npos);
    EXPECT_NE(report.find("Coverage manifest"), std::string::npos);
    EXPECT_NE(report.find("report body is omitted"), std::string::npos);
  }
}

TEST_F(ClusterTest, PartialManifestNamesExactlyTheFailedJobRanges) {
  // Find a seed whose 50% refuse schedule fails some jobs and spares others
  // (draw() is pure, so this scan is deterministic and instant).
  cluster::NetFaultPlan probe;
  probe.refuse = 0.5;
  std::uint64_t seed = 0;
  for (std::uint64_t s = 1; s < 64 && seed == 0; ++s) {
    probe.seed = s;
    int refused = 0;
    for (std::uint64_t job = 0; job < 4; ++job) {
      if (probe.draw(job, 1) == NetFault::kRefuseInject) ++refused;
    }
    if (refused > 0 && refused < 4) seed = s;
  }
  ASSERT_NE(seed, 0u);

  WorkerFleet fleet(kChildren2.kind, kChildren2.workers);
  cluster::ClusterConfig config = base_config(fleet, kFaultScale);
  config.jobs = 4;
  config.retry.max_attempts = 1;
  config.inject.refuse = 0.5;
  config.inject.seed = seed;
  const orchestrate::OrchestrateResult result = cluster::run_cluster(config);
  EXPECT_FALSE(result.complete);

  std::vector<std::uint32_t> expected_missing;
  std::size_t covered = 0;
  for (const orchestrate::JobOutcome& job : result.jobs) {
    if (job.state == orchestrate::JobState::kFailed) {
      for (std::size_t t = job.lo; t < job.hi; ++t) {
        expected_missing.push_back(static_cast<std::uint32_t>(t));
      }
    } else {
      EXPECT_EQ(job.state, orchestrate::JobState::kDone);
      covered += job.hi - job.lo;
    }
  }
  EXPECT_FALSE(expected_missing.empty());
  EXPECT_GT(covered, 0u);
  EXPECT_EQ(result.manifest.missing, expected_missing);
  EXPECT_EQ(result.shards_folded, covered);
  const std::string report = orchestrate::render_report(result);
  EXPECT_EQ(report.find("!!"), 0u) << "partial report must lead with the banner";
  expect_no_children();
}

TEST_F(ClusterTest, RecordsClusterMetrics) {
  WorkerFleet fleet(kChildren2.kind, kChildren2.workers);
  obs::Registry metrics;
  cluster::ClusterConfig config = base_config(fleet, kFaultScale);
  config.jobs = 2;
  config.retry.max_attempts = 3;
  config.retry.base_delay = 0.01;
  config.inject.refuse = 1.0;
  config.inject.attempt_limit = 1;
  config.metrics = &metrics;
  const orchestrate::OrchestrateResult result = cluster::run_cluster(config);
  ASSERT_TRUE(result.complete);
  using obs::MetricClass;
  EXPECT_EQ(metrics.counter("cluster.attempts", MetricClass::kTiming)->value(), result.attempts);
  EXPECT_EQ(metrics.counter("cluster.reconnects", MetricClass::kTiming)->value(),
            result.retries);
  EXPECT_EQ(metrics.counter("cluster.connects", MetricClass::kTiming)->value(), 2u);
  EXPECT_EQ(metrics.counter("cluster.jobs.done", MetricClass::kTiming)->value(), 2u);
  EXPECT_EQ(metrics.counter("cluster.fault.connect_refused", MetricClass::kTiming)->value(), 2u);
  EXPECT_GT(metrics.counter("cluster.bytes.rx", MetricClass::kTiming)->value(), 0u);
  EXPECT_GT(metrics.gauge("cluster.backoff.seconds", MetricClass::kTiming)->value(), 0.0);
  EXPECT_GT(metrics.gauge("stage.cluster.seconds", MetricClass::kTiming)->value(), 0.0);
  // Injected refusals exercise the retry path; they retire nothing.
  EXPECT_EQ(metrics.counter("cluster.endpoints.retired", MetricClass::kTiming)->value(), 0u);
}

// A genuinely dead endpoint retires at its first refusal instead of burning
// one attempt of every job in turn; the live endpoint finishes the run.
TEST_F(ClusterTest, DeadEndpointRetiresInsteadOfDrainingBudgets) {
  WorkerFleet fleet(kThreads1.kind, kThreads1.workers);
  obs::Registry metrics;
  cluster::ClusterConfig config = base_config(fleet, kFaultScale);
  config.endpoints.push_back(dead_endpoint());
  config.jobs = 8;
  config.retry.max_attempts = 3;
  config.retry.base_delay = 0.01;
  config.retry.max_delay = 0.02;
  config.metrics = &metrics;

  const orchestrate::OrchestrateResult result = cluster::run_cluster(config);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.manifest.covered(), trace_count(kFaultScale));
  const std::uint64_t refused = result.fault_counts[orchestrate::WorkerFault::kConnectRefused];
  EXPECT_LE(refused, 1u);
  EXPECT_EQ(result.fault_counts.total_faults(), refused);
  EXPECT_EQ(result.attempts, 8u + refused);
  EXPECT_EQ(metrics.counter("cluster.endpoints.retired", obs::MetricClass::kTiming)->value(),
            refused);
  EXPECT_EQ(orchestrate::render_report(result), direct_fault_report());
}

// With every endpoint dead, the last active one never retires: each job
// still ends failed through its own budget, and the run degrades to
// PARTIAL promptly instead of hanging.
TEST_F(ClusterTest, AllEndpointsDeadDegradesToPartialPromptly) {
  cluster::ClusterConfig config;
  config.dataset = "D0";
  config.scale = kFaultScale;
  config.endpoints = {dead_endpoint(), dead_endpoint()};
  config.jobs = 8;
  config.retry.max_attempts = 3;
  config.retry.base_delay = 0.01;
  config.retry.max_delay = 0.02;
  obs::Registry metrics;
  config.metrics = &metrics;

  const auto start = std::chrono::steady_clock::now();
  const orchestrate::OrchestrateResult result = cluster::run_cluster(config);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.manifest.missing.size(), trace_count(kFaultScale));
  EXPECT_EQ(result.attempts, 8u * 3u);
  EXPECT_EQ(result.fault_counts[orchestrate::WorkerFault::kConnectRefused], 8u * 3u);
  EXPECT_EQ(metrics.counter("cluster.endpoints.retired", obs::MetricClass::kTiming)->value(),
            1u);
  EXPECT_NE(orchestrate::render_report(result).find("PARTIAL RESULTS"), std::string::npos);
}

TEST_F(ClusterTest, WorkerBinaryServesACoordinator) {
  const fs::path port_file = fs::temp_directory_path() / "entrace_cluster_test_w0.port";
  fs::remove(port_file);
  util::Subprocess worker = util::Subprocess::spawn(
      {ENTRACE_WORKER_BIN, "--port-file", port_file.string(), "--name", "wbin"});

  std::uint16_t port = 0;
  for (int i = 0; i < 1000 && port == 0; ++i) {  // rename makes the file appear complete
    if (fs::exists(port_file)) {
      std::ifstream in(port_file);
      unsigned p = 0;
      in >> p;
      port = static_cast<std::uint16_t>(p);
      break;
    }
    ASSERT_TRUE(worker.running()) << "worker binary exited before publishing its port";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_NE(port, 0u) << "worker never published a port";

  cluster::ClusterConfig config;
  config.dataset = "D0";
  config.scale = kFaultScale;
  config.endpoints = {"127.0.0.1:" + std::to_string(port)};
  const orchestrate::OrchestrateResult result = cluster::run_cluster(config);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(orchestrate::render_report(result), direct_fault_report());

  worker.kill_and_wait();
  fs::remove(port_file);
}

// ---- http server robustness -------------------------------------------------

class HttpRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<obs::HttpServer>(
        0, [](const std::string& path) -> obs::HttpResponse {
          if (path == "/ok") return {200, "text/plain; charset=utf-8", "fine\n"};
          return {404, "text/plain; charset=utf-8", "nope\n"};
        });
    server_->start();
  }
  void TearDown() override { server_->stop(); }

  util::ScopedFd connect() {
    std::string error;
    util::ScopedFd fd = util::tcp_connect("127.0.0.1", server_->port(), 2.0, &error);
    EXPECT_TRUE(fd.valid()) << error;
    return fd;
  }

  // Send `request` and read until the server closes; empty on no response.
  std::string roundtrip(const std::string& request) {
    util::ScopedFd fd = connect();
    if (!fd.valid()) return {};
    EXPECT_TRUE(util::send_all(fd.get(), request.data(), request.size()));
    ::shutdown(fd.get(), SHUT_WR);
    std::string response;
    char buf[4096];
    while (util::poll_in(fd.get(), 3000) == 1) {
      const long n = util::recv_some(fd.get(), buf, sizeof(buf));
      if (n <= 0) break;
      response.append(buf, static_cast<std::size_t>(n));
    }
    return response;
  }

  std::unique_ptr<obs::HttpServer> server_;
};

TEST_F(HttpRobustnessTest, OversizedRequestLineAnswers400) {
  const std::string request = "GET /" + std::string(20000, 'a') + " HTTP/1.0\r\n\r\n";
  const std::string response = roundtrip(request);
  EXPECT_NE(response.find("400"), std::string::npos) << response.substr(0, 80);
  // The server survives and serves the next honest client.
  EXPECT_NE(roundtrip("GET /ok HTTP/1.0\r\n\r\n").find("200"), std::string::npos);
}

// The query-string 404 regression: "GET /ok?probe=1" must dispatch to the
// /ok handler (the target is stripped of ?query/#fragment before matching),
// while a genuinely unknown path keeps 404ing with or without a query.
TEST_F(HttpRobustnessTest, QueryStringsAndFragmentsAreStrippedBeforeDispatch) {
  EXPECT_NE(roundtrip("GET /ok?probe=1 HTTP/1.0\r\n\r\n").find("200"), std::string::npos);
  EXPECT_NE(roundtrip("GET /ok?a=1&b=2 HTTP/1.0\r\n\r\n").find("fine"), std::string::npos);
  EXPECT_NE(roundtrip("GET /ok#frag HTTP/1.0\r\n\r\n").find("200"), std::string::npos);
  EXPECT_NE(roundtrip("GET /ok? HTTP/1.0\r\n\r\n").find("200"), std::string::npos);
  EXPECT_NE(roundtrip("GET /nope?probe=1 HTTP/1.0\r\n\r\n").find("404"), std::string::npos);
}

TEST_F(HttpRobustnessTest, EmptyAndHalfRequestsAreShruggedOff) {
  {  // connect-and-close probe (a port scanner, a load balancer health check)
    util::ScopedFd fd = connect();
    ASSERT_TRUE(fd.valid());
  }
  {  // client hangs up mid-request-line
    util::ScopedFd fd = connect();
    ASSERT_TRUE(fd.valid());
    const char partial[] = "GET /ok HT";
    EXPECT_TRUE(util::send_all(fd.get(), partial, sizeof(partial) - 1));
  }
  EXPECT_NE(roundtrip("GET /ok HTTP/1.0\r\n\r\n").find("200"), std::string::npos);
}

// ---- daemon /report: windowed fold == batch report --------------------------

TEST(WindowedReportTest, RenderWindowedReportMatchesBatchRun) {
  const EnterpriseModel model;
  DatasetSpec spec = dataset_d3(0.004);
  spec.monitored_subnets = {4, 15, 20};
  const TraceSet traces = generate_dataset(spec, model);
  const AnalyzerConfig config = default_config_for_model(model.site());
  const std::string batch = [&] {
    DatasetAnalysis analysis = analyze_dataset(traces, config);
    const report::ReportInput input{&spec, &analysis};
    return report::full_report({&input, 1});
  }();

  // A windowed replay checkpointing every rotation, exactly as the daemon
  // does (exact mode: /report equality requires no eviction).
  MergedPacketStream stream = merged_stream(traces);
  std::vector<TraceMeta> metas;
  for (std::size_t i = 0; i < stream.source_count(); ++i) {
    metas.push_back(stream.source(i).meta());
  }
  double lo = 1e300, hi = -1e300;
  for (const TraceMeta& m : metas) {
    lo = std::min(lo, m.start_ts);
    hi = std::max(hi, m.start_ts + m.duration);
  }
  IncrementalOptions opts;
  opts.window_seconds = (hi - lo) / 7.3;
  IncrementalAnalyzer analyzer(std::move(metas), config, opts);

  const fs::path dir = fs::temp_directory_path() / "entrace_cluster_report_windows";
  fs::create_directories(dir);
  const snapshot::SnapshotMeta meta{spec.name, 0.004,
                                    static_cast<std::uint32_t>(stream.source_count())};
  std::vector<std::string> paths;
  const auto checkpoint = [&](const WindowShard& w) {
    const std::string path = (dir / snapshot::window_file_name(paths.size())).string();
    ASSERT_GT(snapshot::write_window_snapshot(path, meta, w), 0u);
    paths.push_back(path);
  };

  std::vector<PacketView> views(256);
  for (;;) {
    const std::size_t got = stream.next_batch(views.data(), views.size());
    if (got == 0) break;
    analyzer.feed(views.data(), got);
    while (analyzer.window_complete()) checkpoint(analyzer.rotate());
  }
  checkpoint(analyzer.finish(&stream));
  ASSERT_GE(paths.size(), 2u);

  EXPECT_EQ(snapshot::render_windowed_report(paths, spec, config), batch);
  EXPECT_THROW(snapshot::render_windowed_report({(dir / "window-gone.esnap").string()}, spec,
                                                config),
               std::exception);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace entrace
