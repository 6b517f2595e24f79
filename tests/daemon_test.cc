// Windowed/continuous-operation suite (CTest label "daemon", also run under
// sanitizers via `ctest --preset daemon-asan` / `ctest --preset daemon-tsan`).
//
// Pins the contract the daemon is trusted on (core/incremental.h): a
// windowed replay — IncrementalAnalyzer fed from a merged time-ordered
// stream, rotating WindowShards at boundaries — merges back per trace
// (snapshot/window.h) and folds to a DatasetAnalysis byte-identical to the
// one-shot batch run, directly and through the .esnap checkpoint
// round-trip.  Also covered: FakeClock-paced replay (schedule
// arithmetic and analysis transparency), end-of-stream drain accounting
// (flow.drained), retention tiering, the embedded HTTP server, a SIGTERM
// drain of the real entrace_daemon binary, its runtime-error exits, the
// binary's --exact run folding back to the batch report, and a
// bounded-memory soak over >= 50 rotated windows with eviction + reclaim +
// retention.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/analyzer.h"
#include "core/incremental.h"
#include "core/report.h"
#include "obs/http_server.h"
#include "pcap/packet_source.h"
#include "pcap/replay.h"
#include "snapshot/format.h"
#include "snapshot/retention.h"
#include "snapshot/window.h"
#include "synth/generator.h"
#include "synth/synth_source.h"
#include "util/clock.h"
#include "util/subprocess.h"

namespace entrace {
namespace {

namespace fs = std::filesystem;
namespace snap = entrace::snapshot;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kUnderSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kUnderSanitizer = true;
#else
constexpr bool kUnderSanitizer = false;
#endif
#else
constexpr bool kUnderSanitizer = false;
#endif

std::size_t resident_bytes() {
  std::ifstream f("/proc/self/statm");
  std::size_t pages_total = 0, pages_resident = 0;
  f >> pages_total >> pages_resident;
  return pages_resident * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

class DaemonTest : public ::testing::Test {
 protected:
  static const EnterpriseModel& model() {
    static const EnterpriseModel m;
    return m;
  }
  static DatasetSpec small_spec() {
    DatasetSpec spec = dataset_d3(0.004);
    spec.monitored_subnets = {4, 15, 20};
    return spec;
  }
  static const TraceSet& materialized() {
    static const TraceSet traces = generate_dataset(small_spec(), model());
    return traces;
  }
  static AnalyzerConfig config(std::size_t threads) {
    AnalyzerConfig c = default_config_for_model(model().site());
    c.threads = threads;
    return c;
  }
  static std::string report_of(const DatasetAnalysis& analysis) {
    const DatasetSpec s = small_spec();
    const report::ReportInput input{&s, &analysis};
    const std::vector<report::ReportInput> inputs{input};
    return report::full_report(inputs);
  }
  // The equivalence reference: one-shot batch run over the same packets.
  static const std::string& batch_report() {
    static const std::string r =
        report_of(analyze_dataset(materialized(), config(1)));
    return r;
  }
  // Wall span of the merged timeline (window widths derive from it so the
  // window counts below stay stable if the dataset layout shifts).
  static double merged_span() {
    const MergedPacketStream stream = merged_stream(materialized());
    double lo = 1e300, hi = -1e300;
    for (std::size_t i = 0; i < stream.source_count(); ++i) {
      const TraceMeta& m = stream.source(i).meta();
      lo = std::min(lo, m.start_ts);
      hi = std::max(hi, m.start_ts + m.duration);
    }
    return hi - lo;
  }

  struct WindowedRun {
    std::string report;
    std::uint64_t windows = 0;    // rotated (including the final partial one)
    std::uint64_t drained = 0;
    std::uint64_t evicted = 0;
  };

  // Drive a full windowed replay in exact-equality mode (evict/reclaim off),
  // optionally paced through a FakeClock and/or round-tripped through .esnap
  // window checkpoints, then merge + fold back to one DatasetAnalysis.
  static WindowedRun windowed_run(double window_seconds, bool via_disk, bool paced) {
    MergedPacketStream stream = merged_stream(materialized());
    std::vector<TraceMeta> metas;
    metas.reserve(stream.source_count());
    for (std::size_t i = 0; i < stream.source_count(); ++i) {
      metas.push_back(stream.source(i).meta());
    }
    const AnalyzerConfig cfg = config(1);
    IncrementalOptions opts;
    opts.window_seconds = window_seconds;
    IncrementalAnalyzer analyzer(std::move(metas), cfg, opts);

    util::FakeClock clock;
    PacedReplaySource replay(stream, clock, paced ? 100.0 : 0.0);

    std::vector<PacketView> views(256);
    std::vector<WindowShard> windows;
    for (;;) {
      const std::size_t got = replay.next_batch(views.data(), views.size());
      if (got == 0) break;
      analyzer.feed(views.data(), got);
      while (analyzer.window_complete()) windows.push_back(analyzer.rotate());
    }
    windows.push_back(analyzer.finish(&stream));

    WindowedRun run;
    run.windows = analyzer.windows_rotated();
    run.drained = analyzer.drained_total();
    run.evicted = analyzer.evicted_total();

    if (via_disk) {
      const fs::path dir = fs::temp_directory_path() / "entrace_daemon_rt";
      fs::create_directories(dir);
      const snap::SnapshotMeta meta{small_spec().name, 0.004,
                                    static_cast<std::uint32_t>(stream.source_count())};
      std::vector<WindowShard> reread;
      reread.reserve(windows.size());
      for (std::size_t i = 0; i < windows.size(); ++i) {
        const std::string path = (dir / snap::window_file_name(i)).string();
        const std::uint64_t bytes = snap::write_window_snapshot(path, meta, windows[i]);
        EXPECT_GT(bytes, 0u);
        reread.push_back(snap::read_window_snapshot(path));
      }
      windows = std::move(reread);
      fs::remove_all(dir);
    }

    std::vector<TraceShard> shards = snap::merge_window_shards(std::move(windows), cfg);
    run.report = report_of(fold_shards(small_spec().name, std::move(shards), cfg));
    return run;
  }
};

// ---- windowed replay == one-shot batch --------------------------------------

TEST_F(DaemonTest, WindowedReplayFoldsToBatchReport) {
  const double span = merged_span();
  ASSERT_GT(span, 0.0);
  // Two window widths that divide nothing evenly: rotations land mid-flow,
  // mid-trace, and inside idle gaps.
  for (const double window : {span / 7.3, span / 23.0}) {
    SCOPED_TRACE("window=" + std::to_string(window));
    const WindowedRun run = windowed_run(window, false, false);
    EXPECT_GE(run.windows, 2u);
    EXPECT_EQ(run.evicted, 0u);  // exact mode: no time-driven eviction
    EXPECT_EQ(run.report, batch_report());
  }
}

TEST_F(DaemonTest, WindowCheckpointRoundTripFoldsToBatchReport) {
  const double span = merged_span();
  const WindowedRun run = windowed_run(span / 11.0, true, false);
  EXPECT_GE(run.windows, 2u);
  EXPECT_EQ(run.report, batch_report());
}

// ---- end-of-stream drain accounting -----------------------------------------

// drain_all() classifies every still-open flow when the stream ends; the
// count surfaces as the flow.drained semantic counter and must agree between
// the batch path and the windowed path (both drain exactly once, at finish).
TEST_F(DaemonTest, DrainClassifiesOpenFlowsAtEndOfStream) {
  const DatasetAnalysis batch = analyze_dataset(materialized(), config(1));
  const obs::Metric* drained = batch.metrics.find("flow.drained");
  ASSERT_NE(drained, nullptr);
  EXPECT_GT(drained->counter.value(), 0u);

  const obs::Metric* evicted = batch.metrics.find("flow.evicted");
  ASSERT_NE(evicted, nullptr);
  EXPECT_EQ(evicted->counter.value(), 0u);  // batch never time-evicts

  const WindowedRun windowed = windowed_run(merged_span() / 7.3, false, false);
  EXPECT_EQ(windowed.drained, drained->counter.value());
}

// ---- paced replay -----------------------------------------------------------

// The pacing schedule under a FakeClock: the first batch anchors capture
// time to wall time, and every later batch is released at (ts - base) /
// speedup — so total virtual sleep equals the capture span after the anchor,
// scaled.  FakeClock advances only through sleep(), which makes the
// arithmetic exactly checkable.
TEST_F(DaemonTest, PacedReplayFakeClockSchedule) {
  constexpr double kSpeedup = 100.0;
  MergedPacketStream stream = merged_stream(materialized());
  util::FakeClock clock(1000.0);
  PacedReplaySource paced(stream, clock, kSpeedup);

  std::vector<PacketView> views(256);
  double anchor_ts = 0.0;
  double last_ts = 0.0;
  bool first_batch = true;
  std::uint64_t packets = 0;
  for (;;) {
    const std::size_t got = paced.next_batch(views.data(), views.size());
    if (got == 0) break;
    if (first_batch) {
      // pace_to anchors on the first batch's tail timestamp.
      anchor_ts = views[got - 1].ts;
      first_batch = false;
    }
    last_ts = views[got - 1].ts;
    packets += got;
  }
  ASSERT_GT(packets, 0u);
  const double expected_wall = (last_ts - anchor_ts) / kSpeedup;
  EXPECT_GT(expected_wall, 0.0);
  EXPECT_NEAR(paced.slept_seconds(), expected_wall, 1e-6);
  EXPECT_NEAR(clock.now() - 1000.0, expected_wall, 1e-6);
}

TEST_F(DaemonTest, PacedReplayPassThroughWhenSpeedupDisabled) {
  MergedPacketStream stream = merged_stream(materialized());
  util::FakeClock clock;
  PacedReplaySource paced(stream, clock, 0.0);
  std::vector<PacketView> views(256);
  while (paced.next_batch(views.data(), views.size()) != 0) {
  }
  EXPECT_EQ(paced.slept_seconds(), 0.0);
  EXPECT_EQ(clock.now(), 0.0);
}

// Pacing is transparent to analysis: a windowed replay through a paced
// source folds to the same report as the unpaced batch run.
TEST_F(DaemonTest, PacedWindowedReplayFoldsToBatchReport) {
  const WindowedRun run = windowed_run(merged_span() / 7.3, false, true);
  EXPECT_EQ(run.report, batch_report());
}

// ---- retention tiering ------------------------------------------------------

// Aging at keep_full 2: every window past the newest two leaves tier 0 with
// one summary line, in age order, and keeps its .esnap in the pending tier
// until a sketch covers it.  K = 8 keeps the three aged windows below the
// fold width, so no fold reads the stand-in payloads.
TEST_F(DaemonTest, RetentionAgesWindowsBeyondKeepFull) {
  const fs::path dir = fs::temp_directory_path() / "entrace_daemon_retention";
  fs::remove_all(dir);
  fs::create_directories(dir);
  snap::RetentionManager retention(dir.string(), snap::RetentionOptions{2, 8}, config(1),
                                   snap::SnapshotMeta{small_spec().name, 0.004, 3});

  std::vector<std::string> paths;
  for (std::uint64_t i = 0; i < 5; ++i) {
    paths.push_back((dir / snap::window_file_name(i)).string());
    std::ofstream(paths.back()) << "stand-in esnap payload";
    snap::WindowSummary s;
    s.index = i;
    s.start_ts = 60.0 * static_cast<double>(i);
    s.end_ts = s.start_ts + 60.0;
    s.packets = 100 + i;
    s.snapshot_bytes = 23;
    const snap::AgeResult aged = retention.add_window(s, paths.back());
    EXPECT_TRUE(aged.ok());
    EXPECT_EQ(aged.aged, i < 2 ? 0u : 1u);
  }
  EXPECT_EQ(retention.tier0_count(), 2u);
  EXPECT_EQ(retention.summarized_count(), 3u);
  EXPECT_EQ(retention.pending_count(), 3u);
  EXPECT_EQ(retention.sketch_folds(), 0u);
  // Nothing is deleted before a sketch covers it: /report lists all five
  // windows in order, the three aged ones first.
  EXPECT_EQ(retention.report_paths(), paths);

  // The headline tier: one self-contained JSON line per aged window, in age
  // order.
  std::ifstream summary(retention.summary_path());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(summary, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"window\":0"), std::string::npos);
  EXPECT_NE(lines[2].find("\"window\":2"), std::string::npos);
  EXPECT_NE(lines[0].find("\"packets\":100"), std::string::npos);
  fs::remove_all(dir);
}

// ---- embedded HTTP server ---------------------------------------------------

TEST_F(DaemonTest, HttpServerServesHandlerResponses) {
  obs::HttpServer server(0, [](const std::string& path) {
    obs::HttpResponse resp;
    if (path == "/missing") {
      resp.status = 404;
      resp.body = "not found\n";
    } else {
      resp.content_type = "text/plain; version=0.0.4";
      resp.body = "echo " + path + "\n";
    }
    return resp;
  });
  server.start();
  ASSERT_GT(server.port(), 0);

  const auto fetch = [&](const std::string& path) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
    EXPECT_EQ(::send(fd, req.data(), req.size(), 0), static_cast<ssize_t>(req.size()));
    std::string out;
    char buf[1024];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      out.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return out;
  };

  const std::string ok = fetch("/metrics");
  EXPECT_NE(ok.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(ok.find("echo /metrics"), std::string::npos);
  EXPECT_NE(ok.find("Content-Length:"), std::string::npos);
  const std::string missing = fetch("/missing");
  EXPECT_NE(missing.find("HTTP/1.0 404"), std::string::npos);

  // Query strings and fragments are stripped before dispatch: a scraper's
  // "GET /metrics?format=prometheus" must reach the /metrics handler, not
  // fall through to 404 because no handler matches the decorated target.
  for (const std::string decorated :
       {"/metrics?format=prometheus", "/metrics?a=1&b=2", "/metrics#frag", "/metrics?x=1#frag"}) {
    SCOPED_TRACE(decorated);
    const std::string resp = fetch(decorated);
    EXPECT_NE(resp.find("HTTP/1.0 200"), std::string::npos);
    EXPECT_NE(resp.find("echo /metrics\n"), std::string::npos);  // bare path, no query
  }
  // A decorated unknown path still 404s — stripping does not rewrite.
  const std::string decorated_missing = fetch("/missing?probe=1");
  EXPECT_NE(decorated_missing.find("HTTP/1.0 404"), std::string::npos);
  server.stop();
}

// The /healthz starvation regression: a liveness probe must be answered
// while a slow handler (the daemon's multi-second /report fold) is still in
// flight, instead of queueing behind it.
TEST_F(DaemonTest, HttpServerAnswersHealthzDuringSlowHandler) {
  std::mutex mu;
  std::condition_variable cv;
  bool slow_started = false;
  bool release_slow = false;

  obs::HttpServer server(
      0,
      [&](const std::string& path) {
        if (path == "/slow") {
          std::unique_lock<std::mutex> lock(mu);
          slow_started = true;
          cv.notify_all();
          // Parks this worker until the probe below has been answered (or a
          // 10 s safety valve so a regression fails instead of hanging).
          cv.wait_for(lock, std::chrono::seconds(10), [&] { return release_slow; });
          return obs::HttpResponse{200, "text/plain; charset=utf-8", "slow done\n"};
        }
        return obs::HttpResponse{200, "text/plain; charset=utf-8", "ok\n"};
      });
  server.start();
  ASSERT_GT(server.port(), 0);

  const auto fetch = [&](const std::string& path) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
    EXPECT_EQ(::send(fd, req.data(), req.size(), 0), static_cast<ssize_t>(req.size()));
    std::string out;
    char buf[1024];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      out.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return out;
  };

  std::thread slow_client([&] {
    const std::string resp = fetch("/slow");
    EXPECT_NE(resp.find("slow done"), std::string::npos);
  });
  {
    // Only probe once the slow handler is demonstrably occupying a worker.
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10), [&] { return slow_started; }));
  }
  const std::string health = fetch("/healthz");
  EXPECT_NE(health.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(health.find("ok\n"), std::string::npos);
  {
    std::lock_guard<std::mutex> lock(mu);
    release_slow = true;
  }
  cv.notify_all();
  slow_client.join();
  server.stop();
}

// ---- the real daemon binary: SIGTERM drain ----------------------------------

// Start entrace_daemon mid-replay (speedup keeps it streaming for minutes),
// send SIGTERM, and require a clean exit that flushed the open window: at
// least one readable window checkpoint must be on disk afterwards.
TEST_F(DaemonTest, DaemonBinarySigtermDrainWritesCheckpoint) {
  const fs::path dir = fs::temp_directory_path() / "entrace_daemon_sigterm";
  fs::remove_all(dir);
  fs::create_directories(dir);

  util::Subprocess child = util::Subprocess::spawn(
      {ENTRACE_DAEMON_BIN, "D3", "0.002", "--out", dir.string(), "--window", "60",
       "--speedup", "30", "--retain", "4"});

  // Wait until the daemon has demonstrably ingested (first checkpoint on
  // disk) so the SIGTERM lands mid-stream, then ask for a graceful drain.
  const auto has_checkpoint = [&] {
    for (const auto& e : fs::directory_iterator(dir)) {
      if (e.path().extension() == ".esnap") return true;
    }
    return false;
  };
  std::optional<util::ExitStatus> status;
  for (int i = 0; i < 600; ++i) {
    status = child.poll();
    if (status.has_value() || has_checkpoint()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  if (!status.has_value()) {
    ::kill(child.pid(), SIGTERM);
    status = child.wait_for(120.0);
  }
  ASSERT_TRUE(status.has_value()) << "daemon did not exit after SIGTERM";
  EXPECT_TRUE(status->success())
      << "exited=" << status->exited << " code=" << status->exit_code
      << " signaled=" << status->signaled << " sig=" << status->term_signal;

  std::size_t checkpoints = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() != ".esnap") continue;
    ++checkpoints;
    const WindowShard w = snap::read_window_snapshot(e.path().string());
    EXPECT_FALSE(w.shards.empty()) << e.path();
  }
  EXPECT_GE(checkpoints, 1u) << "drain did not flush the open window";
  fs::remove_all(dir);
}

// ---- the real daemon binary: /report vs aging race --------------------------

// The fold-unlink race: a mid-run /report must never render a file that a
// fold has just deleted.  The handler takes its path list from
// report_paths() under the same lock the checkpoint path holds while it
// applies folds (and so unlinks their inputs), so a live daemon must answer
// 200 (or 404 before the first checkpoint) for every poll while windows
// rotate and sketches fold underneath.  The same run checks that the fold
// queue (retention.fold_backlog, retention.fold_seconds) is exported on
// /metrics.json, /metrics and --metrics-out, which render the daemon's one
// status registry, and that the retired /status.json answers 404.
TEST_F(DaemonTest, DaemonBinaryReportNeverFailsWhileSketchesFold) {
  const fs::path dir = fs::temp_directory_path() / "entrace_daemon_report_race";
  const fs::path metrics_out = fs::temp_directory_path() / "entrace_daemon_report_race.json";
  fs::remove_all(dir);
  fs::remove(metrics_out);
  fs::create_directories(dir);
  const std::uint16_t port = static_cast<std::uint16_t>(18000 + ::getpid() % 2000);

  // window 30 @ speedup 30 rotates ~1/s; retain 1 + sketch-every 2 makes
  // nearly every rotation age a window and every other rotation fold (and
  // delete) sketch inputs while we hammer /report.
  util::Subprocess child = util::Subprocess::spawn(
      {ENTRACE_DAEMON_BIN, "D3", "0.002", "--out", dir.string(), "--window", "30",
       "--speedup", "30", "--retain", "1", "--sketch-every", "2",
       "--http-port", std::to_string(port), "--metrics-out", metrics_out.string()});

  const auto fetch = [&](const std::string& path) -> std::string {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return {};
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return {};
    }
    const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
    if (::send(fd, req.data(), req.size(), 0) != static_cast<ssize_t>(req.size())) {
      ::close(fd);
      return {};
    }
    std::string out;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      out.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return out;
  };

  // Wait for the HTTP server to come up.
  bool up = false;
  for (int i = 0; i < 100 && !up; ++i) {
    up = !fetch("/healthz").empty();
    if (!up) std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  ASSERT_TRUE(up) << "daemon never served /healthz on port " << port;

  std::size_t ok_reports = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(8);
  while (std::chrono::steady_clock::now() < deadline) {
    if (child.poll().has_value()) break;  // replay ended early; stop polling
    const std::string resp = fetch("/report");
    if (resp.empty()) continue;  // daemon exiting between poll and connect
    ASSERT_EQ(resp.find("HTTP/1.0 5"), std::string::npos)
        << "mid-run /report failed:\n" << resp.substr(0, 200);
    if (resp.find("HTTP/1.0 200") != std::string::npos) ++ok_reports;
  }
  EXPECT_GE(ok_reports, 1u) << "no successful /report during the run";

  // The number after `"field": ` in metric `key`'s JSON object; -1 if absent.
  const auto number_in = [](const std::string& json, const std::string& key,
                            const std::string& field) {
    const std::size_t at = json.find("\"" + key + "\": {");
    if (at == std::string::npos) return -1LL;
    const std::string label = "\"" + field + "\": ";
    const std::size_t f = json.find(label, at);
    if (f == std::string::npos) return -1LL;
    return std::stoll(json.substr(f + label.size()));
  };

  // Prove the polls overlapped real aging: a sketch must have been folded.
  // (With sketch-every 2 a pair of tier-1 sketches compacts straight into a
  // tier-2 file, dropping the tier-1 count back to 0 — either tier counts.)
  const std::string metrics_json = fetch("/metrics.json");
  if (!metrics_json.empty()) {
    EXPECT_GT(number_in(metrics_json, "daemon.tier1_sketches", "value") +
                  number_in(metrics_json, "daemon.tier2_sketches", "value"),
              0)
        << "run too short to fold a sketch — widen the poll window\n" << metrics_json;
    // The fold queue is exported on every surface.
    for (const char* key :
         {"retention.fold_backlog", "retention.fold_seconds.p50", "retention.fold_seconds.p99"}) {
      EXPECT_GE(number_in(metrics_json, key, "value"), 0) << key << "\n" << metrics_json;
    }
  }
  const std::string status_json = fetch("/status.json");
  if (!status_json.empty()) {
    EXPECT_NE(status_json.find("HTTP/1.0 404"), std::string::npos) << status_json;
  }
  const std::string metrics = fetch("/metrics");
  if (!metrics.empty()) {
    for (const char* series :
         {"retention_fold_backlog{", "retention_fold_seconds_bucket{",
          "retention_fold_seconds_count{", "retention_fold_seconds_p50{",
          "retention_fold_seconds_p99{"}) {
      EXPECT_NE(metrics.find(series), std::string::npos) << series;
    }
  }

  ::kill(child.pid(), SIGTERM);
  const std::optional<util::ExitStatus> status = child.wait_for(120.0);
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->success());

  // --metrics-out is written after the exit settle: it carries the fold
  // series, counts the folds this run made, and no I/O error.
  std::ifstream in(metrics_out);
  ASSERT_TRUE(in.good()) << "no --metrics-out file at " << metrics_out;
  const std::string written((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_GE(number_in(written, "retention.fold_backlog", "value"), 0) << written;
  EXPECT_GE(number_in(written, "retention.fold_seconds.p50", "value"), 0) << written;
  EXPECT_GE(number_in(written, "retention.fold_seconds.p99", "value"), 0) << written;
  EXPECT_GT(number_in(written, "retention.fold_seconds", "count"), 0)
      << "no fold timed\n" << written;
  EXPECT_EQ(number_in(written, "retention.io_errors", "value"), 0) << written;
  fs::remove_all(dir);
  fs::remove(metrics_out);
}

// ---- the real daemon binary: strict flag parsing ----------------------------

// The std::atoi regression: "--retain -1" used to wrap to SIZE_MAX and
// "--retain x" silently became 0.  Every numeric flag now goes through the
// strict util::cli parsers, garbage is a usage error (exit 2) before any
// replay starts, a fold width below 2 is rejected, and so is every removed
// flag.
TEST_F(DaemonTest, DaemonBinaryRejectsGarbageNumericFlags) {
  const fs::path dir = fs::temp_directory_path() / "entrace_daemon_badflags";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const std::vector<std::vector<std::string>> bad_invocations = {
      {"--retain", "-1"},          // sign must not wrap to SIZE_MAX
      {"--retain", "x"},           // garbage must not read as 0
      {"--retain", "4x"},          // trailing garbage rejected too
      {"--batch", "256"},          // a removed flag is a usage error too
      {"--repeat", "2"},
      {"--fake-clock"},
      {"--window", "abc"},
      {"--window", "inf"},         // would stamp -nan into summary.jsonl
      {"--sketch-every", "0"},     // there is no summary-only scheme to select
      {"--sketch-every", "1"},     // a 1-wide fold is a no-op
  };
  for (const std::vector<std::string>& extra : bad_invocations) {
    std::vector<std::string> argv = {ENTRACE_DAEMON_BIN, "D3", "0.002", "--out", dir.string(),
                                     "--max-windows", "1"};
    std::string label;
    for (const std::string& a : extra) {
      argv.push_back(a);
      label += a + " ";
    }
    SCOPED_TRACE(label);
    util::Subprocess child = util::Subprocess::spawn(argv);
    const std::optional<util::ExitStatus> status = child.wait_for(30.0);
    ASSERT_TRUE(status.has_value());
    EXPECT_TRUE(status->exited);
    EXPECT_EQ(status->exit_code, 2);  // usage error, not a silent run
  }
  // No invocation above may have gotten far enough to checkpoint anything.
  EXPECT_TRUE(fs::is_empty(dir));
  fs::remove_all(dir);
}

// ---- the real daemon binary: runtime errors exit 1 --------------------------

// A runtime failure is an error exit, not an abort: an --out that cannot be
// created stops the daemon before it ingests anything, and an --http-port
// that is already bound stops it at startup.  Both used to escape main as
// an uncaught std::runtime_error (SIGABRT).
TEST_F(DaemonTest, DaemonBinaryRuntimeErrorsExitOne) {
  const fs::path file = fs::temp_directory_path() / "entrace_daemon_not_a_dir";
  const fs::path dir = fs::temp_directory_path() / "entrace_daemon_port_taken";
  fs::remove_all(file);
  fs::remove_all(dir);
  std::ofstream(file) << "a regular file";
  const obs::HttpServer taken(0, [](const std::string&) { return obs::HttpResponse{}; });

  const std::vector<std::vector<std::string>> failing = {
      {"--out", (file / "windows").string()},
      {"--out", dir.string(), "--http-port", std::to_string(taken.port())},
  };
  for (const std::vector<std::string>& extra : failing) {
    std::vector<std::string> argv = {ENTRACE_DAEMON_BIN, "D3", "0.002", "--max-windows", "1"};
    std::string label;
    for (const std::string& a : extra) {
      argv.push_back(a);
      label += a + " ";
    }
    SCOPED_TRACE(label);
    util::Subprocess child = util::Subprocess::spawn(argv);
    const std::optional<util::ExitStatus> status = child.wait_for(60.0);
    ASSERT_TRUE(status.has_value());
    EXPECT_TRUE(status->exited) << "signal " << status->term_signal;
    EXPECT_EQ(status->exit_code, 1);
  }
  EXPECT_TRUE(fs::is_empty(dir)) << "the port check must precede ingest";
  fs::remove_all(file);
  fs::remove_all(dir);
}

// ---- the real daemon binary: the --exact oracle -----------------------------

// The --exact contract end to end: a complete unpaced run of the binary,
// aged through every tier (retain 1, K = 2), folds back from its --out
// directory to exactly the in-process batch report.  Without --exact the
// daemon evicts idle flows and the reports differ, so this also pins the
// flag's wiring.
TEST_F(DaemonTest, DaemonBinaryExactRunFoldsToBatchReport) {
  const fs::path dir = fs::temp_directory_path() / "entrace_daemon_exact";
  fs::remove_all(dir);
  util::Subprocess child = util::Subprocess::spawn(
      {ENTRACE_DAEMON_BIN, "D3", "0.002", "--out", dir.string(), "--window", "30", "--retain",
       "1", "--sketch-every", "2", "--exact"});
  const std::optional<util::ExitStatus> status = child.wait_for(1200.0);
  ASSERT_TRUE(status.has_value()) << "the replay did not finish";
  ASSERT_TRUE(status->success()) << "exited=" << status->exited << " code=" << status->exit_code
                                 << " signaled=" << status->signaled;

  const DatasetSpec spec = dataset_by_name("D3", 0.002);
  const SyntheticTraceSourceSet sources(spec, model());
  const AnalyzerConfig cfg = default_config_for_model(model().site());
  const DatasetAnalysis batch = analyze_dataset(sources, cfg);
  const std::vector<report::ReportInput> inputs{report::ReportInput{&spec, &batch}};

  snap::RetentionManager retention(
      dir.string(), snap::RetentionOptions{1, 2}, cfg,
      snap::SnapshotMeta{spec.name, 0.002, static_cast<std::uint32_t>(sources.size())});
  EXPECT_GT(retention.tier2_sketch_count(), 0u);
  EXPECT_EQ(snap::render_windowed_report(retention.report_paths(), spec, cfg),
            report::full_report(inputs));
  fs::remove_all(dir);
}

// ---- bounded-memory soak ----------------------------------------------------

// Continuous-operation invariant: with eviction + slot reclaim + retention
// tiering, >= 50 rotated windows leave RSS flat (sampled after warm-up) and
// disk within retention.h's bound after every window, plus one summary line
// per aged window.  The RSS bound is skipped under sanitizers (quarantine
// and shadow memory grow resident size by design).
TEST_F(DaemonTest, SoakEvictReclaimRetentionStaysBounded) {
  MergedPacketStream stream = merged_stream(materialized());
  std::vector<TraceMeta> metas;
  for (std::size_t i = 0; i < stream.source_count(); ++i) {
    metas.push_back(stream.source(i).meta());
  }
  const AnalyzerConfig cfg = config(2);
  IncrementalOptions opts;
  opts.window_seconds = merged_span() / 64.0;
  opts.evict = true;
  opts.reclaim = true;
  IncrementalAnalyzer analyzer(std::move(metas), cfg, opts);

  const fs::path dir = fs::temp_directory_path() / "entrace_daemon_soak";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const snap::SnapshotMeta meta{small_spec().name, 0.004,
                                static_cast<std::uint32_t>(stream.source_count())};
  const snap::RetentionOptions ropts{3, 8};
  snap::RetentionManager retention(dir.string(), ropts, cfg, meta);
  // retention.h: at any moment at most keep_full + 2K window files and 2K
  // sketch files, a running fold's renamed output included.
  const std::size_t disk_bound = ropts.keep_full + 4 * ropts.sketch_every;
  std::size_t max_esnaps = 0;

  const auto checkpoint = [&](WindowShard&& w) {
    const std::string path = (dir / snap::window_file_name(w.index)).string();
    snap::WindowSummary s;
    s.index = w.index;
    s.start_ts = w.start_ts;
    s.end_ts = w.end_ts;
    for (const TraceShard& shard : w.shards) s.packets += shard.total_packets;
    s.snapshot_bytes = snap::write_window_snapshot(path, meta, w);
    retention.add_window(s, path);
    std::size_t esnaps = 0;
    for (const auto& e : fs::directory_iterator(dir)) {
      if (e.path().extension() == ".esnap") ++esnaps;
    }
    max_esnaps = std::max(max_esnaps, esnaps);
  };

  std::size_t warmed_rss = 0;
  std::vector<PacketView> views(256);
  for (;;) {
    const std::size_t got = stream.next_batch(views.data(), views.size());
    if (got == 0) break;
    analyzer.feed(views.data(), got);
    while (analyzer.window_complete()) {
      checkpoint(analyzer.rotate());
      if (analyzer.windows_rotated() == 10) warmed_rss = resident_bytes();
    }
  }
  checkpoint(analyzer.finish(&stream));
  retention.report_paths();  // settle: no fold still writes into `dir`

  EXPECT_GE(analyzer.windows_rotated(), 50u);
  EXPECT_GT(analyzer.evicted_total(), 0u);
  EXPECT_GT(analyzer.drained_total(), 0u);

  // Disk is bounded: within the retention bound after every window, and
  // every aged window is one summary line.
  EXPECT_LE(max_esnaps, disk_bound);
  EXPECT_GT(retention.sketch_folds(), 0u);
  EXPECT_LE(retention.tier0_count(), 3u);
  std::ifstream summary(retention.summary_path());
  std::string line;
  std::uint64_t lines = 0;
  while (std::getline(summary, line)) ++lines;
  EXPECT_EQ(lines, retention.summarized_count());
  // windows_rotated() includes the final partial window finish() harvested.
  EXPECT_EQ(retention.tier0_count() + retention.summarized_count(), analyzer.windows_rotated());

  // RSS flat after warm-up: the whole point of evict + reclaim + tiering.
  if (!kUnderSanitizer && warmed_rss != 0) {
    const std::size_t final_rss = resident_bytes();
    EXPECT_LT(final_rss, warmed_rss + warmed_rss / 2 + (64u << 20))
        << "RSS grew from " << warmed_rss << " to " << final_rss;
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace entrace
