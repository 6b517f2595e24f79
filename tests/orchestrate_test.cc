// Dispatch-support suite (CTest label "orchestrate", also run under
// ASan+UBSan via `ctest --preset orchestrate-asan`).
//
// The pieces the dispatch engine (src/cluster, pinned by the cluster
// suite) stands on, and the tools around it:
//   1. Retry policy: attempt budgets and seeded-jitter exponential backoff
//      are pure functions of (seed, job, attempt) — unit-tested with a
//      FakeClock, no sleeping.
//   2. Subprocess ownership: exit code vs signal, exec failure, timed
//      waits, and a kill that reaps — what a local slot's per-attempt
//      worker child relies on.
//   3. Snapshot fault classification: a truncated image and a corrupted
//      one map onto distinct worker faults.
//   4. Crash safety: .esnap and metrics files appear atomically (tmp +
//      rename); an abandoned writer leaves no final file behind.
//   5. The tools: entrace_orchestrate end to end (local slots found next to
//      the binary, the report on stdout under faults, --metrics-out, exit
//      codes), a --once entrace_worker stops when its spawner dies,
//      entrace_merge folds a complete shard set to the direct report,
//      degrades an incomplete one to the coverage manifest, and rejects
//      mixed or unknown datasets and duplicate traces, and
//      entrace_orchestrate / entrace_worker / entrace_shard reject garbage
//      numeric flags with exit 2.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/fault.h"
#include "core/analyzer.h"
#include "core/report.h"
#include "obs/exposition.h"
#include "snapshot/reader.h"
#include "snapshot/writer.h"
#include "synth/synth_source.h"
#include "util/retry.h"
#include "util/subprocess.h"

namespace entrace {
namespace {

namespace snap = entrace::snapshot;
using orchestrate::WorkerFault;

// ---------------------------------------------------------------- retry --

TEST(RetryPolicyTest, AttemptBudgetSemantics) {
  util::RetryPolicy one;
  one.max_attempts = 1;  // no retries
  EXPECT_FALSE(one.should_retry(1));

  util::RetryPolicy three;
  three.max_attempts = 3;
  EXPECT_TRUE(three.should_retry(1));
  EXPECT_TRUE(three.should_retry(2));
  EXPECT_FALSE(three.should_retry(3));
}

TEST(RetryPolicyTest, BackoffGrowsExponentiallyAndClamps) {
  util::RetryPolicy p;
  p.base_delay = 0.1;
  p.max_delay = 1.0;
  p.jitter = 0.0;  // exact nominal schedule
  EXPECT_DOUBLE_EQ(p.backoff_seconds(0, 1), 0.1);
  EXPECT_DOUBLE_EQ(p.backoff_seconds(0, 2), 0.2);
  EXPECT_DOUBLE_EQ(p.backoff_seconds(0, 3), 0.4);
  EXPECT_DOUBLE_EQ(p.backoff_seconds(0, 4), 0.8);
  EXPECT_DOUBLE_EQ(p.backoff_seconds(0, 5), 1.0);  // clamped
  EXPECT_DOUBLE_EQ(p.backoff_seconds(0, 9), 1.0);
}

TEST(RetryPolicyTest, JitterIsBoundedDeterministicAndPerJob) {
  util::RetryPolicy p;
  p.base_delay = 0.1;
  p.jitter = 0.5;
  bool jobs_differ = false;
  for (std::uint64_t job = 0; job < 16; ++job) {
    const double d = p.backoff_seconds(job, 1);
    EXPECT_GE(d, 0.1 * 0.75) << "job " << job;
    EXPECT_LT(d, 0.1 * 1.25) << "job " << job;
    EXPECT_DOUBLE_EQ(d, p.backoff_seconds(job, 1)) << "job " << job;
    if (d != p.backoff_seconds(0, 1)) jobs_differ = true;
  }
  EXPECT_TRUE(jobs_differ) << "a fleet of failed jobs must not retry in lockstep";
}

TEST(RetryPolicyTest, FakeClockSleepsWithoutBlocking) {
  util::FakeClock clock(10.0);
  EXPECT_DOUBLE_EQ(clock.now(), 10.0);
  clock.sleep(2.5);
  EXPECT_DOUBLE_EQ(clock.now(), 12.5);
  clock.sleep(-1.0);  // never goes backwards
  EXPECT_DOUBLE_EQ(clock.now(), 12.5);
}

// ----------------------------------------------------------- subprocess --

TEST(SubprocessTest, CapturesExitCode) {
  auto p = util::Subprocess::spawn({"/bin/sh", "-c", "exit 3"});
  const util::ExitStatus st = p.wait();
  EXPECT_TRUE(st.exited);
  EXPECT_EQ(st.exit_code, 3);
  EXPECT_FALSE(st.signaled);
  EXPECT_FALSE(st.success());
}

TEST(SubprocessTest, DistinguishesKillFromExit) {
  auto p = util::Subprocess::spawn({"/bin/sleep", "30"});
  EXPECT_TRUE(p.running());
  EXPECT_FALSE(p.poll().has_value());
  const util::ExitStatus st = p.kill_and_wait();
  EXPECT_TRUE(st.signaled);
  EXPECT_EQ(st.term_signal, SIGKILL);
  EXPECT_FALSE(st.exited);
}

TEST(SubprocessTest, ExecFailureSurfacesAs127) {
  auto p = util::Subprocess::spawn({"/no/such/binary/anywhere"});
  const util::ExitStatus st = p.wait();
  EXPECT_TRUE(st.exited);
  EXPECT_EQ(st.exit_code, 127);
}

TEST(SubprocessTest, WaitForTimesOutWithoutReaping) {
  auto p = util::Subprocess::spawn({"/bin/sleep", "30"});
  EXPECT_FALSE(p.wait_for(0.05).has_value());
  EXPECT_TRUE(p.running());
  p.kill_and_wait();
}

// -------------------------------------------- snapshot fault classification --

// A valid snapshot image to mutilate (one empty shard is enough structure).
std::vector<std::uint8_t> small_snapshot_image() {
  std::ostringstream out(std::ios::binary);
  snap::SnapshotWriter writer(out, {"D0", 0.004, 22});
  writer.add_shard(0, TraceShard{});
  writer.close();
  const std::string image = std::move(out).str();
  return {image.begin(), image.end()};
}

TEST(FaultInjectionTest, TruncationClassifiesAsTruncatedSnapshot) {
  std::vector<std::uint8_t> bytes = small_snapshot_image();
  ASSERT_GT(bytes.size(), snap::kHeaderSize + 2);
  // Cut strictly inside the section stream: wherever the cut lands, the
  // end marker is gone and the reader reports truncation.
  bytes.resize(snap::kHeaderSize + (bytes.size() - snap::kHeaderSize) / 2);
  try {
    snap::decode_snapshot(bytes);
    FAIL() << "truncated snapshot must not decode";
  } catch (const snap::SnapshotError& e) {
    EXPECT_EQ(orchestrate::classify_snapshot_error(e), WorkerFault::kTruncatedSnapshot)
        << e.what();
  }
}

TEST(FaultInjectionTest, CorruptionClassifiesAsSnapshotRejected) {
  std::vector<std::uint8_t> bytes = small_snapshot_image();
  // Flip one bit of the final byte, the end section's CRC trailer: every
  // byte is still present, so this is a rejection, never truncation.
  bytes.back() ^= 0x01;
  try {
    snap::decode_snapshot(bytes);
    FAIL() << "corrupted snapshot must not decode";
  } catch (const snap::SnapshotError& e) {
    EXPECT_EQ(orchestrate::classify_snapshot_error(e), WorkerFault::kSnapshotRejected)
        << e.what();
  }
}

// ------------------------------------------------------- atomic emission --

TEST(AtomicEmissionTest, SnapshotAppearsOnlyOnClose) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "entrace_orch_atomic.esnap").string();
  std::filesystem::remove(path);
  {
    snap::SnapshotWriter writer(path, {"D0", 0.004, 22});
    writer.add_shard(0, TraceShard{});
    EXPECT_FALSE(std::filesystem::exists(path)) << "snapshot visible before close";
    EXPECT_TRUE(std::filesystem::exists(path + ".tmp"));
    writer.close();
  }
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_NO_THROW(snap::read_snapshot(path));
  std::filesystem::remove(path);
}

TEST(AtomicEmissionTest, AbandonedWriterLeavesNothingBehind) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "entrace_orch_abandon.esnap").string();
  std::filesystem::remove(path);
  {
    snap::SnapshotWriter writer(path, {"D0", 0.004, 22});
    writer.add_shard(0, TraceShard{});
    // No close(): the crashed-worker path.
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(AtomicEmissionTest, MetricsFileLeavesNoTmp) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "entrace_orch_metrics.json").string();
  obs::Registry reg;
  reg.counter("x", obs::MetricClass::kTiming)->add(3);
  obs::write_metrics_file(reg, path);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------- tools --

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// Run `argv` with its stdout captured in `out`, and its stderr in `*err`
// (discarded when null).  The exit code, or -1 when it did not exit
// normally within two minutes.
int run_tool(const std::vector<std::string>& argv, std::string& out,
             std::string* err = nullptr) {
  const std::string out_path = temp_path("entrace_orch_stdout_" + std::to_string(::getpid()));
  const std::string err_path = out_path + ".err";
  std::string command;
  for (const std::string& arg : argv) command += "'" + arg + "' ";
  command += "> '" + out_path + "' 2>" + (err != nullptr ? "'" + err_path + "'" : "/dev/null");
  util::Subprocess shell = util::Subprocess::spawn({"/bin/sh", "-c", command});
  const std::optional<util::ExitStatus> status = shell.wait_for(120.0);
  out = read_file(out_path);
  std::filesystem::remove(out_path);
  if (err != nullptr) {
    *err = read_file(err_path);
    std::filesystem::remove(err_path);
  }
  return status.has_value() && status->exited ? status->exit_code : -1;
}

// D0 at a small scale: every run below analyzes it once per attempt.
constexpr const char* kScale = "0.002";

const std::string& direct_report() {
  static const std::string text = [] {
    const EnterpriseModel model;
    const DatasetSpec spec = dataset_by_name("D0", std::stod(kScale));
    const SyntheticTraceSourceSet sources(spec, model);
    const AnalyzerConfig config = default_config_for_model(model.site());
    std::vector<TraceShard> shards = analyze_trace_shards(sources, config, 0, sources.size());
    DatasetAnalysis analysis = fold_shards(spec.name, std::move(shards), config);
    const report::ReportInput input{&spec, &analysis};
    return report::full_report({&input, 1});
  }();
  return text;
}

// entrace_orchestrate with no --cluster runs local slots, each attempt in
// an entrace_worker child found next to the tool; the report on stdout is
// the direct run's.
TEST(OrchestrateTest, CleanRunMatchesDirectReport) {
  std::string out;
  EXPECT_EQ(run_tool({ENTRACE_ORCHESTRATE_BIN, "D0", kScale, "--workers", "2", "--jobs", "4"}, out),
            0);
  EXPECT_EQ(out, direct_report());
}

// Every `name` counter in a --metrics-out JSON file holds its `value`.
void expect_counters(const std::string& metrics,
                     const std::vector<std::pair<std::string, int>>& counters) {
  for (const auto& [name, value] : counters) {
    EXPECT_NE(metrics.find("\"" + name + "\": {\"class\": \"timing\", \"kind\": \"counter\", " +
                           "\"value\": " + std::to_string(value) + "}"),
              std::string::npos)
        << name << " != " << value;
  }
}

// --metrics-out carries the run's cluster.* counters: every job's first
// attempt refused by injection, then retried once.
TEST(OrchestrateTest, RecordsOrchestrationMetrics) {
  const std::string metrics_path = temp_path("entrace_orch_metrics_out.json");
  std::filesystem::remove(metrics_path);
  std::string out;
  EXPECT_EQ(run_tool({ENTRACE_ORCHESTRATE_BIN, "D0", kScale, "--workers", "2", "--jobs", "2",
                      "--inject", "refuse=1", "--inject-attempts", "1", "--backoff", "0.01",
                      "--metrics-out", metrics_path},
                     out),
            0);
  expect_counters(read_file(metrics_path), {{"cluster.attempts", 4},
                                            {"cluster.reconnects", 2},
                                            {"cluster.jobs.done", 2},
                                            {"cluster.fault.connect_refused", 2},
                                            {"cluster.endpoints.retired", 0}});
  std::filesystem::remove(metrics_path);
}

// How many live processes carry `needle` in their command line.
int processes_naming(const std::string& needle) {
  int count = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc")) {
    std::ifstream in(entry.path() / "cmdline", std::ios::binary);
    const std::string cmdline{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
    if (cmdline.find(needle) != std::string::npos) ++count;
  }
  return count;
}

// Each network fault kind on its own, injected through the tool's --inject
// into every job's first attempt: each job retries once, the report is the
// direct run's, and the fault lands in its own cluster.fault.* counter.
// The tool runs with a private TMPDIR, where its per-attempt port files
// live: nothing may be left there, and no worker child naming it may
// outlive the run — a hung child is killed at the deadline.
TEST(OrchestrateTest, EveryInjectedFaultKindIsRecoveredByRetry) {
  const std::pair<const char*, const char*> kinds[] = {{"refuse", "connect_refused"},
                                                       {"disconnect", "disconnect"},
                                                       {"corrupt", "corrupt_frame"},
                                                       {"hang", "heartbeat_timeout"}};
  const std::string tmp = temp_path("entrace_orch_kinds_" + std::to_string(::getpid()));
  const std::string metrics_path = tmp + ".json";
  for (const auto& [kind, fault] : kinds) {
    SCOPED_TRACE(kind);
    std::filesystem::remove_all(tmp);
    std::filesystem::create_directory(tmp);
    std::filesystem::remove(metrics_path);
    std::string out;
    EXPECT_EQ(run_tool({"/usr/bin/env", "TMPDIR=" + tmp, ENTRACE_ORCHESTRATE_BIN, "D0", kScale,
                        "--workers", "2", "--jobs", "2", "--inject", std::string(kind) + "=1",
                        "--inject-attempts", "1", "--backoff", "0.01", "--hb-timeout", "2",
                        "--metrics-out", metrics_path},
                       out),
              0);
    EXPECT_EQ(out, direct_report());
    expect_counters(read_file(metrics_path), {{"cluster.attempts", 4},
                                              {"cluster.reconnects", 2},
                                              {"cluster.jobs.done", 2},
                                              {std::string("cluster.fault.") + fault, 2}});
    EXPECT_TRUE(std::filesystem::is_empty(tmp)) << "port-file directory left behind";
    EXPECT_EQ(processes_naming(tmp), 0) << "a worker child outlived the run";
  }
  std::filesystem::remove_all(tmp);
  std::filesystem::remove(metrics_path);
}

// The tool under every network fault kind at once, at 1 and 4 local
// slots: same bytes as the direct run.  (Seed 4 draws 15 faults over 4
// jobs, each kind at least once, two hangs among them.  That no worker
// child outlives its attempt is pinned by the cluster suite.)
TEST(OrchestrateTest, MixedFaultScheduleIsByteIdenticalAtOneAndFourWorkers) {
  for (const char* workers : {"1", "4"}) {
    SCOPED_TRACE(std::string(workers) + " workers");
    std::string out;
    EXPECT_EQ(run_tool({ENTRACE_ORCHESTRATE_BIN, "D0", kScale, "--workers", workers, "--jobs", "4",
                        "--inject", "refuse=0.2,disconnect=0.2,corrupt=0.2,hang=0.1", "--seed",
                        "4", "--retries", "8", "--backoff", "0.01", "--hb-timeout", "2"},
                       out),
              0);
    EXPECT_EQ(out, direct_report());
  }
}

// Every attempt refused: the tool still prints the PARTIAL banner and a
// manifest naming every trace, and exits 1 — or 0 with --allow-partial.
TEST(OrchestrateTest, ExhaustedBudgetDegradesToAccurateManifest) {
  const std::vector<std::string> argv = {ENTRACE_ORCHESTRATE_BIN, "D0", kScale, "--workers", "2",
                                         "--inject", "refuse=1", "--retries", "1",
                                         "--backoff", "0.01"};
  std::string out;
  EXPECT_EQ(run_tool(argv, out), 1);
  EXPECT_EQ(out.find("!!"), 0u);
  EXPECT_NE(out.find("Coverage manifest"), std::string::npos);
  EXPECT_NE(out.find("0-21"), std::string::npos) << "D0's 22 traces must all be missing";

  std::vector<std::string> allow = argv;
  allow.push_back("--allow-partial");
  std::string partial;
  EXPECT_EQ(run_tool(allow, partial), 0);
  EXPECT_EQ(partial, out);
}

// True once `pid` has exited: gone from /proc, or a zombie its new parent
// has not reaped yet.
bool process_exited(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  if (!std::getline(in, stat)) return true;
  const std::size_t paren = stat.rfind(')');
  return paren == std::string::npos || paren + 2 >= stat.size() || stat[paren + 2] == 'Z' ||
         stat[paren + 2] == 'X';
}

// A --once worker whose spawner dies before dialling it stops instead of
// waiting in accept() forever.  The shell spawns the worker, records its
// pid, and becomes `sleep`, so the worker's parent lives until the kill.
TEST(OrchestrateTest, OnceWorkerStopsWhenItsSpawnerDies) {
  const std::string pid_file = temp_path("entrace_orch_once_" + std::to_string(::getpid()));
  const std::string port_file = pid_file + ".port";
  std::filesystem::remove(pid_file);
  std::filesystem::remove(port_file);
  util::Subprocess spawner = util::Subprocess::spawn(
      {"/bin/sh", "-c",
       std::string("'") + ENTRACE_WORKER_BIN + "' --once --port-file '" + port_file +
           "' & echo $! > '" + pid_file + "'; exec sleep 60"});
  // The port file appears only after the worker armed its parent-death
  // signal.
  for (int i = 0; i < 1000 && !std::filesystem::exists(port_file); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(std::filesystem::exists(port_file));
  int worker = 0;
  std::ifstream(pid_file) >> worker;
  ASSERT_GT(worker, 0);

  spawner.kill_and_wait();
  bool exited = false;
  for (int i = 0; i < 1000 && !exited; ++i) {
    exited = process_exited(worker);
    if (!exited) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(exited) << "worker " << worker << " outlived its spawner";
  if (!exited) ::kill(worker, SIGKILL);
  std::filesystem::remove(pid_file);
  std::filesystem::remove(port_file);
}

// Every numeric flag of the dispatch tools is parsed strictly: a bad value
// is a usage error (exit 2), never a silent default, a wrapped integer, a
// port taken modulo 65536, a non-finite scale, or a non-finite, oversized or
// sub-millisecond number of seconds cast to an integer.  entrace_merge likewise rejects an unknown flag or a
// flag missing its value instead of opening it as a snapshot path.
TEST(OrchestrateTest, BinariesRejectGarbageNumericFlags) {
  const std::string esnap = temp_path("entrace_orch_badflags.esnap");
  std::filesystem::remove(esnap);
  const std::vector<std::vector<std::string>> bad_invocations = {
      {ENTRACE_ORCHESTRATE_BIN, "D0", "0.002", "--workers", "abc"},
      {ENTRACE_ORCHESTRATE_BIN, "D0", "0.002", "--retries", "-1"},
      {ENTRACE_ORCHESTRATE_BIN, "D0", "0.002", "--jobs", "4x"},
      {ENTRACE_ORCHESTRATE_BIN, "D0", "0.002", "--shard-threads", "-2"},
      {ENTRACE_ORCHESTRATE_BIN, "D0", "0.002", "--inject-attempts", "99999999999"},
      {ENTRACE_ORCHESTRATE_BIN, "D0", "0.002", "--backoff", "-0.5"},
      {ENTRACE_ORCHESTRATE_BIN, "D0", "0.002", "--hb-timeout", "0"},
      {ENTRACE_ORCHESTRATE_BIN, "D0", "0.002", "--hb-timeout", "inf"},
      {ENTRACE_ORCHESTRATE_BIN, "D0", "0.002", "--hb-timeout", "1e300"},
      {ENTRACE_ORCHESTRATE_BIN, "D0", "0.002", "--hb-interval", "5000000"},
      {ENTRACE_ORCHESTRATE_BIN, "D0", "0.002", "--hb-interval", "0.0001"},
      {ENTRACE_ORCHESTRATE_BIN, "D0", "0.002", "--hb-timeout", "0.0005"},
      {ENTRACE_ORCHESTRATE_BIN, "D0", "inf"},
      {ENTRACE_ORCHESTRATE_BIN, "D0", "0.002", "--seed", "x"},
      {ENTRACE_ORCHESTRATE_BIN, "D0", "0.002", "--cluster", "127.0.0.1:70000"},
      {ENTRACE_ORCHESTRATE_BIN, "D0", "0.002", "--inject", "crash=0.5"},
      {ENTRACE_WORKER_BIN, "--once", "--port", "70000"},  // must not bind 70000 % 65536
      {ENTRACE_WORKER_BIN, "--once", "--port", "abc"},    // must not read as port 0
      {ENTRACE_WORKER_BIN, "--once", "--port", "-1"},
      {ENTRACE_SHARD_BIN, esnap, "D0", "0.002", "--threads", "x"},
      {ENTRACE_SHARD_BIN, esnap, "D0", "0.002", "--threads", "-1"},
      {ENTRACE_SHARD_BIN, esnap, "D0", "0.002", "--traces", "0:-1"},
      {ENTRACE_SHARD_BIN, esnap, "D0", "0.002", "--traces", "0:99999999999999999999999"},
      {ENTRACE_SHARD_BIN, esnap, "D0", "0.002", "--traces", "-0:2"},
      {ENTRACE_SHARD_BIN, esnap, "D0", "0.002", "--traces", "+0:2"},
      {ENTRACE_SHARD_BIN, esnap, "D0", "0.002", "--traces", " 0:2"},
      {ENTRACE_SHARD_BIN, esnap, "D0", "0.002", "--traces", "0: 3"},
      {ENTRACE_MERGE_BIN, "--allow-partail", esnap},
      {ENTRACE_MERGE_BIN, esnap, "--metrics-out"},
  };
  for (const std::vector<std::string>& argv : bad_invocations) {
    std::string label;
    for (const std::string& a : argv) label += a + " ";
    SCOPED_TRACE(label);
    util::Subprocess child = util::Subprocess::spawn(argv);
    const std::optional<util::ExitStatus> status = child.wait_for(30.0);
    ASSERT_TRUE(status.has_value());
    EXPECT_TRUE(status->exited);
    EXPECT_EQ(status->exit_code, 2);  // usage error, not a silent run
  }
  // No shard invocation above may have gotten far enough to write a file.
  EXPECT_FALSE(std::filesystem::exists(esnap));
}

// A shard whose output cannot be created is an error exit, not an abort: the
// snapshot writer's std::runtime_error used to escape main (SIGABRT) after
// the analysis had run.
TEST(OrchestrateTest, ShardWriteFailureExitsOne) {
  const std::string file = temp_path("entrace_orch_not_a_dir");
  std::filesystem::remove_all(file);
  std::ofstream(file) << "a regular file";
  util::Subprocess child = util::Subprocess::spawn(
      {ENTRACE_SHARD_BIN, file + "/out.esnap", "D0", "0.002", "--traces", "0:1"});
  const std::optional<util::ExitStatus> status = child.wait_for(60.0);
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->exited) << "signal " << status->term_signal;
  EXPECT_EQ(status->exit_code, 1);
  std::filesystem::remove(file);
}

// entrace_shard's file of `dataset`'s traces [lo, hi) at kScale, at `path`.
void write_shard(const std::string& path, const char* dataset, const std::string& range) {
  std::string out;
  ASSERT_EQ(run_tool({ENTRACE_SHARD_BIN, path, dataset, kScale, "--traces", range}, out), 0)
      << dataset << " " << range;
}

// Two shard files that cover D0 between them, given in reverse order: the
// merge prints the direct run's report, byte for byte, and exits 0.
TEST(OrchestrateTest, MergeOfCompleteShardSetMatchesDirectReport) {
  const std::string low = temp_path("entrace_orch_merge_low.esnap");
  const std::string high = temp_path("entrace_orch_merge_high.esnap");
  write_shard(low, "D0", "0:11");
  write_shard(high, "D0", "11:22");
  std::string out;
  EXPECT_EQ(run_tool({ENTRACE_MERGE_BIN, high, low}, out), 0);
  EXPECT_EQ(out, direct_report());
  std::filesystem::remove(low);
  std::filesystem::remove(high);
}

// An incomplete set prints the PARTIAL report, manifest first, and exits
// 1; --allow-partial prints the same bytes and exits 0.
TEST(OrchestrateTest, MergeAllowPartialAcceptsIncompleteShardSet) {
  const std::string shard_path = temp_path("entrace_orch_merge_part.esnap");
  write_shard(shard_path, "D0", "0:2");
  std::string out;
  EXPECT_EQ(run_tool({ENTRACE_MERGE_BIN, shard_path}, out), 1)
      << "incomplete set without --allow-partial must fail";
  EXPECT_EQ(out.find("!!"), 0u);
  EXPECT_NE(out.find("PARTIAL RESULTS"), std::string::npos);
  EXPECT_NE(out.find("Coverage manifest"), std::string::npos);
  EXPECT_NE(out.find("2-21"), std::string::npos) << "traces 2-21 of D0 are missing";
  std::string partial;
  EXPECT_EQ(run_tool({ENTRACE_MERGE_BIN, "--allow-partial", shard_path}, partial), 0);
  EXPECT_EQ(partial, out);
  std::filesystem::remove(shard_path);
}

// Files of two datasets: exit 1 with no report, and the error names the
// file that disagrees with the first, not the first.
TEST(OrchestrateTest, MergeMetadataMismatchNamesTheSecondFile) {
  const std::string d0 = temp_path("entrace_orch_merge_meta_d0.esnap");
  const std::string d3 = temp_path("entrace_orch_merge_meta_d3.esnap");
  write_shard(d0, "D0", "0:1");
  write_shard(d3, "D3", "0:1");
  std::string out, err;
  EXPECT_EQ(run_tool({ENTRACE_MERGE_BIN, d0, d3}, out, &err), 1);
  EXPECT_EQ(out, "");
  EXPECT_EQ(err.find(d3 + ": snapshot metadata mismatch"), 0u) << err;
  EXPECT_EQ(err.find(d0), std::string::npos) << err;
  std::filesystem::remove(d0);
  std::filesystem::remove(d3);
}

// One file given twice holds every trace index twice: exit 1 on the first
// duplicate, with no report.
TEST(OrchestrateTest, MergeRejectsDuplicateTraceIndex) {
  const std::string shard_path = temp_path("entrace_orch_merge_dup.esnap");
  write_shard(shard_path, "D0", "0:1");
  std::string out, err;
  EXPECT_EQ(run_tool({ENTRACE_MERGE_BIN, shard_path, shard_path}, out, &err), 1);
  EXPECT_EQ(out, "");
  EXPECT_NE(err.find("duplicate shard for trace index 0"), std::string::npos) << err;
  std::filesystem::remove(shard_path);
}

// A well-formed file whose metadata names no dataset: exit 1 naming the
// file, not a death by uncaught exception.
TEST(OrchestrateTest, MergeRejectsUnknownDataset) {
  const std::string shard_path = temp_path("entrace_orch_merge_unknown.esnap");
  {
    snap::SnapshotWriter writer(shard_path, {"D9", 0.002, 1});
    writer.add_shard(0, TraceShard{});
    writer.close();
  }
  std::string out, err;
  EXPECT_EQ(run_tool({ENTRACE_MERGE_BIN, shard_path}, out, &err), 1);
  EXPECT_EQ(out, "");
  EXPECT_EQ(err.find(shard_path + ": unknown dataset: D9"), 0u) << err;
  std::filesystem::remove(shard_path);
}

}  // namespace
}  // namespace entrace
