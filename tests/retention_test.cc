// Tiered sketch retention suite (CTest labels "daemon" + "retention", also
// run under AddressSanitizer via `ctest --preset retention-asan`).
//
// Pins the contract of snapshot/retention.h's tiered downsampling: windows
// age tier-0 -> pending -> tier-1 sketch -> tier-2 sketch with bounded file
// counts at every tier; folding report_paths() across all tiers reproduces
// the one-shot batch report byte-identically, and in evict+reclaim mode the
// report does not depend on how windows were grouped into sketches; a
// crash-restart recovery scan rejects torn files, drops range duplicates
// left mid-fold (including a sketch renamed ahead of its inputs' deletion
// by the fold thread), and resumes window numbering, but stops, deleting
// nothing, at a file of another format version; I/O failures surface
// in AgeResult / io_errors() instead of vanishing; and a >= 128-window
// soak with --retain 4 --sketch-every 8 geometry keeps disk within the
// documented bound after every add_window() while /report still covers
// the entire run.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/analyzer.h"
#include "core/incremental.h"
#include "core/report.h"
#include "pcap/packet_source.h"
#include "snapshot/format.h"
#include "snapshot/retention.h"
#include "snapshot/window.h"
#include "synth/generator.h"

namespace entrace {
namespace {

namespace fs = std::filesystem;
namespace snap = entrace::snapshot;

class RetentionTest : public ::testing::Test {
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
  static AnalyzerConfig config() {
    AnalyzerConfig c = default_config_for_model(model().site());
    c.threads = 1;
    return c;
  }
  static snap::SnapshotMeta snap_meta() {
    return snap::SnapshotMeta{small_spec().name, 0.004,
                              static_cast<std::uint32_t>(materialized().traces.size())};
  }
  // The equivalence reference: one-shot batch run over the same packets.
  static const std::string& batch_report() {
    static const std::string r = [] {
      const DatasetAnalysis analysis = analyze_dataset(materialized(), config());
      const DatasetSpec s = small_spec();
      const report::ReportInput input{&s, &analysis};
      return report::full_report(std::vector<report::ReportInput>{input});
    }();
    return r;
  }
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

  // Windowed replay cut into ~`windows` windows.  Exact mode (evict and
  // reclaim off) folds back to the batch run byte-identically; evict mode
  // is the daemon's default.
  static std::vector<WindowShard> make_windows(std::size_t windows, bool evict = false) {
    MergedPacketStream stream = merged_stream(materialized());
    std::vector<TraceMeta> metas;
    metas.reserve(stream.source_count());
    for (std::size_t i = 0; i < stream.source_count(); ++i) {
      metas.push_back(stream.source(i).meta());
    }
    IncrementalOptions opts;
    opts.window_seconds = merged_span() / (static_cast<double>(windows) - 0.3);
    opts.evict = evict;
    opts.reclaim = evict;
    IncrementalAnalyzer analyzer(std::move(metas), config(), opts);

    std::vector<PacketView> views(256);
    std::vector<WindowShard> out;
    for (;;) {
      const std::size_t got = stream.next_batch(views.data(), views.size());
      if (got == 0) break;
      analyzer.feed(views.data(), got);
      while (analyzer.window_complete()) out.push_back(analyzer.rotate());
    }
    out.push_back(analyzer.finish(&stream));
    return out;
  }

  // Checkpoint one window into `dir` and register it, daemon-style.
  static snap::AgeResult checkpoint(snap::RetentionManager& retention, const fs::path& dir,
                                    const WindowShard& w) {
    const std::string path = (dir / snap::window_file_name(w.index)).string();
    snap::WindowSummary s = snap::summarize_window(w);
    s.snapshot_bytes = snap::write_window_snapshot(path, snap_meta(), w);
    return retention.add_window(s, path);
  }

  // Checkpoint every window, then settle the manager: report_paths() waits
  // for the fold thread, so the tier counters describe a finished run.
  static snap::AgeResult feed_all(snap::RetentionManager& retention, const fs::path& dir,
                                  const std::vector<WindowShard>& windows) {
    snap::AgeResult total;
    for (const WindowShard& w : windows) {
      const snap::AgeResult r = checkpoint(retention, dir, w);
      total.aged += r.aged;
      total.folds += r.folds;
      total.io_errors += r.io_errors;
    }
    retention.report_paths();
    return total;
  }

  static fs::path fresh_dir(const std::string& name) {
    const fs::path dir = fs::temp_directory_path() / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
  }

  static std::size_t esnap_count(const fs::path& dir) {
    std::size_t n = 0;
    for (const auto& e : fs::directory_iterator(dir)) {
      if (e.path().extension() == ".esnap") ++n;
    }
    return n;
  }

  static std::uint64_t summary_lines(const snap::RetentionManager& retention) {
    std::ifstream in(retention.summary_path());
    std::string line;
    std::uint64_t n = 0;
    while (std::getline(in, line)) ++n;
    return n;
  }
};

// ---- tier transitions -------------------------------------------------------

// With keep_full 2 and K = 2, a dozen windows must cascade all the way:
// tier 0 holds exactly the 2 newest, aged windows fold pairwise into tier-1
// sketches, pairs of sketches fold into tier-2, and tier-2 self-compacts so
// no tier ever exceeds K files.
TEST_F(RetentionTest, WindowsAgeThroughSketchTiers) {
  const fs::path dir = fresh_dir("entrace_retention_tiers");
  const std::vector<WindowShard> windows = make_windows(12);
  ASSERT_GE(windows.size(), 10u);

  snap::RetentionOptions opts;
  opts.keep_full = 2;
  opts.sketch_every = 2;
  snap::RetentionManager retention(dir.string(), opts, config(), snap_meta());
  const snap::AgeResult total = feed_all(retention, dir, windows);

  EXPECT_EQ(total.io_errors, 0u);
  EXPECT_EQ(total.aged, windows.size() - 2);
  // add_window() itself applies folds: with 2K aged windows pending it
  // waits for the fold thread, so the sixth call applies one at the latest.
  // feed_all's closing settle may apply more, which only the cumulative
  // counter sees.
  EXPECT_GT(total.folds, 0u);
  EXPECT_LE(total.folds, retention.sketch_folds());
  EXPECT_GT(retention.sketch_folds(), 0u);
  EXPECT_EQ(retention.tier0_count(), 2u);
  EXPECT_LT(retention.pending_count(), 2u);
  EXPECT_LT(retention.tier1_sketch_count(), 2u);
  EXPECT_GE(retention.tier2_sketch_count(), 1u);
  EXPECT_LT(retention.tier2_sketch_count(), 2u);  // K=2 keeps compacting to one
  EXPECT_EQ(retention.summarized_count(), windows.size() - 2);
  EXPECT_EQ(summary_lines(retention), windows.size() - 2);

  // Disk state mirrors the tracked tiers exactly, and every retained byte
  // is accounted for in bytes_retained().
  EXPECT_EQ(esnap_count(dir), retention.tier0_count() + retention.pending_count() +
                                  retention.tier1_sketch_count() +
                                  retention.tier2_sketch_count());
  std::uint64_t disk = 0;
  for (const auto& e : fs::directory_iterator(dir)) disk += fs::file_size(e.path());
  EXPECT_EQ(retention.bytes_retained(), disk);
  fs::remove_all(dir);
}

TEST_F(RetentionTest, TieredConstructorRejectsDegenerateSketchEvery) {
  const fs::path dir = fresh_dir("entrace_retention_badopts");
  for (const std::size_t bad : {std::size_t{0}, std::size_t{1}}) {
    snap::RetentionOptions opts;
    opts.sketch_every = bad;
    EXPECT_THROW(snap::RetentionManager(dir.string(), opts, config(), snap_meta()),
                 std::invalid_argument);
  }
  fs::remove_all(dir);
}

// ---- fold-across-tiers equality ---------------------------------------------

// The regression oracle: rendering over report_paths() — tier-2 sketch,
// tier-1 sketches, pending windows, tier-0 — reproduces the one-shot batch
// report byte-identically, because sketches reuse the deterministic shard
// fold.
TEST_F(RetentionTest, FoldAcrossTiersMatchesBatchReport) {
  const fs::path dir = fresh_dir("entrace_retention_fold");
  const std::vector<WindowShard> windows = make_windows(12);

  snap::RetentionOptions opts;
  opts.keep_full = 2;
  opts.sketch_every = 2;
  snap::RetentionManager retention(dir.string(), opts, config(), snap_meta());
  ASSERT_TRUE(feed_all(retention, dir, windows).ok());
  ASSERT_GE(retention.tier2_sketch_count(), 1u);

  const std::string report =
      snap::render_windowed_report(retention.report_paths(), small_spec(), config());
  EXPECT_EQ(report, batch_report());
  fs::remove_all(dir);
}

// How windows are grouped into sketches must never show in /report, which
// is what leaves the fold thread free to fold whenever it gets to it: in
// the daemon's evict+reclaim mode (no batch oracle there), the same
// windows rendered from tier 0 alone, through K = 2 sketches and through
// K = 3 sketches give identical bytes.
TEST_F(RetentionTest, EvictModeReportIsIndependentOfSketchGrouping) {
  const std::vector<WindowShard> windows = make_windows(12, /*evict=*/true);
  ASSERT_GE(windows.size(), 10u);

  std::vector<std::string> reports;
  for (const std::size_t k : {std::size_t{0}, std::size_t{2}, std::size_t{3}}) {
    SCOPED_TRACE("sketch_every=" + std::to_string(k));
    const fs::path dir = fresh_dir("entrace_retention_grouping_" + std::to_string(k));
    snap::RetentionOptions opts;
    opts.keep_full = k == 0 ? windows.size() : 1;  // K = 0: nothing ever ages
    opts.sketch_every = k == 0 ? 2 : k;
    snap::RetentionManager retention(dir.string(), opts, config(), snap_meta());
    ASSERT_TRUE(feed_all(retention, dir, windows).ok());
    EXPECT_EQ(retention.sketch_folds() == 0, k == 0);
    reports.push_back(
        snap::render_windowed_report(retention.report_paths(), small_spec(), config()));
    fs::remove_all(dir);
  }
  EXPECT_EQ(reports[1], reports[0]);
  EXPECT_EQ(reports[2], reports[0]);
}

// --retain 0 keeps no full checkpoints at all: every window ages straight
// into the sketch pipeline, and the full history still folds back.
TEST_F(RetentionTest, RetainZeroKeepsHistoryInSketchesOnly) {
  const fs::path dir = fresh_dir("entrace_retention_zero");
  const std::vector<WindowShard> windows = make_windows(12);

  snap::RetentionOptions opts;
  opts.keep_full = 0;
  opts.sketch_every = 2;
  snap::RetentionManager retention(dir.string(), opts, config(), snap_meta());
  ASSERT_TRUE(feed_all(retention, dir, windows).ok());

  EXPECT_EQ(retention.tier0_count(), 0u);
  EXPECT_EQ(retention.summarized_count(), windows.size());
  ASSERT_FALSE(retention.report_paths().empty());
  const std::string report =
      snap::render_windowed_report(retention.report_paths(), small_spec(), config());
  EXPECT_EQ(report, batch_report());
  fs::remove_all(dir);
}

// ---- crash-restart recovery -------------------------------------------------

// A restart scans the directory and rebuilds the tiers: torn files are
// rejected and deleted, a window duplicated below an existing sketch (the
// signature a crash leaves between a sketch rename and its input deletes)
// is dropped instead of double-folded, numbering resumes past recovered
// history, and the recovered report still equals the batch run.
TEST_F(RetentionTest, CrashRestartRecoversTiersAndRejectsTornFiles) {
  const fs::path dir = fresh_dir("entrace_retention_recover");
  const std::vector<WindowShard> windows = make_windows(12);

  snap::RetentionOptions opts;
  opts.keep_full = 2;
  opts.sketch_every = 2;

  std::size_t tier0 = 0, pending = 0, tier1 = 0, tier2 = 0;
  std::uint64_t summarized = 0;
  {
    snap::RetentionManager first(dir.string(), opts, config(), snap_meta());
    ASSERT_TRUE(feed_all(first, dir, windows).ok());
    tier0 = first.tier0_count();
    pending = first.pending_count();
    tier1 = first.tier1_sketch_count();
    tier2 = first.tier2_sketch_count();
    summarized = first.summarized_count();
    EXPECT_EQ(first.next_window_index(), windows.size());
  }  // "crash": the manager goes away, the directory stays

  // Torn sketch and torn window (truncated mid-write, no tmp+rename).
  std::ofstream((dir / snap::sketch_file_name(1, 90, 91)).string()) << "ENTRSNAPgarbage";
  std::ofstream((dir / snap::window_file_name(99)).string()) << "torn";
  // Duplicate: window 0 reappears even though a sketch already covers it.
  {
    const std::string dup = (dir / snap::window_file_name(0)).string();
    snap::write_window_snapshot(dup, snap_meta(), windows[0]);
  }

  snap::RetentionManager second(dir.string(), opts, config(), snap_meta());
  EXPECT_EQ(second.recovery_rejected(), 3u);
  EXPECT_EQ(second.tier0_count(), tier0);
  EXPECT_EQ(second.pending_count(), pending);
  EXPECT_EQ(second.tier1_sketch_count(), tier1);
  EXPECT_EQ(second.tier2_sketch_count(), tier2);
  EXPECT_EQ(second.summarized_count(), summarized);
  EXPECT_EQ(second.next_window_index(), windows.size());
  EXPECT_FALSE(fs::exists(dir / snap::sketch_file_name(1, 90, 91)));
  EXPECT_FALSE(fs::exists(dir / snap::window_file_name(99)));
  EXPECT_FALSE(fs::exists(dir / snap::window_file_name(0)));

  const std::string report =
      snap::render_windowed_report(second.report_paths(), small_spec(), config());
  EXPECT_EQ(report, batch_report());
  fs::remove_all(dir);
}

// A window file of another .esnap format version is not torn: it is
// another build's history.  Recovery stops with an error naming the file
// and both versions, and deletes nothing, not even a torn file beside it.
TEST_F(RetentionTest, RecoveryStopsAtAnotherFormatVersionAndDeletesNothing) {
  const fs::path dir = fresh_dir("entrace_retention_version");
  const std::vector<WindowShard> windows = make_windows(3);
  const std::string path = (dir / snap::window_file_name(0)).string();
  snap::write_window_snapshot(path, snap_meta(), windows[0]);
  const auto read_all = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  };
  std::string bytes = read_all(path);
  ASSERT_GT(bytes.size(), snap::kHeaderSize);
  // Stamped version 5: a directory an earlier build's daemon wrote.
  bytes[snap::kMagicSize] = 5;
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  const std::string torn = (dir / snap::window_file_name(7)).string();
  std::ofstream(torn) << "torn";

  snap::RetentionOptions opts;
  opts.keep_full = 2;
  opts.sketch_every = 2;
  try {
    snap::RetentionManager manager(dir.string(), opts, config(), snap_meta());
    ADD_FAILURE() << "recovered a directory holding a window of another format version";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("format version 5 unsupported"), std::string::npos) << what;
    EXPECT_NE(what.find("knows version " + std::to_string(snap::kFormatVersion)),
              std::string::npos)
        << what;
  }
  EXPECT_EQ(read_all(path), bytes);
  EXPECT_TRUE(fs::exists(torn));
  fs::remove_all(dir);
}

// The fold thread opens a new crash window: its sketch is renamed into
// place, but the inputs are deleted only when the caller next applies the
// fold.  A crash there leaves the sketch and its inputs side by side.  Copy
// the directory at exactly that point: a manager recovered from the copy
// must reject the duplicated inputs, and once the rest of the run is
// checkpointed into it, still report exactly the batch run.
TEST_F(RetentionTest, CrashBetweenSketchRenameAndInputDeleteRecovers) {
  const fs::path dir = fresh_dir("entrace_retention_gap");
  const fs::path copy = fs::temp_directory_path() / "entrace_retention_gap_copy";
  fs::remove_all(copy);
  const std::vector<WindowShard> windows = make_windows(12);

  snap::RetentionOptions opts;
  opts.keep_full = 2;
  opts.sketch_every = 2;
  std::size_t next = 0;
  {
    snap::RetentionManager live(dir.string(), opts, config(), snap_meta());
    // Windows 0 and 1 age once windows 2 and 3 land; that queues the first
    // tier-1 fold, and nothing applies it until the next call.
    for (; next < 4; ++next) ASSERT_TRUE(checkpoint(live, dir, windows[next]).ok());
    EXPECT_EQ(live.pending_count(), 2u);
    EXPECT_EQ(live.sketch_folds(), 0u);
    const fs::path sketch = dir / snap::sketch_file_name(1, 0, 1);
    for (int i = 0; i < 1000 && !fs::exists(sketch); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_TRUE(fs::exists(sketch)) << "the fold thread never wrote " << sketch;
    ASSERT_TRUE(fs::exists(dir / snap::window_file_name(0)));
    ASSERT_TRUE(fs::exists(dir / snap::window_file_name(1)));
    fs::copy(dir, copy);
  }  // the live manager applies its fold on the way out; the copy is frozen

  snap::RetentionManager recovered(copy.string(), opts, config(), snap_meta());
  EXPECT_EQ(recovered.recovery_rejected(), 2u);  // windows 0 and 1
  EXPECT_FALSE(fs::exists(copy / snap::window_file_name(0)));
  EXPECT_FALSE(fs::exists(copy / snap::window_file_name(1)));
  EXPECT_EQ(recovered.tier1_sketch_count(), 1u);
  EXPECT_EQ(recovered.next_window_index(), next);
  for (; next < windows.size(); ++next) {
    ASSERT_TRUE(checkpoint(recovered, copy, windows[next]).ok());
  }
  const std::string report =
      snap::render_windowed_report(recovered.report_paths(), small_spec(), config());
  EXPECT_EQ(report, batch_report());
  fs::remove_all(dir);
  fs::remove_all(copy);
}

// ---- I/O failure surfacing --------------------------------------------------

// Retention runs as root in CI, so chmod tricks do not produce EACCES; the
// failures are provoked structurally instead: a *directory* named
// summary.jsonl makes every summary append fail, and window files that are
// not snapshots make every sketch fold fail on its first input.  Both must
// surface in the AgeResult and the cumulative counter instead of
// disappearing.
TEST_F(RetentionTest, IoFailuresSurfaceInsteadOfVanishing) {
  const fs::path dir = fresh_dir("entrace_retention_ioerr");
  fs::create_directories(dir / "summary.jsonl");  // append target is a dir

  snap::RetentionOptions opts;
  opts.keep_full = 0;  // age immediately
  opts.sketch_every = 2;
  snap::RetentionManager retention(dir.string(), opts, config(), snap_meta());
  const auto add = [&](std::uint64_t index) {
    const fs::path path = dir / snap::window_file_name(index);
    std::ofstream(path.string()) << "not a snapshot";
    snap::WindowSummary s;
    s.index = index;
    s.packets = 7;
    return retention.add_window(s, path.string());
  };

  // Window 1 queues a fold of windows 0 and 1.  By window 3 it has been
  // applied: add_window() waits for a running fold once 2K windows pend.
  std::size_t surfaced = 0;
  for (std::uint64_t i = 0; i < 4; ++i) {
    const snap::AgeResult r = add(i);
    EXPECT_EQ(r.aged, 1u);
    EXPECT_GE(r.io_errors, 1u);  // the failed summary append
    surfaced += r.io_errors;
  }
  EXPECT_GT(surfaced, 4u) << "no failed fold surfaced in an AgeResult";
  EXPECT_EQ(retention.io_errors(), surfaced);
  EXPECT_EQ(retention.sketch_folds(), 0u);

  // Degraded, not dead: the next aging still counts and still reports.
  const snap::AgeResult r = add(4);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(retention.io_errors(), surfaced + r.io_errors);
  retention.report_paths();  // settle: no fold still reads from `dir`
  fs::remove_all(dir);
}

// ---- bounded-disk soak ------------------------------------------------------

// The continuous-operation geometry from the daemon's defaults: >= 128
// windows through keep_full 4 / sketch_every 8 must stay within the disk
// bound of retention.h after every window, settle to at most
// keep_full + (K-1) + K + K files plus the summary — and the fold across
// what remains still reproduces the entire run byte-identically.
TEST_F(RetentionTest, Soak128WindowsBoundedDiskFullHistoryReport) {
  const fs::path dir = fresh_dir("entrace_retention_soak");
  const std::vector<WindowShard> windows = make_windows(128);
  ASSERT_GE(windows.size(), 128u);

  snap::RetentionOptions opts;
  opts.keep_full = 4;
  opts.sketch_every = 8;
  snap::RetentionManager retention(dir.string(), opts, config(), snap_meta());
  // The bound in retention.h holds at any moment — tier 0 and at most 2K
  // aged windows, at most 2K sketch files — so it holds whenever
  // add_window() returns, whatever the fold thread has renamed in by then.
  // (128 windows never bring tier 2 near K sketches, so this run does not
  // reach the bound's worst case: K tier-1 sketches folding into a tier 2
  // of K-1 while 2K aged windows wait.)
  const std::size_t k = opts.sketch_every;
  const std::size_t bound = opts.keep_full + 2 * k + 2 * k;
  for (const WindowShard& w : windows) {
    ASSERT_TRUE(checkpoint(retention, dir, w).ok());
    ASSERT_LE(esnap_count(dir), bound) << "after window " << w.index;
    ASSERT_LT(retention.pending_count(), 2 * k);
  }
  retention.report_paths();  // settle: every due fold applied

  // Settled, every tier is back under its serial bound.
  EXPECT_LE(esnap_count(dir), opts.keep_full + (k - 1) + k + k);
  EXPECT_EQ(retention.tier0_count(), 4u);
  EXPECT_LE(retention.tier1_sketch_count(), 8u);
  EXPECT_LE(retention.tier2_sketch_count(), 8u);
  EXPECT_GE(retention.sketch_folds(), windows.size() / 8);
  EXPECT_EQ(retention.summarized_count(), windows.size() - 4);
  EXPECT_EQ(summary_lines(retention), windows.size() - 4);

  // /report's contract: the whole 128-window history, not just tier 0.
  const std::string report =
      snap::render_windowed_report(retention.report_paths(), small_spec(), config());
  EXPECT_EQ(report, batch_report());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace entrace
