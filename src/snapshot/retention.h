// Window checkpoint retention: tiered downsampling for endless operation.
//
// A daemon that checkpoints every rotated window would fill the disk at a
// rate proportional to traffic; keeping only the last K windows would lose
// all history.  The middle ground is the tiering scheme time-series engines
// use (full-resolution recent pages, downsampled older ones) — applied to
// window snapshots, with the twist that our "downsample" is the
// deterministic shard fold itself (snapshot/window.h), so aged data keeps
// its *sketches* (IntervalSeries bins, CDF samples, anomaly and capture-
// quality detail, connection state keyed by open_seq) instead of collapsing
// to headline counts:
//
//   tier 0: the most recent `keep_full` windows stay as complete .esnap
//           files (full per-window resolution, one file per window);
//   tier 1: windows aged out of tier 0 are folded K at a time
//           (K = `sketch_every`, via merge_window_shards) into one *sketch*
//           .esnap covering K windows — an ordinary snapshot file, readable
//           by the same hardened reader;
//   tier 2: when K tier-1 sketches accumulate they fold into one coarser
//           sketch covering K*K windows; when K tier-2 sketches accumulate
//           they compact into a single sketch, so the tier never exceeds K
//           files no matter how long the run;
//   headline: every window aged out of tier 0 also appends one JSON line to
//           `summary.jsonl` — the final, cheapest tier, append-only and
//           crash-tolerant (a torn final line is ignorable).
//
// Because sketches reuse the deterministic shard-fold contract, folding
// report_paths() — tier-2 sketches, then tier-1 sketches, then aged-but-
// unfolded windows, then tier-0 — reproduces the one-shot batch report
// byte-identically (tests/retention_test.cc pins it), whichever way the
// windows happen to be grouped into sketches.
//
// Folds run off the caller's thread.  The manager owns one fold
// thread; add_window() hands it the next due fold and returns.  The thread
// decodes the inputs one at a time into a WindowFold and writes the sketch
// tmp+rename, touching no tier state.  The thread that calls add_window(),
// report_paths() or the destructor applies a finished fold — the sketch
// joins its tier, and only then are the fold's inputs unlinked — so every
// tier, counter and unlink belongs to the caller, who serializes its own
// calls.  One fold runs at a time; a fold that becomes due while another
// runs starts once that one has been applied.  Tiers fold deepest first
// (tier-2 compaction, then tier 1, then pending windows).
//
// Disk bound.  While folds succeed, at most
//     keep_full + 2K + 2K
// .esnap files exist at any moment — the serial bound keep_full + (K-1) +
// K + K plus the K+1 windows that can be written while one fold runs.
// Tier 0 and the aged windows hold at most keep_full + 2K: add_window()
// waits for the running fold once 2K aged windows are pending, so it
// returns with at most 2K-1, and the window written before the next call
// is the 2K-th.  The sketch tiers hold at most 2K files, a running fold's
// renamed output included: K per tier, or, while tier 2 compacts, its K
// inputs and the output with tier 1 empty.  Plus one summary line per
// window ever aged.
//
// Crash safety: sketch files are written tmp+rename by the snapshot writer,
// and a window's .esnap is deleted only after the sketch covering it has
// been renamed into place and applied.  The constructor scans its
// directory and recovers: torn or unreadable sketches are rejected
// (deleted) and the run continues; files whose window range is already
// covered by a higher tier (a crash landed between the sketch rename and
// the input deletes) are dropped so no window is ever folded twice.  An
// intact file of another .esnap format version is not damage: recovery
// throws and deletes nothing, so a format bump needs a fresh directory.
//
// Memory: the fold thread's allocations come from its own malloc arena,
// which keeps freed pages that the caller's thread cannot reuse.  The
// thread returns them to the system after each fold (malloc_trim on
// glibc), so a fold does not raise the process peak the next /report
// render would otherwise have filled from the same pages.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "snapshot/window.h"

namespace entrace::snapshot {

// Headline record: what survives in summary.jsonl after a window ages out
// of tier 0.
struct WindowSummary {
  std::uint64_t index = 0;
  double start_ts = 0.0;
  double end_ts = 0.0;
  std::uint64_t packets = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t connections = 0;  // connection deltas carried by the window
  std::uint64_t app_events = 0;
  std::uint64_t snapshot_bytes = 0;  // size of the aged .esnap
};

std::string to_json_line(const WindowSummary& s);

// Headline tallies of a window delta (index/start/end copied from `win`;
// snapshot_bytes left for the caller, who knows the encoded size).  Shared
// by the daemon's checkpoint path and the recovery scan.
WindowSummary summarize_window(const WindowShard& win);

// Canonical sketch file name: "sketch1-00000000-00000007.esnap" covers
// windows [first, last] at tier 1.  Sketches are ordinary .esnap files; the
// name carries the tier and the covered window range, which is how the
// recovery scan reconstructs tier state.
std::string sketch_file_name(int tier, std::uint64_t first_window, std::uint64_t last_window);

struct RetentionOptions {
  std::size_t keep_full = 4;     // tier-0 window count (0 = age immediately)
  std::size_t sketch_every = 8;  // K: windows per tier-1 fold, sketches per
                                 // tier-2 fold/compaction; must be >= 2
};

// What one add_window() call did.  io_errors is the per-call count; the
// manager also keeps a cumulative io_errors() for the metrics exposition,
// which also counts failures surfaced by report_paths() and the destructor.
struct AgeResult {
  std::size_t aged = 0;       // windows that left tier 0 this call
  std::size_t folds = 0;      // sketch folds applied during this call
  std::size_t io_errors = 0;  // failed appends/removes/sketch folds surfaced
  bool ok() const { return io_errors == 0; }
};

class RetentionManager {
 public:
  // `dir` is the checkpoint directory; `meta` stamps the sketch .esnap
  // files.  `config` is unused: a sketch fold has no settings of its own.
  // Scans `dir` and recovers prior state: readable window/sketch files
  // re-enter their tiers, torn files are rejected, and range duplicates
  // from a crash mid-fold are dropped.  Throws std::invalid_argument when
  // opts.sketch_every < 2, and std::runtime_error naming the file and both
  // versions, with every file left in place, when a window or sketch file
  // is of another format version.
  RetentionManager(std::string dir, const RetentionOptions& opts, const AnalyzerConfig& config,
                   const SnapshotMeta& meta);

  // Waits for the running fold and applies it, then stops the fold thread.
  // Folds still due are left to the next run's recovery scan.
  ~RetentionManager();
  RetentionManager(const RetentionManager&) = delete;
  RetentionManager& operator=(const RetentionManager&) = delete;

  // Register a freshly checkpointed window, age anything beyond keep_full
  // into the summary and pending tiers, apply a fold the fold thread has
  // finished, and start the next due one.  I/O failures (a full disk, an
  // unwritable summary file, a failed fold) are surfaced in the result and
  // in io_errors() instead of being swallowed; the manager keeps running
  // degraded, and a failed fold retries on a later call.
  AgeResult add_window(const WindowSummary& summary, const std::string& esnap_path);

  std::size_t tier0_count() const { return tier0_.size(); }

  // All retained .esnap files in window-chronological order: tier-2
  // sketches, tier-1 sketches, aged-but-unfolded windows, then tier-0.
  // Feeding this list to render_windowed_report folds the *entire* retained
  // history — the daemon's /report — not just the newest keep_full windows.
  // Settles first: waits for the running fold and runs every fold that is
  // due, so no listed file is one a fold is about to delete.  The files
  // stay until the caller's next add_window().
  std::vector<std::string> report_paths();

  // The counters below describe the tiers as of the last applied fold.
  // Windows aged to the headline tier (== summary.jsonl lines this manager
  // has written or recovered).
  std::uint64_t summarized_count() const { return summarized_; }
  // The fold backlog: aged windows that no applied sketch covers yet
  // (including those the running fold is folding).
  std::size_t pending_count() const { return pending_.size(); }
  std::size_t tier1_sketch_count() const { return tier1_.size(); }
  std::size_t tier2_sketch_count() const { return tier2_.size(); }
  std::uint64_t sketch_folds() const { return folds_; }
  // Wall time of each applied fold on the fold thread (seconds).
  const obs::Histogram& fold_seconds() const { return fold_seconds_; }
  // Tracked bytes across every tier (window files, sketches, summary
  // lines) — the `retention.bytes` gauge.
  std::uint64_t bytes_retained() const { return bytes_; }
  // Cumulative I/O failures (summary appends, file removes, sketch folds).
  std::uint64_t io_errors() const { return io_errors_; }
  // Files the recovery scan rejected: torn/unreadable, or range duplicates
  // left by a crash mid-fold.
  std::uint64_t recovery_rejected() const { return recovery_rejected_; }

  // 1 + the highest window index known to any tier (0 on a fresh
  // directory).  A restarted daemon offsets its new window indices by this
  // so recovered history and new windows share one monotonic sequence.
  std::uint64_t next_window_index() const;

  const std::string& summary_path() const { return summary_path_; }

 private:
  struct Tier0Entry {
    WindowSummary summary;
    std::string path;
  };
  // An aged window or a sketch: the half-inclusive window range [first,
  // last] it covers, its path, and its on-disk size.
  struct FileEntry {
    std::uint64_t first = 0;
    std::uint64_t last = 0;
    std::string path;
    std::uint64_t bytes = 0;
  };

  // One sketch fold: the first inputs.size() entries of *src fold into one
  // sketch file that joins *dst.  The fold thread reads only `inputs` and
  // `out.path` and writes the result fields; the tiers stay the caller's.
  struct FoldJob {
    std::deque<FileEntry>* src = nullptr;
    std::deque<FileEntry>* dst = nullptr;
    std::vector<FileEntry> inputs;  // copies of src's front entries
    FileEntry out;                  // range and path; bytes once written
    std::optional<std::size_t> bad_input;  // index of an unreadable input
    bool written = false;
    double seconds = 0.0;
  };

  void age_tier0(AgeResult& r);
  bool append_summary(const WindowSummary& s);
  // The next due fold, deepest tier first; null when none is due.
  std::unique_ptr<FoldJob> next_due_fold();
  // Decode, merge and write one sketch.  Runs on the fold thread.
  void run_fold(FoldJob& job) const;
  // Move a finished fold's sketch into its tier, then delete its inputs.
  // Returns false (with io_errors counted) when an input was unreadable
  // (the bad entry is dropped so it cannot wedge the tier) or the output
  // could not be written (inputs kept; retried on a later call).
  bool apply_fold(FoldJob& job, AgeResult& r);
  // Hand the next due fold to the fold thread; false when none is due.
  bool start_fold();
  // Apply the running fold if it has finished (or, with `wait`, once it
  // has).  Returns false only when it applied a fold that failed.
  bool collect_fold(AgeResult& r, bool wait);
  // Wait for the running fold, then run every due fold to completion.
  void settle(AgeResult& r);
  void fold_loop();
  void stop_fold_thread();
  void note_io_error(AgeResult& r);
  void recover_scan();

  std::string dir_;
  std::string summary_path_;
  std::size_t keep_full_;
  std::size_t sketch_every_;
  SnapshotMeta meta_;

  std::deque<Tier0Entry> tier0_;
  std::deque<FileEntry> pending_;  // aged, awaiting a tier-1 fold
  std::deque<FileEntry> tier1_;
  std::deque<FileEntry> tier2_;
  std::uint64_t summarized_ = 0;
  std::uint64_t folds_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t io_errors_ = 0;
  std::uint64_t recovery_rejected_ = 0;
  obs::Histogram fold_seconds_;
  bool fold_running_ = false;  // caller's view: a job was handed over

  // Hand-off slot between the caller and the fold thread.
  std::mutex fold_mu_;
  std::condition_variable fold_cv_;
  std::unique_ptr<FoldJob> fold_job_;  // guarded by fold_mu_
  bool fold_done_ = false;             // guarded by fold_mu_
  bool fold_stop_ = false;             // guarded by fold_mu_
  std::thread fold_thread_;            // declared last
};

}  // namespace entrace::snapshot
