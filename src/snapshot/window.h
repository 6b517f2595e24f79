// Per-window snapshots and their reassembly.
//
// The windowed engine (core/incremental.h) rotates self-contained per-trace
// deltas: every member of a window's TraceShard either sums associatively
// (tallies, interval series, capture quality, semantic metrics), carries
// its own keys for exact reassembly (connections by Connection::open_seq)
// or carries what it refers to by value (events name their connection's
// endpoints, proto/events.h).  A window shard is self-contained by
// construction, so it is expressible in the .esnap format as it is — a
// window checkpoint IS an ordinary snapshot file, written by the same
// crash-safe writer the shard processes use, and readable by the same
// hardened reader.
//
// merge_window_shards() is the inverse of rotation: folding the window
// deltas of a run — in window order — back into one TraceShard per trace
// that is byte-identical to what a one-shot batch run would have produced,
// which is the invariant the daemon's checkpoints are trusted on
// (tests/daemon_test.cc pins it at 1 and 4 threads).  Connection deltas
// upsert by open_seq (a later window's copy of the same connection is its
// cumulative state — last writer wins); events append in window order,
// reproducing the serial emission order.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/incremental.h"
#include "snapshot/format.h"
#include "synth/dataset_spec.h"

namespace entrace::snapshot {

// Canonical checkpoint file name for a rotated window: "window-00000042.esnap".
std::string window_file_name(std::uint64_t index);

// Write one rotated window as an ordinary .esnap snapshot (crash-safe
// tmp+rename, end marker, per-section CRCs).  Shards are encoded in
// trace-index order, so the file round-trips through read_snapshot.
// Returns the bytes written (the retention tier records it).
std::uint64_t write_window_snapshot(const std::string& path, const SnapshotMeta& meta,
                                    const WindowShard& window);

// Read a window checkpoint back into a WindowShard (shards in trace-index
// order; index/start/end are not part of the .esnap format — the caller
// supplies window order, e.g. from sorted file names).
WindowShard read_window_snapshot(const std::string& path);

// The incremental form of merge_window_shards: windows are added one at a
// time, in window order, so a caller can decode a checkpoint, fold it in
// and drop it before decoding the next — peak memory is the accumulated
// result plus one window, not every window at once.  A fold takes no
// settings: the flow timeouts and scanner thresholds are constants, so it
// rebuilds exactly the tables and detectors the analyzer produced.
class WindowFold {
 public:
  // Fold the next window in (consumes its events; connections are copied).
  void add(WindowShard&& window);

  // One TraceShard per trace seen, trace-index order.  Call once.
  std::vector<TraceShard> take();

 private:
  std::vector<TraceShard> out_;
  // Per trace: open_seq -> reassembled connection index.
  std::vector<std::unordered_map<std::uint64_t, std::size_t>> by_seq_;
};

// Fold window deltas (in window order) back into one TraceShard per trace,
// byte-identical to a one-shot batch run over the same packets.  Consumes
// the windows (events move out, connections copy into each trace's vector).
// `config` is unused: the fold has no settings of its own.
std::vector<TraceShard> merge_window_shards(std::vector<WindowShard>&& windows,
                                            const AnalyzerConfig& config);

// Read the given window checkpoints (in window order — oldest first), fold
// them via merge_window_shards, and render the full paper report over the
// result.  Sketch files (snapshot/retention.h) are ordinary window
// snapshots, so handing RetentionManager::report_paths() here folds the
// daemon's *entire* retained history — tier-2 and tier-1 sketches plus the
// tier-0 windows — and, because the fold is associative, reproduces the
// one-shot batch report byte-identically when the paths cover the full run.
// Throws SnapshotError / std::runtime_error when a checkpoint is unreadable
// (e.g. it aged out between listing and reading).
std::string render_windowed_report(const std::vector<std::string>& window_paths,
                                   const DatasetSpec& spec, const AnalyzerConfig& config);

}  // namespace entrace::snapshot
