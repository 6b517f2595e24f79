#include "snapshot/window.h"

#include <cstdio>

#include "core/report.h"
#include "snapshot/reader.h"
#include "snapshot/writer.h"

namespace entrace::snapshot {

std::string window_file_name(std::uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "window-%08llu.esnap",
                static_cast<unsigned long long>(index));
  return buf;
}

std::uint64_t write_window_snapshot(const std::string& path, const SnapshotMeta& meta,
                                    const WindowShard& window) {
  SnapshotWriter writer(path, meta);
  for (std::size_t i = 0; i < window.shards.size(); ++i) {
    writer.add_shard(static_cast<std::uint32_t>(i), window.shards[i]);
  }
  writer.close();
  return writer.bytes_written();
}

WindowShard read_window_snapshot(const std::string& path) {
  Snapshot snap = read_snapshot(path);
  WindowShard win;
  win.shards.reserve(snap.shards.size());
  for (SnapshotShard& s : snap.shards) win.shards.push_back(std::move(s.shard));
  return win;
}

void WindowFold::add(WindowShard&& window) {
  // A trace's identity comes from the first window that carries it.
  while (out_.size() < window.shards.size()) {
    const TraceShard& first = window.shards[out_.size()];
    TraceShard& dst = out_.emplace_back();
    dst.load.trace_name = first.load.trace_name;
    by_seq_.emplace_back();
  }
  for (std::size_t t = 0; t < window.shards.size(); ++t) {
    TraceShard& dst = out_[t];
    TraceShard& ws = window.shards[t];
    // open_seq -> reassembled connection index.  Windows partition time and
    // open_seq is assigned in creation order, so first appearances arrive
    // already in open_seq order: the vector reassembles in exact batch
    // order without a final sort.
    std::unordered_map<std::uint64_t, std::size_t>& by_seq = by_seq_[t];
    std::vector<Connection>& conns = dst.connections;
    // Across windows the detector merges into the trace's own and the load
    // series sums.
    dst.detector.merge(ws.detector);
    dst.load.merge(ws.load);

    // Upsert this window's connection deltas: a delta is the connection's
    // cumulative state as of the window end, so the latest window's copy
    // wins wholesale.  Events carry their endpoints and append as they are.
    for (const Connection& c : ws.connections) {
      const auto [it, fresh] = by_seq.try_emplace(c.open_seq, conns.size());
      if (fresh) {
        conns.push_back(c);
      } else {
        conns[it->second] = c;
      }
    }
    dst.merge_from(std::move(ws));
  }
}

std::vector<TraceShard> WindowFold::take() {
  by_seq_.clear();
  return std::move(out_);
}

std::vector<TraceShard> merge_window_shards(std::vector<WindowShard>&& windows,
                                            const AnalyzerConfig& /*config*/) {
  WindowFold fold;
  for (WindowShard& w : windows) fold.add(std::move(w));
  return fold.take();
}

std::string render_windowed_report(const std::vector<std::string>& window_paths,
                                   const DatasetSpec& spec, const AnalyzerConfig& config) {
  // Window order is the caller's path order; each checkpoint is folded in
  // and released before the next is decoded.
  WindowFold fold;
  for (const std::string& path : window_paths) fold.add(read_window_snapshot(path));
  DatasetAnalysis analysis = fold_shards(spec.name, fold.take(), config);
  const report::ReportInput input{&spec, &analysis};
  return report::full_report({&input, 1});
}

}  // namespace entrace::snapshot
