#include "snapshot/retention.h"

#include <cstdio>
#include <cstring>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace entrace::snapshot {

namespace {

namespace fs = std::filesystem;

// Fold durations from sub-millisecond tier-1 folds at test scale to
// multi-second tier-2 compactions of a long run.
std::vector<double> fold_seconds_bounds() {
  return {0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0};
}

// Return the fold thread's freed heap pages to the system (see the memory
// note in retention.h).  No-op where the allocator has no such call.
void trim_heap() {
#if defined(__GLIBC__)
  ::malloc_trim(0);
#endif
}

// "window-00000042.esnap" -> 42.
bool parse_window_file(const std::string& name, std::uint64_t& index) {
  unsigned long long v = 0;
  int consumed = 0;
  if (std::sscanf(name.c_str(), "window-%8llu.esnap%n", &v, &consumed) != 1) return false;
  if (static_cast<std::size_t>(consumed) != name.size()) return false;
  index = v;
  return true;
}

// "sketch1-00000000-00000007.esnap" -> tier 1, [0, 7].
bool parse_sketch_file(const std::string& name, int& tier, std::uint64_t& first,
                       std::uint64_t& last) {
  int t = 0;
  unsigned long long a = 0, b = 0;
  int consumed = 0;
  if (std::sscanf(name.c_str(), "sketch%d-%8llu-%8llu.esnap%n", &t, &a, &b, &consumed) != 3) {
    return false;
  }
  if (static_cast<std::size_t>(consumed) != name.size()) return false;
  if ((t != 1 && t != 2) || a > b) return false;
  tier = t;
  first = a;
  last = b;
  return true;
}

std::uint64_t file_size_or_zero(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t n = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

// Extract the "window":N field of a summary line; nullopt on a torn or
// foreign line (both are skipped — the file is append-only and a crash may
// tear the final line).
std::optional<std::uint64_t> summary_line_index(const std::string& line) {
  static constexpr char kKey[] = "\"window\":";
  const std::size_t at = line.find(kKey);
  if (at == std::string::npos) return std::nullopt;
  const char* s = line.c_str() + at + sizeof(kKey) - 1;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s) return std::nullopt;
  return static_cast<std::uint64_t>(v);
}

// Decode a retained window or sketch file; nullopt when it is torn or
// damaged.  An intact file of another format version is neither: it is
// another build's history, so recovery stops before deleting anything.
std::optional<WindowShard> read_retained(const std::string& path) {
  try {
    return read_window_snapshot(path);
  } catch (const SnapshotError& e) {
    if (e.kind() == SnapshotError::Kind::kOtherVersion) {
      throw std::runtime_error("retention recovery: " + path + ": " + e.what() +
                               "; every retained file is left in place (use a fresh directory)");
    }
    return std::nullopt;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace

std::string to_json_line(const WindowSummary& s) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"window\":" << s.index << ",\"start_ts\":" << s.start_ts
      << ",\"end_ts\":" << s.end_ts << ",\"packets\":" << s.packets
      << ",\"wire_bytes\":" << s.wire_bytes << ",\"connections\":" << s.connections
      << ",\"app_events\":" << s.app_events << ",\"snapshot_bytes\":" << s.snapshot_bytes << "}";
  return out.str();
}

WindowSummary summarize_window(const WindowShard& win) {
  WindowSummary s;
  s.index = win.index;
  s.start_ts = win.start_ts;
  s.end_ts = win.end_ts;
  for (const TraceShard& shard : win.shards) {
    s.packets += shard.total_packets;
    s.wire_bytes += shard.total_wire_bytes;
    s.connections += shard.connections.size();
    s.app_events += shard.events.total();
  }
  return s;
}

std::string sketch_file_name(int tier, std::uint64_t first_window, std::uint64_t last_window) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "sketch%d-%08llu-%08llu.esnap", tier,
                static_cast<unsigned long long>(first_window),
                static_cast<unsigned long long>(last_window));
  return buf;
}

RetentionManager::RetentionManager(std::string dir, const RetentionOptions& opts,
                                   const AnalyzerConfig& /*config*/, const SnapshotMeta& meta)
    : dir_(std::move(dir)),
      summary_path_(dir_ + "/summary.jsonl"),
      keep_full_(opts.keep_full),
      sketch_every_(opts.sketch_every),
      meta_(meta),
      fold_seconds_(fold_seconds_bounds()) {
  if (opts.sketch_every < 2) {
    throw std::invalid_argument("RetentionOptions::sketch_every must be >= 2");
  }
  recover_scan();
  fold_thread_ = std::thread([this] { fold_loop(); });
  // Restore the tier invariants (fewer than K entries waiting at each fold
  // point); a recovered backlog folds right here.
  try {
    AgeResult scrap;
    settle(scrap);
  } catch (...) {
    stop_fold_thread();
    throw;
  }
}

RetentionManager::~RetentionManager() {
  AgeResult scrap;
  collect_fold(scrap, /*wait=*/true);
  stop_fold_thread();
}

void RetentionManager::stop_fold_thread() {
  {
    std::lock_guard<std::mutex> lock(fold_mu_);
    fold_stop_ = true;
  }
  fold_cv_.notify_all();
  fold_thread_.join();
}

AgeResult RetentionManager::add_window(const WindowSummary& summary,
                                       const std::string& esnap_path) {
  AgeResult r;
  // A restarted run re-using an index path replaces the recovered entry —
  // the file on disk was just overwritten, so the old accounting is stale.
  for (auto it = tier0_.begin(); it != tier0_.end(); ++it) {
    if (it->path == esnap_path) {
      bytes_ -= it->summary.snapshot_bytes;
      tier0_.erase(it);
      break;
    }
  }
  tier0_.push_back(Tier0Entry{summary, esnap_path});
  bytes_ += summary.snapshot_bytes;
  age_tier0(r);
  collect_fold(r, /*wait=*/false);
  start_fold();
  // Backpressure, which keeps the disk bound in retention.h: once 2K aged
  // windows are pending, wait for the fold thread instead of letting the
  // backlog grow.
  while (fold_running_ && pending_.size() >= 2 * sketch_every_) {
    if (!collect_fold(r, /*wait=*/true)) break;  // failed: retry next call
    start_fold();
  }
  return r;
}

void RetentionManager::age_tier0(AgeResult& r) {
  while (tier0_.size() > keep_full_) {
    Tier0Entry old = std::move(tier0_.front());
    tier0_.pop_front();
    // Headline tier first: one complete JSON line per aged window.  A crash
    // mid-append tears at most the final line, which readers skip.
    if (!append_summary(old.summary)) note_io_error(r);
    ++summarized_;
    ++r.aged;
    // The window keeps its .esnap until the sketch covering it has been
    // renamed into place (crash safety: no window is ever only-in-flight).
    pending_.push_back(
        FileEntry{old.summary.index, old.summary.index, old.path, old.summary.snapshot_bytes});
  }
}

bool RetentionManager::append_summary(const WindowSummary& s) {
  std::ofstream out(summary_path_, std::ios::app);
  if (!out) return false;
  const std::string line = to_json_line(s) + "\n";
  out << line;
  out.flush();
  if (!out) return false;
  bytes_ += line.size();
  return true;
}

std::unique_ptr<RetentionManager::FoldJob> RetentionManager::next_due_fold() {
  const auto job = [this](std::deque<FileEntry>& src, std::size_t count, int out_tier,
                          std::deque<FileEntry>& dst) {
    auto j = std::make_unique<FoldJob>();
    j->src = &src;
    j->dst = &dst;
    j->inputs.assign(src.begin(), src.begin() + static_cast<std::ptrdiff_t>(count));
    j->out.first = src.front().first;
    j->out.last = src[count - 1].last;
    j->out.path = dir_ + "/" + sketch_file_name(out_tier, j->out.first, j->out.last);
    return j;
  };
  // Tier-2 compaction folds the whole tier into one sketch so it never
  // exceeds sketch_every files no matter how long the run.
  if (tier2_.size() >= sketch_every_) return job(tier2_, tier2_.size(), 2, tier2_);
  if (tier1_.size() >= sketch_every_) return job(tier1_, sketch_every_, 2, tier2_);
  if (pending_.size() >= sketch_every_) return job(pending_, sketch_every_, 1, tier1_);
  return nullptr;
}

void RetentionManager::run_fold(FoldJob& job) const {
  const auto t0 = std::chrono::steady_clock::now();
  {
    WindowFold fold;
    std::size_t i = 0;
    try {
      for (; i < job.inputs.size(); ++i) fold.add(read_window_snapshot(job.inputs[i].path));
    } catch (const std::exception&) {
      job.bad_input = i;
    }
    if (!job.bad_input.has_value()) {
      WindowShard merged;
      merged.shards = fold.take();
      try {
        // Crash-safe tmp+rename inside the writer: the sketch either exists
        // complete or not at all, and the inputs are deleted only after the
        // caller applies it.
        job.out.bytes = write_window_snapshot(job.out.path, meta_, merged);
        job.written = true;
      } catch (const std::exception&) {
        // Inputs intact; the caller counts the error and the fold retries.
      }
    }
  }
  job.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

bool RetentionManager::apply_fold(FoldJob& job, AgeResult& r) {
  fold_seconds_.observe(job.seconds);
  std::deque<FileEntry>& src = *job.src;
  if (job.bad_input.has_value()) {
    // A damaged input would wedge the tier forever if we kept retrying
    // it: drop the entry (its headline line survives in summary.jsonl)
    // and let a later pass fold the survivors.  Only appends reach the
    // tiers while a fold runs, so the inputs are still src's front.
    note_io_error(r);
    const auto bad = src.begin() + static_cast<std::ptrdiff_t>(*job.bad_input);
    std::remove(bad->path.c_str());
    bytes_ -= bad->bytes;
    src.erase(bad);
    return false;
  }
  if (!job.written) {
    note_io_error(r);  // inputs intact; retried on a later call
    return false;
  }
  ++r.folds;
  ++folds_;
  bytes_ += job.out.bytes;
  for (std::size_t i = 0; i < job.inputs.size(); ++i) {
    if (std::remove(src.front().path.c_str()) != 0) note_io_error(r);
    bytes_ -= src.front().bytes;
    src.pop_front();
  }
  job.dst->push_back(std::move(job.out));
  return true;
}

bool RetentionManager::start_fold() {
  if (fold_running_) return true;
  std::unique_ptr<FoldJob> job = next_due_fold();
  if (job == nullptr) return false;
  {
    std::lock_guard<std::mutex> lock(fold_mu_);
    fold_job_ = std::move(job);
    fold_done_ = false;
  }
  fold_cv_.notify_all();
  fold_running_ = true;
  return true;
}

bool RetentionManager::collect_fold(AgeResult& r, bool wait) {
  if (!fold_running_) return true;
  std::unique_ptr<FoldJob> job;
  {
    std::unique_lock<std::mutex> lock(fold_mu_);
    if (!wait && !fold_done_) return true;
    fold_cv_.wait(lock, [this] { return fold_done_; });
    job = std::move(fold_job_);
    fold_done_ = false;
  }
  fold_running_ = false;
  return apply_fold(*job, r);
}

void RetentionManager::settle(AgeResult& r) {
  if (!collect_fold(r, /*wait=*/true)) return;
  while (start_fold()) {
    if (!collect_fold(r, /*wait=*/true)) return;  // failed: retry next call
  }
}

void RetentionManager::fold_loop() {
  std::unique_lock<std::mutex> lock(fold_mu_);
  for (;;) {
    fold_cv_.wait(lock, [this] { return fold_stop_ || (fold_job_ != nullptr && !fold_done_); });
    if (fold_job_ == nullptr || fold_done_) return;  // stopping, nothing in hand
    FoldJob& job = *fold_job_;
    lock.unlock();
    try {
      run_fold(job);
    } catch (...) {
      job.written = false;  // counted by the caller; the fold retries
    }
    trim_heap();
    lock.lock();
    fold_done_ = true;
    fold_cv_.notify_all();
  }
}

void RetentionManager::note_io_error(AgeResult& r) {
  ++r.io_errors;
  ++io_errors_;
}

void RetentionManager::recover_scan() {
  // Headline tier: count recovered summary lines and find the highest
  // summarized window index — windows at or below it already aged out of
  // tier 0 before the crash, so they re-enter as pending, not tier-0
  // (re-summarizing them would duplicate their lines).
  std::optional<std::uint64_t> max_summarized;
  {
    std::ifstream in(summary_path_);
    std::string line;
    while (std::getline(in, line)) {
      const std::optional<std::uint64_t> idx = summary_line_index(line);
      if (!idx.has_value()) continue;  // torn final line or foreign content
      ++summarized_;
      if (!max_summarized.has_value() || *idx > *max_summarized) max_summarized = *idx;
    }
  }
  bytes_ += file_size_or_zero(summary_path_);

  struct WindowCandidate {
    std::uint64_t index = 0;
    std::string path;
    std::uint64_t bytes = 0;
    WindowSummary summary;
  };
  std::vector<WindowCandidate> windows;
  std::vector<FileEntry> tier1, tier2;
  // Deleted once the whole directory has been read: a file of another
  // format version found later must find every file still in place.
  std::vector<std::string> torn;

  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    const std::string path = entry.path().string();
    std::uint64_t index = 0, first = 0, last = 0;
    int tier = 0;
    if (parse_window_file(name, index)) {
      // Validate by decoding (torn checkpoints from a crash are rejected);
      // the decoded shards also rebuild the headline summary the entry
      // needs when it eventually ages (timestamps are not in the format and
      // recover as zero — headline counts stay exact).
      std::optional<WindowShard> w = read_retained(path);
      if (!w.has_value()) {
        torn.push_back(path);
        continue;
      }
      w->index = index;
      WindowCandidate c;
      c.index = index;
      c.path = path;
      c.bytes = file_size_or_zero(path);
      c.summary = summarize_window(*w);
      c.summary.snapshot_bytes = c.bytes;
      windows.push_back(std::move(c));
    } else if (parse_sketch_file(name, tier, first, last)) {
      if (!read_retained(path).has_value()) {  // torn sketch rejected, run continues
        torn.push_back(path);
        continue;
      }
      FileEntry e{first, last, path, file_size_or_zero(path)};
      (tier == 1 ? tier1 : tier2).push_back(std::move(e));
    }
  }
  for (const std::string& path : torn) {
    ++recovery_rejected_;
    std::remove(path.c_str());
  }

  const auto by_first = [](const FileEntry& a, const FileEntry& b) { return a.first < b.first; };
  std::sort(tier1.begin(), tier1.end(), by_first);
  std::sort(tier2.begin(), tier2.end(), by_first);
  std::sort(windows.begin(), windows.end(),
            [](const WindowCandidate& a, const WindowCandidate& b) { return a.index < b.index; });

  // Drop range duplicates: a crash between a sketch's rename and its input
  // deletes leaves both on disk, and folding the inputs again would double-
  // count their windows.  Higher tiers win (they are the rename that
  // committed the fold).
  const auto covered_by = [](const std::vector<FileEntry>& tier, std::uint64_t first,
                             std::uint64_t last) {
    for (const FileEntry& e : tier) {
      if (e.first <= first && last <= e.last) return true;
    }
    return false;
  };
  std::vector<FileEntry> tier1_kept;
  for (FileEntry& e : tier1) {
    if (covered_by(tier2, e.first, e.last)) {
      ++recovery_rejected_;
      std::remove(e.path.c_str());
    } else {
      tier1_kept.push_back(std::move(e));
    }
  }
  for (WindowCandidate& c : windows) {
    if (covered_by(tier2, c.index, c.index) || covered_by(tier1_kept, c.index, c.index)) {
      ++recovery_rejected_;
      std::remove(c.path.c_str());
      continue;
    }
    if (max_summarized.has_value() && c.index <= *max_summarized) {
      pending_.push_back(FileEntry{c.index, c.index, c.path, c.bytes});
    } else {
      tier0_.push_back(Tier0Entry{c.summary, c.path});
    }
    bytes_ += c.bytes;
  }
  for (FileEntry& e : tier1_kept) {
    bytes_ += e.bytes;
    tier1_.push_back(std::move(e));
  }
  for (FileEntry& e : tier2) {
    bytes_ += e.bytes;
    tier2_.push_back(std::move(e));
  }
  AgeResult scrap;
  age_tier0(scrap);
}

std::vector<std::string> RetentionManager::report_paths() {
  AgeResult scrap;
  settle(scrap);
  std::vector<std::string> paths;
  paths.reserve(tier2_.size() + tier1_.size() + pending_.size() + tier0_.size());
  for (const FileEntry& e : tier2_) paths.push_back(e.path);
  for (const FileEntry& e : tier1_) paths.push_back(e.path);
  for (const FileEntry& e : pending_) paths.push_back(e.path);
  for (const Tier0Entry& e : tier0_) paths.push_back(e.path);
  return paths;
}

std::uint64_t RetentionManager::next_window_index() const {
  std::uint64_t next = 0;
  const auto bump = [&next](std::uint64_t last) { next = std::max(next, last + 1); };
  for (const FileEntry& e : tier2_) bump(e.last);
  for (const FileEntry& e : tier1_) bump(e.last);
  for (const FileEntry& e : pending_) bump(e.last);
  for (const Tier0Entry& e : tier0_) bump(e.summary.index);
  return next;
}

}  // namespace entrace::snapshot
