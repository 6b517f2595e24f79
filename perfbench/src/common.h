// Shared plumbing of the repo benchmark: run options, timing statistics,
// output digests, peak-memory probes, the result record every workload
// returns, and the Chrome trace-event span log of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) { return seconds_between(t0, Clock::now()); }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measured time per run
  bool trace = false;     // traced run: per-layer metrics and a span file
  bool smoke = false;     // tiny scale, one measured iteration
  std::string work_dir;   // scratch inputs; created and removed by the run
  std::string trace_out;  // Chrome trace-event JSON (traced run only)
  std::string worker_bin; // entrace_worker, for cluster_loopback
};

// f(item) for every item.
template <typename T, typename F>
std::vector<double> each(const std::vector<T>& items, F f) {
  std::vector<double> v;
  v.reserve(items.size());
  for (const T& item : items) v.push_back(f(item));
  return v;
}

// Median of the samples, averaging the middle pair (0 for none).
double median(std::vector<double> v);
// Nearest-rank percentile, p in [0, 100] (0 for no samples).
double percentile(std::vector<double> v, double p);
// FNV-1a 64 of a rendered report: the output check compares digests.
std::uint64_t digest(std::string_view text);
// Starts a new peak-resident-set interval for this process: returns freed
// heap to the kernel, then resets the kernel's high-water mark (VmHWM)
// through /proc/self/clear_refs.  False when the reset is refused, and the
// peak then still covers the whole process life.
bool reset_peak_rss();
// Peak resident set (VmHWM) of this process since reset_peak_rss, MB.
double self_peak_rss_mb();
// Peak resident set (VmHWM) of another process, MB; 0 when unreadable.
double pid_peak_rss_mb(int pid);
// Summed size of the files, bytes.
std::uint64_t total_file_bytes(const std::vector<std::string>& paths);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload run hands back to main: the metrics of the requested
// mode, the operation tally behind error_rate, and the run context.
struct RunResult {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::string>> context;  // workload-specific

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string value) {
    context.emplace_back(std::move(key), std::move(value));
  }
};

// In-memory span log, written as Chrome trace-event JSON when the run ends
// (opens offline in Perfetto or chrome://tracing).  Every span carries the
// closed-loop iteration it belongs to ("run") and its parent span id.
// Disabled logs record nothing, so untraced runs pay one branch per span.
class TraceLog {
 public:
  explicit TraceLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  // Reserve an id for a span whose children end before it does.
  std::uint64_t reserve_id();

  void record(std::uint64_t id, std::string name, const char* category, Clock::time_point start,
              Clock::time_point end, std::uint64_t parent, std::uint64_t run);

  // Writes {"traceEvents": [...]}; false when the file cannot be written.
  bool write(const std::string& path, const std::vector<std::pair<std::string, std::string>>&
                                          context) const;

  std::size_t size() const;

 private:
  struct Span {
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t run;
    std::string name;
    const char* category;
    double ts_us;
    double dur_us;
    int tid;
  };
  int thread_index_locked();

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::thread::id> threads_;
  std::uint64_t next_id_ = 1;
};

// RAII span: timed from construction to destruction.  Id 0 when the log
// is disabled.
class SpanScope {
 public:
  SpanScope(TraceLog& log, std::string name, const char* category, std::uint64_t parent,
            std::uint64_t run)
      : log_(log),
        id_(log.enabled() ? log.reserve_id() : 0),
        name_(std::move(name)),
        category_(category),
        parent_(parent),
        run_(run),
        start_(Clock::now()) {}
  ~SpanScope() {
    if (id_ != 0) {
      log_.record(id_, std::move(name_), category_, start_, Clock::now(), parent_, run_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  TraceLog& log_;
  std::uint64_t id_;
  std::string name_;
  const char* category_;
  std::uint64_t parent_;
  std::uint64_t run_;
  Clock::time_point start_;
};

inline std::string join_values(const std::vector<double>& v) {  // EXPERIMENT
  std::string s; for (double x : v) { s += std::to_string(x); s += ','; } return s;
}
// Every digit a double carries (non-finite values render as 0).
std::string format_number(double v);
// A JSON string literal, quotes included.
std::string json_string(std::string_view s);

}  // namespace perfbench
