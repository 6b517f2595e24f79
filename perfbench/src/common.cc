#include "common.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 != 0 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

std::uint64_t digest(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

double peak_rss_mb(const std::string& proc) {
  std::ifstream status("/proc/" + proc + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

bool reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";  // 5: reset the peak RSS
  clear.flush();
  return static_cast<bool>(clear);
}

double self_peak_rss_mb() { return peak_rss_mb("self"); }

double pid_peak_rss_mb(int pid) { return peak_rss_mb(std::to_string(pid)); }

std::uint64_t total_file_bytes(const std::vector<std::string>& paths) {
  std::uint64_t total = 0;
  for (const std::string& p : paths) {
    std::error_code ec;
    const auto n = std::filesystem::file_size(p, ec);
    if (!ec) total += n;
  }
  return total;
}

std::string format_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::uint64_t TraceLog::reserve_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

int TraceLog::thread_index_locked() {
  const std::thread::id self = std::this_thread::get_id();
  const auto it = std::find(threads_.begin(), threads_.end(), self);
  if (it != threads_.end()) return static_cast<int>(it - threads_.begin());
  threads_.push_back(self);
  return static_cast<int>(threads_.size() - 1);
}

void TraceLog::record(std::uint64_t id, std::string name, const char* category,
                      Clock::time_point start, Clock::time_point end, std::uint64_t parent,
                      std::uint64_t run) {
  if (!enabled_) return;
  const double ts = std::chrono::duration<double, std::micro>(start - epoch_).count();
  const double dur = std::chrono::duration<double, std::micro>(end - start).count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({id, parent, run, std::move(name), category, ts, dur, thread_index_locked()});
}

std::size_t TraceLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

bool TraceLog::write(const std::string& path,
                     const std::vector<std::pair<std::string, std::string>>& context) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
  for (std::size_t i = 0; i < context.size(); ++i) {
    out << (i ? "," : "") << json_string(context[i].first) << ":"
        << json_string(context[i].second);
  }
  out << "},\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char times[96];
    std::snprintf(times, sizeof(times), "\"ts\":%.3f,\"dur\":%.3f", s.ts_us, s.dur_us);
    out << (i ? ",\n" : "") << "{\"name\":" << json_string(s.name)
        << ",\"cat\":" << json_string(s.category) << ",\"ph\":\"X\"," << times
        << ",\"pid\":1,\"tid\":" << s.tid << ",\"args\":{\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"run\":" << s.run << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
