#include "util/cli.h"

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>

namespace entrace::cli {

double env_scale(double fallback) {
  const char* s = std::getenv("ENTRACE_SCALE");
  if (s == nullptr) return fallback;
  const double v = std::atof(s);
  return v > 0 && std::isfinite(v) ? v : fallback;
}

int env_int(const char* name, int fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr) return fallback;
  const int v = std::atoi(s);
  return v > 0 ? v : fallback;
}

bool is_dataset_name(const std::string& s) {
  return s.size() == 2 && s[0] == 'D' && s[1] >= '0' && s[1] <= '4';
}

bool parse_scale(const std::string& s, double& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || !(v > 0) || !std::isfinite(v)) return false;
  out = v;
  return true;
}

bool parse_uint(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s[0] < '0' || s[0] > '9') return false;  // no signs, no spaces
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size() || errno == ERANGE) return false;
  out = static_cast<std::uint64_t>(v);
  return true;
}

bool parse_nonneg_double(const std::string& s, double& out) {
  if (s.empty() || s[0] == '-' || s[0] == '+' || s[0] == ' ') return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || !std::isfinite(v) || v < 0) return false;
  out = v;
  return true;
}

bool parse_index_range(const std::string& s, std::size_t& lo, std::size_t& hi) {
  const std::size_t colon = s.find(':');
  if (colon == std::string::npos) return false;
  std::uint64_t a = 0, b = 0;
  if (!parse_uint(s.substr(0, colon), a) || !parse_uint(s.substr(colon + 1), b) || a >= b) {
    return false;
  }
  lo = static_cast<std::size_t>(a);
  hi = static_cast<std::size_t>(b);
  return true;
}

int parse_dataset_args(std::span<const char* const> args, DatasetArgs& out, std::string* error) {
  int consumed = 0;
  bool saw_name = false, saw_scale = false;
  for (const char* arg : args) {
    const std::string s = arg;
    if (!saw_name && is_dataset_name(s)) {
      out.name = s;
      saw_name = true;
      ++consumed;
      continue;
    }
    double scale = 0.0;
    if (!saw_scale && parse_scale(s, scale)) {
      out.scale = scale;
      saw_scale = true;
      ++consumed;
      continue;
    }
    if (consumed < 2) {
      if (error != nullptr) {
        *error = "'" + s + "' is neither a dataset name (D0..D4) nor a positive scale";
      }
      return -1;
    }
    break;
  }
  return consumed;
}

}  // namespace entrace::cli
