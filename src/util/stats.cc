#include "util/stats.h"

#include <algorithm>

namespace entrace {

EmpiricalCdf::EmpiricalCdf(const EmpiricalCdf& other) {
  std::lock_guard<std::mutex> lk(other.sort_mu_);
  samples_ = other.samples_;
  sorted_.store(other.sorted_.load(std::memory_order_relaxed), std::memory_order_relaxed);
}

EmpiricalCdf::EmpiricalCdf(EmpiricalCdf&& other) noexcept {
  std::lock_guard<std::mutex> lk(other.sort_mu_);
  samples_ = std::move(other.samples_);
  sorted_.store(other.sorted_.load(std::memory_order_relaxed), std::memory_order_relaxed);
}

EmpiricalCdf& EmpiricalCdf::operator=(const EmpiricalCdf& other) {
  if (this == &other) return *this;
  std::scoped_lock lk(sort_mu_, other.sort_mu_);
  samples_ = other.samples_;
  sorted_.store(other.sorted_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  return *this;
}

EmpiricalCdf& EmpiricalCdf::operator=(EmpiricalCdf&& other) noexcept {
  if (this == &other) return *this;
  std::scoped_lock lk(sort_mu_, other.sort_mu_);
  samples_ = std::move(other.samples_);
  sorted_.store(other.sorted_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  return *this;
}

void EmpiricalCdf::add(double x) {
  samples_.push_back(x);
  sorted_.store(false, std::memory_order_relaxed);
}

void EmpiricalCdf::add_n(double x, std::size_t n) {
  samples_.insert(samples_.end(), n, x);
  sorted_.store(false, std::memory_order_relaxed);
}

// Double-checked lazy sort: concurrent const readers are common once report
// code fans out across datasets, so the sort must happen exactly once and
// later readers must observe the sorted vector (release/acquire pairing).
void EmpiricalCdf::ensure_sorted() const {
  if (sorted_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lk(sort_mu_);
  if (sorted_.load(std::memory_order_relaxed)) return;
  std::sort(samples_.begin(), samples_.end());
  sorted_.store(true, std::memory_order_release);
}

double EmpiricalCdf::quantile(double q) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank with linear interpolation between adjacent order statistics.
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double EmpiricalCdf::min() const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  return samples_.front();
}

double EmpiricalCdf::max() const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  return samples_.back();
}

double EmpiricalCdf::mean() const {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

double EmpiricalCdf::fraction_below(double x) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) / static_cast<double>(samples_.size());
}

const std::vector<double>& EmpiricalCdf::sorted() const {
  ensure_sorted();
  return samples_;
}

void BreakdownCounter::add(const std::string& key, std::uint64_t count, std::uint64_t bytes) {
  auto& e = entries_[key];
  e.first += count;
  e.second += bytes;
  total_count_ += count;
  total_bytes_ += bytes;
}

std::uint64_t BreakdownCounter::count(const std::string& key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? 0 : it->second.first;
}

std::uint64_t BreakdownCounter::bytes(const std::string& key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? 0 : it->second.second;
}

double BreakdownCounter::count_fraction(const std::string& key) const {
  return total_count_ == 0 ? 0.0
                           : static_cast<double>(count(key)) / static_cast<double>(total_count_);
}

double BreakdownCounter::bytes_fraction(const std::string& key) const {
  return total_bytes_ == 0 ? 0.0
                           : static_cast<double>(bytes(key)) / static_cast<double>(total_bytes_);
}

std::vector<std::string> BreakdownCounter::keys_by_count() const {
  std::vector<std::string> keys;
  keys.reserve(entries_.size());
  for (const auto& [k, v] : entries_) keys.push_back(k);
  std::sort(keys.begin(), keys.end(), [this](const std::string& a, const std::string& b) {
    const auto ca = count(a), cb = count(b);
    if (ca != cb) return ca > cb;
    return a < b;
  });
  return keys;
}

void IntervalSeries::add_new_bin(std::int64_t bin, double value) {
  cached_bin_ = bin;
  cached_slot_ = &bins_[bin];
  *cached_slot_ += value;
}

void IntervalSeries::merge(const IntervalSeries& other) {
  for (const auto& [bin, value] : other.bins_) bins_[bin] += value;
}

}  // namespace entrace
