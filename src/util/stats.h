// Streaming and empirical statistics used by every analysis module.
//
// The paper reports two kinds of statistical summaries: scalar aggregates
// (counts, fractions, medians) and empirical CDFs (the bulk of its figures).
// EmpiricalCdf stores the samples and answers quantile / fraction-below
// queries, and can be rendered as a text figure by cdf_plot.h;
// BreakdownCounter tallies keyed counts and bytes, and IntervalSeries bins a
// value per second.
#pragma once

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace entrace {

// Retains samples; sorts lazily on first query.
//
// Thread safety: add()/add_n() require exclusive access (like any mutable
// container), but all const accessors are safe to call concurrently — the
// lazy sort uses double-checked locking (atomic `sorted_` flag + internal
// mutex), so many reader threads querying the same frozen CDF never race.
// Previously ensure_sorted() mutated `samples_` unguarded from const
// methods, a genuine data race under concurrent report rendering; the TSan
// regression lives in tests/telemetry_test.cc.
//
// Quantile convention (pinned by tests/util_test.cc):
//   - empty CDF        -> quantile/min/max/mean all return 0.0
//   - one sample       -> every quantile returns that sample
//   - q outside [0,1]  -> clamped
//   - otherwise        -> linear interpolation between adjacent order
//                         statistics at rank q*(n-1) (type-7 / NumPy
//                         default), so quantile(0) == min, quantile(1) == max.
class EmpiricalCdf {
 public:
  EmpiricalCdf() = default;
  EmpiricalCdf(const EmpiricalCdf& other);
  EmpiricalCdf(EmpiricalCdf&& other) noexcept;
  EmpiricalCdf& operator=(const EmpiricalCdf& other);
  EmpiricalCdf& operator=(EmpiricalCdf&& other) noexcept;

  void add(double x);
  void add_n(double x, std::size_t n);

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  // Quantile in [0, 1]; q=0.5 is the median.  Returns 0 for empty CDFs.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double min() const;
  double max() const;
  double mean() const;

  // Fraction of samples <= x.
  double fraction_below(double x) const;

  // Access to the sorted samples.
  const std::vector<double>& sorted() const;

 private:
  void ensure_sorted() const;

  mutable std::vector<double> samples_;
  mutable std::atomic<bool> sorted_{false};
  mutable std::mutex sort_mu_;
};

// Counter keyed by string — used for "breakdown" tables (command mixes,
// content types, request types ...).  Tracks both an event count and a
// byte-volume per key, since nearly every paper table reports both.
class BreakdownCounter {
 public:
  void add(const std::string& key, std::uint64_t count = 1, std::uint64_t bytes = 0);

  std::uint64_t count(const std::string& key) const;
  std::uint64_t bytes(const std::string& key) const;
  std::uint64_t total_count() const { return total_count_; }
  std::uint64_t total_bytes() const { return total_bytes_; }

  double count_fraction(const std::string& key) const;
  double bytes_fraction(const std::string& key) const;

  // Keys sorted by descending count.
  std::vector<std::string> keys_by_count() const;

  const std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>& entries() const {
    return entries_;
  }

 private:
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> entries_;
  std::uint64_t total_count_ = 0;
  std::uint64_t total_bytes_ = 0;
};

// Time-series binning by whole seconds: accumulates a value (e.g. bits)
// into one bin per second, keyed by the floor of the timestamp.  The §6
// utilization analysis reads coarser timescales by summing these bins
// (LoadAnalysis::peak_mbps).  The bins are stored sparsely, since
// timestamps are untrusted input: a second with no bin holds zero, and no
// reader expands the gaps (LoadAnalysis counts them instead).
class IntervalSeries {
 public:
  IntervalSeries() = default;

  // Copy/move must not carry the hot-bin cache across: the cached slot
  // points into *this* object's map nodes (stable under insert, but a
  // copied map owns different nodes).
  IntervalSeries(const IntervalSeries& other) : bins_(other.bins_) {}
  IntervalSeries(IntervalSeries&& other) noexcept : bins_(std::move(other.bins_)) {
    other.invalidate_cache();
  }
  IntervalSeries& operator=(const IntervalSeries& other) {
    bins_ = other.bins_;
    invalidate_cache();
    return *this;
  }
  IntervalSeries& operator=(IntervalSeries&& other) noexcept {
    bins_ = std::move(other.bins_);
    invalidate_cache();
    other.invalidate_cache();
    return *this;
  }

  // Hot path inlined: repeated adds to the same bin (the common case — the
  // per-packet utilization series advances through bins monotonically) cost
  // one floor and one pointer add, no map lookup.
  void add(double t, double value) {
    const auto bin = static_cast<std::int64_t>(std::floor(t));
    if (cached_slot_ != nullptr && cached_bin_ == bin) {
      *cached_slot_ += value;
      return;
    }
    add_new_bin(bin, value);
  }

  // Fold another series into this one (bins sum; the covered range is the
  // union of both ranges).
  void merge(const IntervalSeries& other);

  bool empty() const { return bins_.empty(); }

  // Snapshot support (src/snapshot): the raw sparse bins, and exact
  // reconstruction from them.
  const std::map<std::int64_t, double>& bins() const { return bins_; }
  void restore_bins(std::map<std::int64_t, double> bins) {
    bins_ = std::move(bins);
    invalidate_cache();
  }

 private:
  void invalidate_cache() { cached_slot_ = nullptr; }
  // Cold path of add(): first touch of a bin (map insert).
  void add_new_bin(std::int64_t bin, double value);

  std::map<std::int64_t, double> bins_;
  // Hot-bin cache: traffic timestamps are near-monotone, so consecutive
  // add() calls overwhelmingly hit the same bin.  Map nodes are
  // pointer-stable under insert, so the slot stays valid until the map
  // itself is replaced (copy/move/restore reset it).
  std::int64_t cached_bin_ = 0;
  double* cached_slot_ = nullptr;
};

}  // namespace entrace
