// Runtime telemetry: a low-overhead metrics registry for the pipeline's
// own behavior.
//
// The paper's methodology is measurement; this module turns the same lens
// on the pipeline itself.  Every layer records what it did — packets pulled
// from sources, decoder verdicts, flow-table churn, application events,
// snapshot I/O, thread-pool scheduling — into named metrics so a run can be
// monitored (human table appended to the report, machine-readable JSON /
// Prometheus text via --metrics-out) and regressions in the pipeline's own
// accounting become visible.
//
// Two metric classes, kept strictly apart:
//
//   kSemantic  facts about the *dataset* (packet counts, connection churn,
//              anomaly tallies).  Deterministic by contract: the same input
//              yields byte-identical values at 1 or N threads and for any
//              shard partition (asserted by tests/telemetry_test.cc).  Only
//              these appear in report output and in .esnap snapshots.
//   kTiming    facts about the *run* (stage wall-clock, thread-pool queue
//              depth, snapshot encode/decode bytes).  Inherently process-
//              and scheduling-dependent; excluded from determinism
//              assertions and from report/snapshot output.
//
// Concurrency model mirrors the analyzer's TraceShard pattern: a Registry
// is single-threaded and lock-free; each per-trace job owns one, and shards
// fold deterministically via merge() (counters and histogram buckets sum,
// gauges sum).  There is no global registry and no atomics on the hot path.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace entrace::obs {

enum class MetricClass : std::uint8_t { kSemantic, kTiming };
enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

const char* to_string(MetricClass c);
const char* to_string(MetricKind k);

// Monotonic event count.  merge() sums.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }
  void merge(const Counter& other) { value_ += other.value_; }

 private:
  std::uint64_t value_ = 0;
};

// Point-in-time or accumulated scalar (seconds, bytes, depths).  Gauges
// fold by summation, so across shards a gauge reads as a total; record
// per-run values once per process if a sum is not meaningful.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double v) { value_ += v; }
  double value() const { return value_; }
  void merge(const Gauge& other) { value_ += other.value_; }

 private:
  double value_ = 0.0;
};

// Fixed-bucket histogram: `bounds` are ascending inclusive upper bounds;
// one implicit overflow bucket collects everything above the last bound.
// Bucket counts are non-cumulative (the Prometheus renderer accumulates).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double x);
  void observe_n(double x, std::uint64_t n);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  const std::vector<double>& bounds() const { return bounds_; }
  // bounds().size() + 1 entries; the last is the overflow bucket.
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }

  // Estimated q-quantile (q in [0, 1]), interpolated linearly inside the
  // bucket that holds it — Prometheus' histogram_quantile() convention: the
  // first bucket starts at 0, and a quantile that falls in the overflow
  // bucket reads as the last bound.  0 when empty.
  double quantile(double q) const;

  // Requires identical bounds (throws std::logic_error otherwise).
  void merge(const Histogram& other);

  // Snapshot support: replace contents with decoded values.  `buckets`
  // must have bounds().size()+1 entries (throws std::logic_error).
  void restore(std::vector<std::uint64_t> buckets, std::uint64_t count, double sum);

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

// One named metric.  Exactly one of the three value members is active,
// selected by `kind`.
struct Metric {
  std::string name;
  MetricClass cls = MetricClass::kSemantic;
  MetricKind kind = MetricKind::kCounter;
  std::string help;

  Counter counter;
  Gauge gauge;
  std::unique_ptr<Histogram> histogram;  // only for kHistogram
};

// Name-keyed collection of metrics.  Registration is idempotent: asking
// for an existing name returns the same handle (and throws std::logic_error
// on a kind or class mismatch — one name, one meaning).  Handles stay valid
// for the registry's lifetime (std::map nodes are stable), so hot code
// registers once and increments through the raw pointer.
//
// Not thread-safe by design — one registry per shard/thread, folded with
// merge() like every other per-trace result.
class Registry {
 public:
  Registry() = default;
  Registry(Registry&&) = default;
  Registry& operator=(Registry&&) = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* counter(std::string_view name, MetricClass cls, std::string_view help = "");
  Gauge* gauge(std::string_view name, MetricClass cls, std::string_view help = "");
  Histogram* histogram(std::string_view name, MetricClass cls, std::vector<double> bounds,
                       std::string_view help = "");

  // nullptr when the name is unregistered.
  const Metric* find(std::string_view name) const;

  // All metrics in name order (deterministic exposition order).
  std::vector<const Metric*> metrics() const;

  bool empty() const { return metrics_.empty(); }
  std::size_t size() const { return metrics_.size(); }

  // Fold another registry in: same-name metrics combine (counters and
  // histogram buckets sum, gauges sum); names only present in `other` are
  // created.  Deterministic for any merge order, which is what makes the
  // shard fold reproducible.
  void merge(const Registry& other);

 private:
  Metric& find_or_create(std::string_view name, MetricClass cls, MetricKind kind,
                         std::string_view help);

  std::map<std::string, Metric, std::less<>> metrics_;
};

}  // namespace entrace::obs
