#include "obs/metrics.h"

#include <algorithm>
#include <stdexcept>

namespace entrace::obs {

const char* to_string(MetricClass c) {
  switch (c) {
    case MetricClass::kSemantic:
      return "semantic";
    case MetricClass::kTiming:
      return "timing";
  }
  return "?";
}

const char* to_string(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::logic_error("Histogram bounds must be ascending");
  }
  buckets_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double x) { observe_n(x, 1); }

void Histogram::observe_n(double x, std::uint64_t n) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())] += n;
  count_ += n;
  sum_ += x * static_cast<double>(n);
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_);
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    const std::uint64_t n = buckets_[i];
    if (n != 0 && static_cast<double>(below + n) >= rank) {
      const double lo = i == 0 ? 0.0 : bounds_[i - 1];
      return lo + (bounds_[i] - lo) * (rank - static_cast<double>(below)) / static_cast<double>(n);
    }
    below += n;
  }
  return bounds_.empty() ? 0.0 : bounds_.back();  // the overflow bucket
}

void Histogram::restore(std::vector<std::uint64_t> buckets, std::uint64_t count, double sum) {
  if (buckets.size() != bounds_.size() + 1) {
    throw std::logic_error("Histogram::restore: bucket count does not match bounds");
  }
  buckets_ = std::move(buckets);
  count_ = count;
  sum_ = sum;
}

void Histogram::merge(const Histogram& other) {
  if (bounds_ != other.bounds_) {
    throw std::logic_error("Histogram::merge: bucket bounds differ");
  }
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
}

Metric& Registry::find_or_create(std::string_view name, MetricClass cls, MetricKind kind,
                                 std::string_view help) {
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    it = metrics_.emplace(std::string(name), Metric{}).first;
    Metric& m = it->second;
    m.name = it->first;
    m.cls = cls;
    m.kind = kind;
    m.help = help;
    return m;
  }
  Metric& m = it->second;
  if (m.kind != kind) {
    throw std::logic_error("metric '" + m.name + "' re-registered as a different kind");
  }
  if (m.cls != cls) {
    throw std::logic_error("metric '" + m.name + "' re-registered as a different class");
  }
  if (m.help.empty() && !help.empty()) m.help = help;
  return m;
}

Counter* Registry::counter(std::string_view name, MetricClass cls, std::string_view help) {
  return &find_or_create(name, cls, MetricKind::kCounter, help).counter;
}

Gauge* Registry::gauge(std::string_view name, MetricClass cls, std::string_view help) {
  return &find_or_create(name, cls, MetricKind::kGauge, help).gauge;
}

Histogram* Registry::histogram(std::string_view name, MetricClass cls, std::vector<double> bounds,
                               std::string_view help) {
  Metric& m = find_or_create(name, cls, MetricKind::kHistogram, help);
  if (!m.histogram) {
    m.histogram = std::make_unique<Histogram>(std::move(bounds));
  } else if (m.histogram->bounds() != bounds) {
    throw std::logic_error("metric '" + m.name + "' re-registered with different bounds");
  }
  return m.histogram.get();
}

const Metric* Registry::find(std::string_view name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? nullptr : &it->second;
}

std::vector<const Metric*> Registry::metrics() const {
  std::vector<const Metric*> out;
  out.reserve(metrics_.size());
  for (const auto& [name, m] : metrics_) out.push_back(&m);
  return out;
}

void Registry::merge(const Registry& other) {
  for (const auto& [name, theirs] : other.metrics_) {
    switch (theirs.kind) {
      case MetricKind::kCounter:
        find_or_create(name, theirs.cls, theirs.kind, theirs.help).counter.merge(theirs.counter);
        break;
      case MetricKind::kGauge:
        find_or_create(name, theirs.cls, theirs.kind, theirs.help).gauge.merge(theirs.gauge);
        break;
      case MetricKind::kHistogram: {
        Metric& mine = find_or_create(name, theirs.cls, theirs.kind, theirs.help);
        if (!mine.histogram) {
          mine.histogram = std::make_unique<Histogram>(theirs.histogram->bounds());
        }
        mine.histogram->merge(*theirs.histogram);
        break;
      }
    }
  }
}

}  // namespace entrace::obs
