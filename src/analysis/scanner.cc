#include "analysis/scanner.h"

#include <algorithm>

namespace entrace {

void ScannerDetector::observe(Ipv4Address src, Ipv4Address dst) {
  auto& state = sources_[src.value()];
  if (state.seen.insert(dst.value()).second) {
    // Cap memory per source: beyond a few thousand distinct targets the
    // verdict cannot change.
    if (state.order.size() < 4096) state.order.push_back(dst.value());
    cache_valid_ = false;
  }
}

void ScannerDetector::add_known_scanner(Ipv4Address addr) {
  known_.insert(addr);
  cache_valid_ = false;
}

void ScannerDetector::merge(const ScannerDetector& other) {
  for (const auto& [src, theirs] : other.sources_) {
    auto& mine = sources_[src];
    for (const std::uint32_t dst : theirs.order) {
      if (mine.seen.insert(dst).second && mine.order.size() < 4096) {
        mine.order.push_back(dst);
      }
    }
    // Destinations past the other detector's order cap still count toward
    // the distinct-host threshold.
    for (const std::uint32_t dst : theirs.seen) mine.seen.insert(dst);
  }
  known_.insert(other.known_.begin(), other.known_.end());
  cache_valid_ = false;
}

std::vector<ScannerDetector::SourceObservations> ScannerDetector::export_observations() const {
  std::vector<SourceObservations> out;
  out.reserve(sources_.size());
  for (const auto& [src, state] : sources_) {
    SourceObservations obs;
    obs.source = src;
    obs.order = state.order;
    const std::unordered_set<std::uint32_t> in_order(state.order.begin(), state.order.end());
    for (const std::uint32_t dst : state.seen) {
      if (in_order.count(dst) == 0) obs.extra_seen.push_back(dst);
    }
    std::sort(obs.extra_seen.begin(), obs.extra_seen.end());
    out.push_back(std::move(obs));
  }
  std::sort(out.begin(), out.end(),
            [](const SourceObservations& a, const SourceObservations& b) {
              return a.source < b.source;
            });
  return out;
}

void ScannerDetector::import_observations(const std::vector<SourceObservations>& observations) {
  for (const SourceObservations& obs : observations) {
    SourceState& state = sources_[obs.source];
    state.order = obs.order;
    state.seen.reserve(obs.order.size() + obs.extra_seen.size());
    state.seen.insert(obs.order.begin(), obs.order.end());
    state.seen.insert(obs.extra_seen.begin(), obs.extra_seen.end());
  }
  cache_valid_ = false;
}

bool ScannerDetector::is_ordered_probe(const SourceState& s) {
  if (s.seen.size() <= kDistinctHostThreshold) return false;
  // Count the longest run of consecutive first-contacts moving in one
  // direction through the address space.
  std::size_t best = 1, asc = 1, desc = 1;
  for (std::size_t i = 1; i < s.order.size(); ++i) {
    if (s.order[i] > s.order[i - 1]) {
      ++asc;
      desc = 1;
    } else if (s.order[i] < s.order[i - 1]) {
      ++desc;
      asc = 1;
    } else {
      asc = desc = 1;
    }
    best = std::max({best, asc, desc});
  }
  return best >= kOrderedRunThreshold;
}

std::set<Ipv4Address> ScannerDetector::scanners() const {
  if (!cache_valid_) {
    cache_ = known_;
    for (const auto& [src, state] : sources_) {
      if (is_ordered_probe(state)) cache_.insert(Ipv4Address(src));
    }
    cache_valid_ = true;
  }
  return cache_;
}

bool ScannerDetector::is_scanner(Ipv4Address addr) const {
  if (!cache_valid_) scanners();
  return cache_.count(addr) > 0;
}

}  // namespace entrace
