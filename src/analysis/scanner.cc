#include "analysis/scanner.h"

#include <algorithm>

namespace entrace {

ScannerDetector::Source& ScannerDetector::source(std::uint32_t addr) {
  const auto [i, fresh] = source_index_.insert(addr);
  if (fresh) sources_.push_back(Source{addr, 0, {}});
  return sources_[i];
}

void ScannerDetector::observe(Ipv4Address src, Ipv4Address dst) {
  // A repeat costs one probe; a new pair one more, into the source index.
  if (!pairs_.insert(pair_key(src.value(), dst.value())).second) return;
  Source& s = source(src.value());
  ++s.distinct;
  if (s.order.size() < kOrderCap) s.order.push_back(dst.value());
}

void ScannerDetector::merge(const ScannerDetector& other) {
  pairs_.reserve(pairs_.size() + other.pairs_.size());
  bool other_capped = false;
  for (const Source& theirs : other.sources_) {
    Source& mine = source(theirs.addr);
    for (const std::uint32_t dst : theirs.order) {
      if (!pairs_.insert(pair_key(theirs.addr, dst)).second) continue;
      ++mine.distinct;
      if (mine.order.size() < kOrderCap) mine.order.push_back(dst);
    }
    other_capped = other_capped || theirs.distinct > theirs.order.size();
  }
  // Destinations past the other detector's order cap still count toward
  // the distinct-host threshold; one pass over its pairs finds them.
  if (other_capped) {
    other.pairs_.for_each([&](std::uint64_t key) {
      const auto src = static_cast<std::uint32_t>(key >> 32);
      const Source& theirs = other.sources_[other.source_index_.find(src)];
      if (theirs.distinct == theirs.order.size()) return;
      if (pairs_.insert(key).second) ++source(src).distinct;
    });
  }
}

std::vector<ScannerDetector::SourceObservations> ScannerDetector::export_observations() const {
  // One entry per source in index order; a capped source's extra_seen
  // first gathers all its destinations, then drops those in `order`.
  std::vector<SourceObservations> out(sources_.size());
  bool capped = false;
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    out[i].source = sources_[i].addr;
    out[i].order = sources_[i].order;
    capped = capped || sources_[i].distinct > sources_[i].order.size();
  }
  if (capped) {
    pairs_.for_each([&](std::uint64_t key) {
      const std::uint32_t i = source_index_.find(static_cast<std::uint32_t>(key >> 32));
      if (sources_[i].distinct > sources_[i].order.size()) {
        out[i].extra_seen.push_back(static_cast<std::uint32_t>(key));
      }
    });
    for (SourceObservations& obs : out) {
      if (obs.extra_seen.empty()) continue;
      std::vector<std::uint32_t> in_order = obs.order;
      std::sort(in_order.begin(), in_order.end());
      std::sort(obs.extra_seen.begin(), obs.extra_seen.end());
      const auto end = std::set_difference(obs.extra_seen.begin(), obs.extra_seen.end(),
                                           in_order.begin(), in_order.end(),
                                           obs.extra_seen.begin());
      obs.extra_seen.erase(end, obs.extra_seen.end());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SourceObservations& a, const SourceObservations& b) {
              return a.source < b.source;
            });
  return out;
}

std::ptrdiff_t ScannerDetector::import_source(const SourceObservations& obs) {
  Source& s = source(obs.source);
  pairs_.reserve(pairs_.size() + obs.order.size() + obs.extra_seen.size());
  s.order.reserve(obs.order.size());
  std::ptrdiff_t at = 0;
  for (const auto* dsts : {&obs.order, &obs.extra_seen}) {
    for (const std::uint32_t dst : *dsts) {
      if (!pairs_.insert(pair_key(obs.source, dst)).second) return at;
      if (dsts == &obs.order) s.order.push_back(dst);
      ++s.distinct;
      ++at;
    }
  }
  return -1;
}

bool ScannerDetector::is_ordered_probe(const Source& s) {
  if (s.distinct <= kDistinctHostThreshold) return false;
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
  std::set<Ipv4Address> out;
  for (const Source& s : sources_) {
    if (is_ordered_probe(s)) out.insert(Ipv4Address(s.addr));
  }
  return out;
}

}  // namespace entrace
