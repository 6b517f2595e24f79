// Scanner identification — the paper's §3 heuristic.
//
// "We first identify sources contacting more than 50 distinct hosts.  We
// then determine whether at least 45 of the distinct addresses probed were
// in ascending or descending order."  Sources flagged by the heuristic,
// plus the site's known internal scanners (which fold_shards adds from the
// SiteConfig; a detector holds observations only), are removed prior to
// the traffic-breakdown analyses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

#include "net/ip_address.h"
#include "util/flat_index.h"

namespace entrace {

class ScannerDetector {
 public:
  // "more than 50 distinct hosts"
  static constexpr std::size_t kDistinctHostThreshold = 50;
  // "at least 45 of the distinct addresses probed were in ascending or
  // descending order"
  static constexpr std::size_t kOrderedRunThreshold = 45;

  // Feed one observed (source, destination) packet pair, in trace order.
  void observe(Ipv4Address src, Ipv4Address dst);

  // Fold another detector's observations into this one.  Merging per-trace
  // detectors in trace-index order reproduces the exact per-source
  // first-contact order of a serial pass over the same traces: for each
  // source, `other`'s first contacts are appended except for destinations
  // this detector already saw.
  void merge(const ScannerDetector& other);

  // Evaluate the heuristic over everything observed so far: the sources it
  // flags.
  std::set<Ipv4Address> scanners() const;

  // ---- snapshot support (src/snapshot) --------------------------------------
  // Everything merge() consumes, in a deterministic layout: one entry per
  // source, ascending by source address; `order` is the capped first-contact
  // sequence and `extra_seen` the distinct destinations beyond the cap,
  // ascending.  A detector rebuilt by import_source(), one entry at a time,
  // merges exactly like the one that was exported.
  struct SourceObservations {
    std::uint32_t source = 0;
    std::vector<std::uint32_t> order;
    std::vector<std::uint32_t> extra_seen;
  };
  std::vector<SourceObservations> export_observations() const;
  // Import one source, which the detector must not hold yet.  Returns the
  // position (in `order`, then `extra_seen`) of the first destination that
  // repeats within `obs`, or -1 when none does; an export never repeats one.
  std::ptrdiff_t import_source(const SourceObservations& obs);

 private:
  // Beyond a few thousand distinct targets the verdict cannot change, so a
  // source keeps at most this many first contacts in order; the rest only
  // count.
  static constexpr std::size_t kOrderCap = 4096;

  struct Source {
    std::uint32_t addr = 0;
    std::uint32_t distinct = 0;  // distinct destinations, order's and beyond
    // Distinct destinations in first-contact order, capped at kOrderCap.
    std::vector<std::uint32_t> order;
  };

  static std::uint64_t pair_key(std::uint32_t src, std::uint32_t dst) {
    return static_cast<std::uint64_t>(src) << 32 | dst;
  }
  // The source's entry, created empty on first sight.
  Source& source(std::uint32_t addr);
  static bool is_ordered_probe(const Source& s);

  // Every distinct (source << 32 | destination) pair observed.
  FlatIndex<std::uint64_t> pairs_;
  // Source address -> index into sources_.
  FlatIndex<std::uint32_t> source_index_;
  std::vector<Source> sources_;
};

}  // namespace entrace
