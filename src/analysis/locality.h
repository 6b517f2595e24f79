// Origins and locality (§4): flow origin classes and fan-in / fan-out.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "analysis/site.h"
#include "flow/connection.h"
#include "util/stats.h"

namespace entrace {

// §4: "71-79% of flows across the five datasets [are] within the
// enterprise; 2-3% originate within... communicating across the WAN;
// 6-11% originate outside; 5-10% multicast sourced internally; 4-7%
// multicast sourced externally."
struct OriginBreakdown {
  std::uint64_t total = 0;
  std::uint64_t ent_to_ent = 0;
  std::uint64_t ent_to_wan = 0;
  std::uint64_t wan_to_ent = 0;
  std::uint64_t multicast_ent_src = 0;
  std::uint64_t multicast_wan_src = 0;

  static OriginBreakdown compute(std::span<const Connection* const> conns,
                                 const SiteConfig& site);

  double fraction(std::uint64_t n) const {
    return total == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(total);
  }
};

// Figure 2: distributions of the number of peers each monitored host
// originates conversations to (fan-out) and receives conversations from
// (fan-in), split by peer locality.
struct FanResult {
  EmpiricalCdf fan_in_ent;
  EmpiricalCdf fan_in_wan;
  EmpiricalCdf fan_out_ent;
  EmpiricalCdf fan_out_wan;
  // Hosts whose peers are exclusively internal (the paper: one-third to
  // one-half of hosts have only internal fan-in; more than half only
  // internal fan-out).
  double only_internal_fan_in = 0.0;
  double only_internal_fan_out = 0.0;
};

FanResult compute_fan(std::span<const Connection* const> conns, const SiteConfig& site,
                      const std::function<bool(Ipv4Address)>& is_monitored);

// Peers-per-host CDFs split by peer locality (Figure 3's HTTP fan-out).
struct FanOutPair {
  EmpiricalCdf ent;  // peers per source, enterprise servers
  EmpiricalCdf wan;  // peers per source, WAN servers
};

// Distinct peers per host, split by the peer's locality: the row or column
// degrees of a traffic matrix, counted the way Kepner et al. count them
// from sorted hypersparse arrays rather than from a node-based set per
// host.  Each (host, peer) pair is packed into one u64 key; the keys are
// sorted, so each host's run, deduplicated, gives its two counts.  The key
// carries no locality bit: a peer's side follows from its address.
class PeerCounter {
 public:
  // `expected`: the number of add() calls to reserve room for.
  explicit PeerCounter(std::size_t expected) { keys_.reserve(expected); }

  void add(Ipv4Address host, Ipv4Address peer) {
    keys_.push_back(std::uint64_t{host.value()} << 32 | peer.value());
  }

  // For each host that `counted` accepts, in address order, adds its
  // nonzero enterprise and WAN peer counts to `ent` and `wan`.  Returns
  // the fraction of those hosts whose peers are all enterprise.  Sorts
  // the collected keys in place.
  double count(const SiteConfig& site, EmpiricalCdf& ent, EmpiricalCdf& wan,
               const std::function<bool(Ipv4Address)>& counted);

 private:
  std::vector<std::uint64_t> keys_;
};

}  // namespace entrace
