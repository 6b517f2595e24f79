#include "analysis/locality.h"

#include <algorithm>

namespace entrace {

OriginBreakdown OriginBreakdown::compute(std::span<const Connection* const> conns,
                                         const SiteConfig& site) {
  OriginBreakdown out;
  for (const Connection* c : conns) {
    ++out.total;
    const bool src_internal = site.is_internal(c->key.src);
    if (c->multicast) {
      if (src_internal) {
        ++out.multicast_ent_src;
      } else {
        ++out.multicast_wan_src;
      }
      continue;
    }
    const bool dst_internal = site.is_internal(c->key.dst);
    if (src_internal && dst_internal) {
      ++out.ent_to_ent;
    } else if (src_internal) {
      ++out.ent_to_wan;
    } else {
      ++out.wan_to_ent;
    }
  }
  return out;
}

double PeerCounter::count(const SiteConfig& site, EmpiricalCdf& ent, EmpiricalCdf& wan,
                          const std::function<bool(Ipv4Address)>& counted) {
  std::sort(keys_.begin(), keys_.end());
  std::size_t hosts = 0;
  std::size_t only_ent = 0;
  for (auto run = keys_.begin(); run != keys_.end();) {
    const std::uint64_t host = *run >> 32;
    const auto end =
        std::find_if(run, keys_.end(), [host](std::uint64_t k) { return k >> 32 != host; });
    if (counted(Ipv4Address(static_cast<std::uint32_t>(host)))) {
      std::uint32_t n_ent = 0;
      std::uint32_t n_wan = 0;
      for (auto k = run; k != end; ++k) {
        if (k != run && *k == *(k - 1)) continue;  // a repeated pair
        if (site.is_internal(Ipv4Address(static_cast<std::uint32_t>(*k)))) {
          ++n_ent;
        } else {
          ++n_wan;
        }
      }
      if (n_ent != 0) ent.add(n_ent);
      if (n_wan != 0) wan.add(n_wan);
      ++hosts;
      if (n_wan == 0) ++only_ent;
    }
    run = end;
  }
  return hosts == 0 ? 0.0 : static_cast<double>(only_ent) / static_cast<double>(hosts);
}

FanResult compute_fan(std::span<const Connection* const> conns, const SiteConfig& site,
                      const std::function<bool(Ipv4Address)>& is_monitored) {
  // Every unicast pair goes in; only monitored hosts' runs are counted, so
  // is_monitored runs once per host, not once per connection.  One
  // direction at a time keeps one key array alive.
  const auto fan = [&](bool inbound, EmpiricalCdf& ent, EmpiricalCdf& wan) {
    PeerCounter peers(conns.size());
    for (const Connection* c : conns) {
      if (c->multicast) continue;
      if (inbound) {
        peers.add(c->key.dst, c->key.src);
      } else {
        peers.add(c->key.src, c->key.dst);
      }
    }
    return peers.count(site, ent, wan, is_monitored);
  };
  FanResult out;
  out.only_internal_fan_in = fan(true, out.fan_in_ent, out.fan_in_wan);
  out.only_internal_fan_out = fan(false, out.fan_out_ent, out.fan_out_wan);
  return out;
}

}  // namespace entrace
