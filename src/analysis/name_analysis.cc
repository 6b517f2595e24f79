#include "analysis/name_analysis.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

namespace entrace {

NameAnalysis NameAnalysis::compute(std::span<const DnsTransaction> dns,
                                   std::span<const NbnsTransaction> nbns,
                                   const SiteConfig& site) {
  NameAnalysis out;

  std::map<std::uint32_t, std::uint64_t> dns_clients;
  for (const auto& txn : dns) {
    ++out.dns_requests;
    ++dns_clients[txn.src.value()];
    switch (txn.qtype) {
      case dnstype::kA:
        ++out.dns_a;
        break;
      case dnstype::kAaaa:
        ++out.dns_aaaa;
        break;
      case dnstype::kPtr:
        ++out.dns_ptr;
        break;
      case dnstype::kMx:
        ++out.dns_mx;
        break;
      default:
        ++out.dns_other_type;
        break;
    }
    if (txn.has_response) {
      ++out.dns_responses;
      if (txn.rcode == dnsrcode::kNoError) {
        ++out.dns_noerror;
      } else if (txn.rcode == dnsrcode::kNxDomain) {
        ++out.dns_nxdomain;
      } else {
        ++out.dns_other_rcode;
      }
      if (txn.latency() >= 0) {
        // The server is the responder of the flow.
        const bool wan = !site.is_internal(txn.dst);
        (wan ? out.dns_latency_wan : out.dns_latency_ent).add(txn.latency());
      }
    }
  }
  if (out.dns_requests > 0 && !dns_clients.empty()) {
    std::vector<std::uint64_t> counts;
    counts.reserve(dns_clients.size());
    for (const auto& [client, n] : dns_clients) counts.push_back(n);
    std::sort(counts.rbegin(), counts.rend());
    std::uint64_t top2 = counts[0] + (counts.size() > 1 ? counts[1] : 0);
    out.dns_top2_client_share = static_cast<double>(top2) /
                                static_cast<double>(out.dns_requests);
  }

  // ---- Netbios-NS --------------------------------------------------------
  std::map<std::uint32_t, std::uint64_t> nbns_clients;
  // Distinct op = (client, name); an op failed if it ever yielded rcode 3
  // and never a positive answer.
  std::map<std::pair<std::uint32_t, std::string>, int> ops;  // 1 ok, -1 fail
  for (const auto& txn : nbns) {
    ++out.nbns_requests;
    ++nbns_clients[txn.src.value()];
    switch (txn.opcode) {
      case NbnsOpcode::kQuery:
        ++out.nbns_queries;
        break;
      case NbnsOpcode::kRefresh:
        ++out.nbns_refresh;
        break;
      case NbnsOpcode::kRegistration:
        ++out.nbns_register;
        break;
      case NbnsOpcode::kRelease:
        ++out.nbns_release;
        break;
      default:
        ++out.nbns_other_op;
        break;
    }
    switch (txn.name_type) {
      case NbnsNameType::kWorkstation:
      case NbnsNameType::kServer:
        ++out.nbns_type_workstation_server;
        break;
      case NbnsNameType::kDomain:
        ++out.nbns_type_domain;
        break;
      default:
        ++out.nbns_type_other;
        break;
    }
    if (txn.opcode == NbnsOpcode::kQuery && txn.has_response) {
      auto& verdict = ops[{txn.src.value(), txn.name}];
      if (txn.rcode == 0) {
        verdict = 1;
      } else if (verdict == 0) {
        verdict = -1;
      }
    }
  }
  for (const auto& [op, verdict] : ops) {
    ++out.nbns_distinct_ops;
    if (verdict < 0) ++out.nbns_failed_ops;
  }
  if (out.nbns_requests > 0 && !nbns_clients.empty()) {
    std::vector<std::uint64_t> counts;
    counts.reserve(nbns_clients.size());
    for (const auto& [client, n] : nbns_clients) counts.push_back(n);
    std::sort(counts.rbegin(), counts.rend());
    std::uint64_t top10 = 0;
    for (std::size_t i = 0; i < counts.size() && i < 10; ++i) top10 += counts[i];
    out.nbns_top10_client_share = static_cast<double>(top10) /
                                  static_cast<double>(out.nbns_requests);
  }
  return out;
}

}  // namespace entrace
