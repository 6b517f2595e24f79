#include "analysis/netfile_analysis.h"

#include <algorithm>
#include <map>
#include <vector>

#include "net/headers.h"
#include "proto/registry.h"

namespace entrace {
namespace {

double top3_share(const std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t>& pairs,
                  std::uint64_t total) {
  if (total == 0 || pairs.empty()) return 0.0;
  std::vector<std::uint64_t> v;
  v.reserve(pairs.size());
  for (const auto& [key, bytes] : pairs) v.push_back(bytes);
  std::sort(v.rbegin(), v.rend());
  std::uint64_t top = 0;
  for (std::size_t i = 0; i < v.size() && i < 3; ++i) top += v[i];
  return static_cast<double>(top) / static_cast<double>(total);
}

}  // namespace

NetFileAnalysis NetFileAnalysis::compute(const AppEvents& events,
                                         std::span<const Connection* const> conns,
                                         const SiteConfig& site) {
  (void)site;
  NetFileAnalysis out;

  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> nfs_pair_bytes,
      ncp_pair_bytes;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> nfs_pair_reqs,
      ncp_pair_reqs;
  std::map<std::pair<std::uint32_t, std::uint32_t>, bool> nfs_pair_udp, nfs_pair_tcp;

  for (const Connection* c : conns) {
    const auto app = static_cast<AppProtocol>(c->app_id);
    const auto pair = std::make_pair(std::min(c->key.src.value(), c->key.dst.value()),
                                     std::max(c->key.src.value(), c->key.dst.value()));
    if (app == AppProtocol::kNfs) {
      ++out.nfs_conns;
      out.nfs_bytes += c->total_bytes();
      nfs_pair_bytes[pair] += c->total_bytes();
      if (c->key.proto == ipproto::kUdp) {
        out.nfs_udp_bytes += c->total_bytes();
        nfs_pair_udp[pair] = true;
      } else {
        out.nfs_tcp_bytes += c->total_bytes();
        nfs_pair_tcp[pair] = true;
      }
    } else if (app == AppProtocol::kNcp) {
      ++out.ncp_conns;
      out.ncp_bytes += c->total_bytes();
      ncp_pair_bytes[pair] += c->total_bytes();
      // Keepalive-only: carried (keepalive) retransmissions but delivered
      // at most a hair of fresh payload.
      if (c->keepalive_retx > 0 && c->orig_bytes + c->resp_bytes <= 2) {
        ++out.ncp_keepalive_only_conns;
      }
    }
  }
  out.nfs_top3_pair_byte_share = top3_share(nfs_pair_bytes, out.nfs_bytes);
  out.ncp_top3_pair_byte_share = top3_share(ncp_pair_bytes, out.ncp_bytes);
  out.nfs_udp_pairs = nfs_pair_udp.size();
  out.nfs_tcp_pairs = nfs_pair_tcp.size();

  // ---- NFS request breakdown ------------------------------------------------
  for (const auto& call : events.nfs) {
    Row* row = nullptr;
    switch (call.proc) {
      case nfsproc::kRead:
        row = &out.nfs_read;
        break;
      case nfsproc::kWrite:
        row = &out.nfs_write;
        break;
      case nfsproc::kGetAttr:
        row = &out.nfs_getattr;
        break;
      case nfsproc::kLookup:
        row = &out.nfs_lookup;
        break;
      case nfsproc::kAccess:
        row = &out.nfs_access;
        break;
      default:
        row = &out.nfs_other;
        break;
    }
    const std::uint64_t data = call.req_bytes + call.resp_bytes;
    ++row->requests;
    row->bytes += data;
    ++out.nfs_total_requests;
    out.nfs_total_data += data;
    out.nfs_req_sizes.add(call.req_bytes);
    if (call.has_reply) {
      out.nfs_reply_sizes.add(call.resp_bytes);
      ++out.nfs_replies;
      if (call.status == 0) ++out.nfs_ok;
    }
    const std::uint32_t a = call.src.value(), b = call.dst.value();
    ++nfs_pair_reqs[{std::min(a, b), std::max(a, b)}];
  }

  // ---- NCP request breakdown --------------------------------------------------
  for (const auto& call : events.ncp) {
    Row& row = out.ncp_rows[static_cast<std::size_t>(call.function)];
    const std::uint64_t data = call.req_bytes + call.resp_bytes;
    ++row.requests;
    row.bytes += data;
    ++out.ncp_total_requests;
    out.ncp_total_data += data;
    out.ncp_req_sizes.add(call.req_bytes);
    if (call.has_reply) {
      out.ncp_reply_sizes.add(call.resp_bytes);
      ++out.ncp_replies;
      if (call.completion_code == 0) ++out.ncp_ok;
    }
    const std::uint32_t a = call.src.value(), b = call.dst.value();
    ++ncp_pair_reqs[{std::min(a, b), std::max(a, b)}];
  }

  for (const auto& [pair, n] : nfs_pair_reqs) out.nfs_reqs_per_pair.add(static_cast<double>(n));
  for (const auto& [pair, n] : ncp_pair_reqs) out.ncp_reqs_per_pair.add(static_cast<double>(n));
  return out;
}

}  // namespace entrace
