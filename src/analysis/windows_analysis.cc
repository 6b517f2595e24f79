#include "analysis/windows_analysis.h"

#include <map>
#include <vector>

#include "proto/registry.h"

namespace entrace {

WindowsAnalysis WindowsAnalysis::compute(const AppEvents& events,
                                         std::span<const Connection* const> conns,
                                         const SiteConfig& site) {
  WindowsAnalysis out;

  // Table 9: internal traffic only (inbound Windows traffic is blocked at
  // the border in the paper's site, and ours models the same policy).
  auto internal_app = [&site](const Connection& c, AppProtocol app) {
    return static_cast<AppProtocol>(c.app_id) == app && site.is_internal(c.key.src) &&
           site.is_internal(c.key.dst);
  };
  out.nbss_conns = HostPairOutcomes::compute(conns, [&](const Connection& c) {
    return internal_app(c, AppProtocol::kNetbiosSsn);
  });
  out.cifs_conns = HostPairOutcomes::compute(
      conns, [&](const Connection& c) { return internal_app(c, AppProtocol::kCifs); });
  out.epm_conns = HostPairOutcomes::compute(conns, [&](const Connection& c) {
    return internal_app(c, AppProtocol::kEndpointMapper);
  });

  // NBSS handshake outcomes by host pair.
  std::map<std::pair<std::uint32_t, std::uint32_t>, int> handshake;  // 1 ok, -1 neg
  for (const auto& evt : events.nbss) {
    auto key = std::make_pair(evt.src.value(), evt.dst.value());
    if (evt.type == NbssEventType::kPositiveResponse) {
      handshake[key] = 1;
    } else if (evt.type == NbssEventType::kNegativeResponse) {
      auto it = handshake.find(key);
      if (it == handshake.end() || it->second != 1) handshake[key] = -1;
    } else {
      handshake.try_emplace(key, 0);
    }
  }
  for (const auto& [pair, verdict] : handshake) {
    ++out.nbss_handshake_pairs;
    if (verdict == 1) ++out.nbss_handshake_ok;
  }

  // Table 10.
  for (const auto& cmd : events.cifs) {
    const auto idx = static_cast<std::size_t>(cmd.category);
    if (cmd.dir == Direction::kOrigToResp) {
      ++out.cifs_categories[idx].requests;
      ++out.cifs_total_requests;
    }
    out.cifs_categories[idx].bytes += cmd.msg_bytes;
    out.cifs_total_bytes += cmd.msg_bytes;
  }

  // Table 11.
  auto row_for = [&out](DceIface iface, std::uint16_t opnum) -> RpcRow& {
    switch (iface) {
      case DceIface::kNetLogon:
        return out.rpc_netlogon;
      case DceIface::kLsaRpc:
        return out.rpc_lsarpc;
      case DceIface::kSpoolss:
        return opnum == spoolss_op::kWritePrinter ? out.rpc_spoolss_write
                                                  : out.rpc_spoolss_other;
      default:
        return out.rpc_other;
    }
  };
  for (const auto& call : events.dcerpc) {
    RpcRow& row = row_for(call.iface, call.opnum);
    if (call.is_request) {
      ++row.requests;
      ++out.rpc_total_requests;
      if (call.over_pipe) {
        ++out.rpc_over_pipe;
      } else {
        ++out.rpc_standalone;
      }
    }
    row.bytes += call.bytes;
    out.rpc_total_bytes += call.bytes;
  }
  return out;
}

}  // namespace entrace
