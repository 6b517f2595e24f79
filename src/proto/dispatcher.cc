#include "proto/dispatcher.h"

#include "net/headers.h"
#include "proto/cifs.h"
#include "proto/dcerpc.h"
#include "proto/dns.h"
#include "proto/http.h"
#include "proto/ncp.h"
#include "proto/netbios.h"
#include "proto/nfs.h"
#include "proto/smtp.h"

namespace entrace {

ProtocolDispatcher::ProtocolDispatcher(AppRegistry& registry, AppEvents& events,
                                       bool payload_analysis, AnomalyCounts* anomalies)
    : registry_(registry),
      events_(events),
      payload_analysis_(payload_analysis),
      anomalies_(anomalies) {}

void ProtocolDispatcher::on_new_connection(Connection& conn) {
  const AppProtocol app = registry_.identify(conn);
  conn.app_id = static_cast<std::uint16_t>(app);
  conn.parser_slot = Connection::kNoParser;
  if (!payload_analysis_) return;
  std::unique_ptr<AppParser> parser = make_parser(conn, app);
  if (parser == nullptr) return;
  parser->set_anomaly_sink(anomalies_);
  if (!free_slots_.empty()) {
    conn.parser_slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[conn.parser_slot] = std::move(parser);
  } else {
    conn.parser_slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(parser));
  }
}

std::unique_ptr<AppParser> ProtocolDispatcher::make_parser(const Connection& conn,
                                                           AppProtocol app) {
  switch (app) {
    case AppProtocol::kHttp:
      return std::make_unique<HttpParser>(events_.http);
    case AppProtocol::kSmtp:
      return std::make_unique<SmtpParser>(events_.smtp);
    case AppProtocol::kDns:
      if (conn.key.proto == ipproto::kUdp) return std::make_unique<DnsParser>(events_.dns);
      return nullptr;
    case AppProtocol::kNetbiosNs:
      return std::make_unique<NbnsParser>(events_.nbns);
    case AppProtocol::kNetbiosSsn:
      return std::make_unique<CifsParser>(events_, registry_, /*netbios_framing=*/true);
    case AppProtocol::kCifs:
      return std::make_unique<CifsParser>(events_, registry_, /*netbios_framing=*/false);
    case AppProtocol::kEndpointMapper:
    case AppProtocol::kDceRpc:
      if (conn.key.proto == ipproto::kTcp)
        return std::make_unique<DceRpcParser>(events_.dcerpc, registry_, events_.epm);
      return nullptr;
    case AppProtocol::kNfs:
      return std::make_unique<NfsParser>(events_.nfs, conn.key.proto == ipproto::kTcp);
    case AppProtocol::kNcp:
      if (conn.key.proto == ipproto::kTcp) return std::make_unique<NcpParser>(events_.ncp);
      return nullptr;
    default:
      return nullptr;
  }
}

void ProtocolDispatcher::on_data(Connection& conn, Direction dir, double ts,
                                 std::span<const std::uint8_t> data, std::uint32_t wire_len) {
  if (conn.parser_slot == Connection::kNoParser) return;
  AppParser* parser = slots_[conn.parser_slot].get();
  if (conn.key.proto == ipproto::kUdp) {
    parser->on_datagram(conn, dir, ts, data, wire_len);
  } else {
    parser->on_data(conn, dir, ts, data);
  }
}

void ProtocolDispatcher::on_close(Connection& conn) {
  if (conn.parser_slot == Connection::kNoParser) return;
  std::unique_ptr<AppParser>& parser = slots_[conn.parser_slot];
  parser->on_close(conn);
  // Destroy the parser now, so its stream buffers are released mid-trace,
  // and recycle the slot index for the next parsed connection.
  parser.reset();
  free_slots_.push_back(conn.parser_slot);
  conn.parser_slot = Connection::kNoParser;
}

}  // namespace entrace
