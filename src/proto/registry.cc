#include "proto/registry.h"

#include <algorithm>
#include <array>

#include "net/headers.h"

namespace entrace {

const char* to_string(AppProtocol p) {
  switch (p) {
    case AppProtocol::kUnknown: return "unknown";
    case AppProtocol::kHttp: return "HTTP";
    case AppProtocol::kHttps: return "HTTPS";
    case AppProtocol::kSmtp: return "SMTP";
    case AppProtocol::kImap4: return "IMAP4";
    case AppProtocol::kImapS: return "IMAP/S";
    case AppProtocol::kPop3: return "POP3";
    case AppProtocol::kPopS: return "POP/S";
    case AppProtocol::kLdap: return "LDAP";
    case AppProtocol::kFtp: return "FTP";
    case AppProtocol::kFtpData: return "FTP-data";
    case AppProtocol::kHpss: return "HPSS";
    case AppProtocol::kSsh: return "SSH";
    case AppProtocol::kTelnet: return "telnet";
    case AppProtocol::kRlogin: return "rlogin";
    case AppProtocol::kX11: return "X11";
    case AppProtocol::kDns: return "DNS";
    case AppProtocol::kNetbiosNs: return "Netbios-NS";
    case AppProtocol::kSrvLoc: return "SrvLoc";
    case AppProtocol::kSunRpcPortmap: return "Portmapper";
    case AppProtocol::kNfs: return "NFS";
    case AppProtocol::kNcp: return "NCP";
    case AppProtocol::kDhcp: return "DHCP";
    case AppProtocol::kIdent: return "ident";
    case AppProtocol::kNtp: return "NTP";
    case AppProtocol::kSnmp: return "SNMP";
    case AppProtocol::kNavPing: return "NAV-ping";
    case AppProtocol::kSap: return "SAP";
    case AppProtocol::kNetInfoLocal: return "NetInfo-local";
    case AppProtocol::kRtsp: return "RTSP";
    case AppProtocol::kIpVideo: return "IPVideo";
    case AppProtocol::kRealStream: return "RealStream";
    case AppProtocol::kCifs: return "CIFS/SMB";
    case AppProtocol::kDceRpc: return "DCE/RPC";
    case AppProtocol::kNetbiosSsn: return "Netbios-SSN";
    case AppProtocol::kNetbiosDgm: return "Netbios-DGM";
    case AppProtocol::kEndpointMapper: return "EPM";
    case AppProtocol::kVeritasCtrl: return "Veritas-ctrl";
    case AppProtocol::kVeritasData: return "Veritas-data";
    case AppProtocol::kDantz: return "Dantz";
    case AppProtocol::kConnectedBackup: return "Connected-backup";
    case AppProtocol::kSteltor: return "Steltor";
    case AppProtocol::kMetaSys: return "MetaSys";
    case AppProtocol::kLpd: return "LPD";
    case AppProtocol::kIpp: return "IPP";
    case AppProtocol::kOracleSql: return "Oracle-SQL";
    case AppProtocol::kMsSql: return "MS-SQL";
  }
  return "?";
}

const char* to_string(AppCategory c) {
  switch (c) {
    case AppCategory::kWeb: return "web";
    case AppCategory::kEmail: return "email";
    case AppCategory::kNetFile: return "net-file";
    case AppCategory::kBackup: return "backup";
    case AppCategory::kBulk: return "bulk";
    case AppCategory::kName: return "name";
    case AppCategory::kInteractive: return "interactive";
    case AppCategory::kWindows: return "windows";
    case AppCategory::kStreaming: return "streaming";
    case AppCategory::kNetMgnt: return "net-mgnt";
    case AppCategory::kMisc: return "misc";
    case AppCategory::kOtherTcp: return "other-tcp";
    case AppCategory::kOtherUdp: return "other-udp";
  }
  return "?";
}

AppCategory category_of(AppProtocol p) {
  switch (p) {
    case AppProtocol::kHttp:
    case AppProtocol::kHttps:
      return AppCategory::kWeb;
    case AppProtocol::kSmtp:
    case AppProtocol::kImap4:
    case AppProtocol::kImapS:
    case AppProtocol::kPop3:
    case AppProtocol::kPopS:
    case AppProtocol::kLdap:
      return AppCategory::kEmail;
    case AppProtocol::kFtp:
    case AppProtocol::kFtpData:
    case AppProtocol::kHpss:
      return AppCategory::kBulk;
    case AppProtocol::kSsh:
    case AppProtocol::kTelnet:
    case AppProtocol::kRlogin:
    case AppProtocol::kX11:
      return AppCategory::kInteractive;
    case AppProtocol::kDns:
    case AppProtocol::kNetbiosNs:
    case AppProtocol::kSrvLoc:
    case AppProtocol::kSunRpcPortmap:
      return AppCategory::kName;
    case AppProtocol::kNfs:
    case AppProtocol::kNcp:
      return AppCategory::kNetFile;
    case AppProtocol::kDhcp:
    case AppProtocol::kIdent:
    case AppProtocol::kNtp:
    case AppProtocol::kSnmp:
    case AppProtocol::kNavPing:
    case AppProtocol::kSap:
    case AppProtocol::kNetInfoLocal:
      return AppCategory::kNetMgnt;
    case AppProtocol::kRtsp:
    case AppProtocol::kIpVideo:
    case AppProtocol::kRealStream:
      return AppCategory::kStreaming;
    case AppProtocol::kCifs:
    case AppProtocol::kDceRpc:
    case AppProtocol::kNetbiosSsn:
    case AppProtocol::kNetbiosDgm:
    case AppProtocol::kEndpointMapper:
      return AppCategory::kWindows;
    case AppProtocol::kVeritasCtrl:
    case AppProtocol::kVeritasData:
    case AppProtocol::kDantz:
    case AppProtocol::kConnectedBackup:
      return AppCategory::kBackup;
    case AppProtocol::kSteltor:
    case AppProtocol::kMetaSys:
    case AppProtocol::kLpd:
    case AppProtocol::kIpp:
    case AppProtocol::kOracleSql:
    case AppProtocol::kMsSql:
      return AppCategory::kMisc;
    case AppProtocol::kUnknown:
      break;
  }
  return AppCategory::kOtherTcp;  // caller refines unknown by transport
}

namespace {

struct WellKnownPort {
  std::uint8_t proto;
  std::uint16_t port;
  AppProtocol app;

  friend constexpr bool operator<(const WellKnownPort& a, const WellKnownPort& b) {
    return a.proto != b.proto ? a.proto < b.proto : a.port < b.port;
  }
};

constexpr WellKnownPort tcp(std::uint16_t port, AppProtocol app) {
  return {ipproto::kTcp, port, app};
}
constexpr WellKnownPort udp(std::uint16_t port, AppProtocol app) {
  return {ipproto::kUdp, port, app};
}

// The (transport, port) -> protocol table, sorted by (transport, port) at
// compile time for binary search.
constexpr auto kWellKnownPorts = [] {
  auto table = std::to_array<WellKnownPort>({
      tcp(ports::kHttp, AppProtocol::kHttp),
      tcp(ports::kHttpAlt, AppProtocol::kHttp),
      tcp(ports::kHttps, AppProtocol::kHttps),
      tcp(ports::kSmtp, AppProtocol::kSmtp),
      tcp(ports::kImap4, AppProtocol::kImap4),
      tcp(ports::kImapS, AppProtocol::kImapS),
      tcp(ports::kPop3, AppProtocol::kPop3),
      tcp(ports::kPopS, AppProtocol::kPopS),
      tcp(ports::kLdap, AppProtocol::kLdap),
      udp(ports::kLdap, AppProtocol::kLdap),
      tcp(ports::kFtp, AppProtocol::kFtp),
      tcp(ports::kFtpData, AppProtocol::kFtpData),
      tcp(ports::kHpss, AppProtocol::kHpss),
      tcp(ports::kSsh, AppProtocol::kSsh),
      tcp(ports::kTelnet, AppProtocol::kTelnet),
      tcp(ports::kRlogin, AppProtocol::kRlogin),
      tcp(ports::kX11, AppProtocol::kX11),
      tcp(ports::kDns, AppProtocol::kDns),
      udp(ports::kDns, AppProtocol::kDns),
      udp(ports::kNetbiosNs, AppProtocol::kNetbiosNs),
      udp(ports::kNetbiosDgm, AppProtocol::kNetbiosDgm),
      tcp(ports::kNetbiosSsn, AppProtocol::kNetbiosSsn),
      tcp(ports::kSrvLoc, AppProtocol::kSrvLoc),
      udp(ports::kSrvLoc, AppProtocol::kSrvLoc),
      tcp(ports::kPortmap, AppProtocol::kSunRpcPortmap),
      udp(ports::kPortmap, AppProtocol::kSunRpcPortmap),
      tcp(ports::kNfs, AppProtocol::kNfs),
      udp(ports::kNfs, AppProtocol::kNfs),
      tcp(ports::kNcp, AppProtocol::kNcp),
      udp(ports::kDhcpServer, AppProtocol::kDhcp),
      udp(ports::kDhcpClient, AppProtocol::kDhcp),
      tcp(ports::kIdent, AppProtocol::kIdent),
      udp(ports::kNtp, AppProtocol::kNtp),
      udp(ports::kSnmp, AppProtocol::kSnmp),
      udp(ports::kNavPing, AppProtocol::kNavPing),
      udp(ports::kSap, AppProtocol::kSap),
      udp(ports::kNetInfoLocal, AppProtocol::kNetInfoLocal),
      tcp(ports::kNetInfoLocal, AppProtocol::kNetInfoLocal),
      tcp(ports::kRtsp, AppProtocol::kRtsp),
      udp(ports::kIpVideo, AppProtocol::kIpVideo),
      tcp(ports::kRealStream, AppProtocol::kRealStream),
      udp(ports::kRealStream, AppProtocol::kRealStream),
      tcp(ports::kCifs, AppProtocol::kCifs),
      tcp(ports::kEpm, AppProtocol::kEndpointMapper),
      udp(ports::kEpm, AppProtocol::kEndpointMapper),
      tcp(ports::kVeritasCtrl, AppProtocol::kVeritasCtrl),
      tcp(ports::kVeritasData, AppProtocol::kVeritasData),
      tcp(ports::kDantz, AppProtocol::kDantz),
      udp(ports::kDantz, AppProtocol::kDantz),
      tcp(ports::kConnected, AppProtocol::kConnectedBackup),
      tcp(ports::kSteltor, AppProtocol::kSteltor),
      tcp(ports::kMetaSys, AppProtocol::kMetaSys),
      udp(ports::kMetaSys, AppProtocol::kMetaSys),
      tcp(ports::kLpd, AppProtocol::kLpd),
      tcp(ports::kIpp, AppProtocol::kIpp),
      tcp(ports::kOracleSql, AppProtocol::kOracleSql),
      tcp(ports::kMsSql, AppProtocol::kMsSql),
      udp(ports::kMsSql, AppProtocol::kMsSql),
  });
  std::sort(table.begin(), table.end());
  return table;
}();

static_assert(std::adjacent_find(kWellKnownPorts.begin(), kWellKnownPorts.end(),
                                 [](const WellKnownPort& a, const WellKnownPort& b) {
                                   return !(a < b);
                                 }) == kWellKnownPorts.end(),
              "a (transport, port) pair is listed twice");

AppProtocol lookup(std::uint8_t proto, std::uint16_t port) {
  const WellKnownPort key{proto, port, AppProtocol::kUnknown};
  const auto it = std::lower_bound(kWellKnownPorts.begin(), kWellKnownPorts.end(), key);
  return it != kWellKnownPorts.end() && !(key < *it) ? it->app : AppProtocol::kUnknown;
}

}  // namespace

AppProtocol AppRegistry::identify(const Connection& conn) const {
  const std::uint8_t proto = conn.key.proto;
  if (proto != ipproto::kTcp && proto != ipproto::kUdp) return AppProtocol::kUnknown;
  // The responder's side first, port then endpoint: an ephemeral client
  // port can be a listed port (8080, 6000, ...) too.
  AppProtocol p = lookup(proto, conn.key.dst_port);
  if (p != AppProtocol::kUnknown) return p;
  const bool tcp = proto == ipproto::kTcp;
  if (tcp && is_dcerpc_endpoint(conn.key.dst, conn.key.dst_port)) return AppProtocol::kDceRpc;
  p = lookup(proto, conn.key.src_port);
  if (p != AppProtocol::kUnknown) return p;
  if (tcp && is_dcerpc_endpoint(conn.key.src, conn.key.src_port)) return AppProtocol::kDceRpc;
  return AppProtocol::kUnknown;
}

void AppRegistry::register_dcerpc_endpoint(Ipv4Address server, std::uint16_t port) {
  dcerpc_endpoints_.insert({server.value(), port});
}

bool AppRegistry::is_dcerpc_endpoint(Ipv4Address server, std::uint16_t port) const {
  return dcerpc_endpoints_.count({server.value(), port}) > 0;
}

}  // namespace entrace
