// Application protocol identification and the category grouping of the
// paper's Table 4.
//
// Identification is primarily port-based (as in the paper's Bro policy),
// with one dynamic element: DCE/RPC services on ephemeral ports are
// identified by watching Endpoint Mapper traffic (§5.2.1), which the
// DCE/RPC parsers register here as they decode it.  The well-known port
// table is one sorted constant array shared by the whole process; an
// AppRegistry holds only its dynamic endpoints, so a fresh one allocates
// nothing.  Each trace's engine (TraceStream) owns one for the life of the
// trace; identification is its only reader, so no shard carries one.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <utility>

#include "flow/connection.h"

namespace entrace {

enum class AppProtocol : std::uint16_t {
  kUnknown = 0,
  // web
  kHttp,
  kHttps,
  // email
  kSmtp,
  kImap4,
  kImapS,
  kPop3,
  kPopS,
  kLdap,
  // bulk
  kFtp,
  kFtpData,
  kHpss,
  // interactive
  kSsh,
  kTelnet,
  kRlogin,
  kX11,
  // name
  kDns,
  kNetbiosNs,
  kSrvLoc,
  kSunRpcPortmap,
  // net-file
  kNfs,
  kNcp,
  // net-mgnt
  kDhcp,
  kIdent,
  kNtp,
  kSnmp,
  kNavPing,
  kSap,
  kNetInfoLocal,
  // streaming
  kRtsp,
  kIpVideo,
  kRealStream,
  // windows
  kCifs,
  kDceRpc,
  kNetbiosSsn,
  kNetbiosDgm,
  kEndpointMapper,
  // backup
  kVeritasCtrl,
  kVeritasData,
  kDantz,
  kConnectedBackup,
  // misc
  kSteltor,
  kMetaSys,
  kLpd,
  kIpp,
  kOracleSql,
  kMsSql,
};

// Paper Table 4 categories (plus the two catch-alls of Figure 1).
enum class AppCategory : std::uint8_t {
  kWeb,
  kEmail,
  kNetFile,
  kBackup,
  kBulk,
  kName,
  kInteractive,
  kWindows,
  kStreaming,
  kNetMgnt,
  kMisc,
  kOtherTcp,
  kOtherUdp,
};

inline constexpr std::size_t kNumCategories = 13;

const char* to_string(AppProtocol p);
const char* to_string(AppCategory c);
AppCategory category_of(AppProtocol p);

// Well-known port constants used by both the generator and the registry.
namespace ports {
inline constexpr std::uint16_t kHttp = 80;
inline constexpr std::uint16_t kHttpAlt = 8080;
inline constexpr std::uint16_t kHttps = 443;
inline constexpr std::uint16_t kSmtp = 25;
inline constexpr std::uint16_t kImap4 = 143;
inline constexpr std::uint16_t kImapS = 993;
inline constexpr std::uint16_t kPop3 = 110;
inline constexpr std::uint16_t kPopS = 995;
inline constexpr std::uint16_t kLdap = 389;
inline constexpr std::uint16_t kFtp = 21;
inline constexpr std::uint16_t kFtpData = 20;
inline constexpr std::uint16_t kHpss = 1217;
inline constexpr std::uint16_t kSsh = 22;
inline constexpr std::uint16_t kTelnet = 23;
inline constexpr std::uint16_t kRlogin = 513;
inline constexpr std::uint16_t kX11 = 6000;
inline constexpr std::uint16_t kDns = 53;
inline constexpr std::uint16_t kNetbiosNs = 137;
inline constexpr std::uint16_t kNetbiosDgm = 138;
inline constexpr std::uint16_t kNetbiosSsn = 139;
inline constexpr std::uint16_t kSrvLoc = 427;
inline constexpr std::uint16_t kPortmap = 111;
inline constexpr std::uint16_t kNfs = 2049;
inline constexpr std::uint16_t kNcp = 524;
inline constexpr std::uint16_t kDhcpServer = 67;
inline constexpr std::uint16_t kDhcpClient = 68;
inline constexpr std::uint16_t kIdent = 113;
inline constexpr std::uint16_t kNtp = 123;
inline constexpr std::uint16_t kSnmp = 161;
inline constexpr std::uint16_t kNavPing = 38293;
inline constexpr std::uint16_t kSap = 9875;
inline constexpr std::uint16_t kNetInfoLocal = 1033;
inline constexpr std::uint16_t kRtsp = 554;
inline constexpr std::uint16_t kIpVideo = 5004;
inline constexpr std::uint16_t kRealStream = 7070;
inline constexpr std::uint16_t kCifs = 445;
inline constexpr std::uint16_t kEpm = 135;
inline constexpr std::uint16_t kVeritasCtrl = 13720;
inline constexpr std::uint16_t kVeritasData = 13724;
inline constexpr std::uint16_t kDantz = 497;
inline constexpr std::uint16_t kConnected = 16384;
inline constexpr std::uint16_t kSteltor = 4032;
inline constexpr std::uint16_t kMetaSys = 11001;
inline constexpr std::uint16_t kLpd = 515;
inline constexpr std::uint16_t kIpp = 631;
inline constexpr std::uint16_t kOracleSql = 1521;
inline constexpr std::uint16_t kMsSql = 1433;
}  // namespace ports

class AppRegistry {
 public:
  // Identify a connection by its (proto, port) pair and the dynamically
  // registered DCE/RPC endpoints, in this order: the responder's port, the
  // responder's endpoint, the originator's port, the originator's endpoint.
  AppProtocol identify(const Connection& conn) const;

  // Register a dynamically mapped DCE/RPC endpoint learned from Endpoint
  // Mapper traffic.
  void register_dcerpc_endpoint(Ipv4Address server, std::uint16_t port);
  bool is_dcerpc_endpoint(Ipv4Address server, std::uint16_t port) const;
  std::size_t dynamic_endpoint_count() const { return dcerpc_endpoints_.size(); }

 private:
  std::set<std::pair<std::uint32_t, std::uint16_t>> dcerpc_endpoints_;
};

}  // namespace entrace
