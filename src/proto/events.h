// Typed application-layer events emitted by the protocol parsers and
// consumed by the analysis modules.  One AppEvents instance accumulates all
// events of a dataset.
//
// An event holds only what a report line, a metric or a shipped tool reads
// of it (DESIGN.md §9 lists each field's reader, and tests/field_audit_test.cc
// checks that mutating it moves the report).  Parsers still parse whatever
// they need for framing (an HTTP request line, a DNS question), but keep
// none of it.  SMTP commands and Endpoint Mapper mappings are counts: the
// report reads only how many there were, and a mapping's endpoint goes
// straight into the stream's AppRegistry.
//
// An event that a per-host analysis groups carries its connection's
// endpoints by value (src, dst: Connection::key.src and key.dst at
// emission), the way Zeek's application logs carry id.orig_h / id.resp_h.
// No event holds a pointer into a FlowTable, so a shard's events stay valid
// when its connections are copied, rotated, folded or decoded.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "flow/connection.h"
#include "net/ip_address.h"

namespace entrace {

// ---- HTTP (§5.1.1) ---------------------------------------------------------
struct HttpTransaction {
  Ipv4Address src, dst;  // the connection's originator and responder
  std::string user_agent;
  bool conditional = false;  // carried an If-Modified-Since / If-None-Match
  bool has_response = false;
  int status = 0;
  std::string content_type;     // media type only, e.g. "image/gif"
  std::uint64_t resp_body_len = 0;
};

// ---- DNS / Netbios-NS (§5.1.3) ----------------------------------------------
namespace dnstype {
inline constexpr std::uint16_t kA = 1;
inline constexpr std::uint16_t kPtr = 12;
inline constexpr std::uint16_t kMx = 15;
inline constexpr std::uint16_t kAaaa = 28;
}  // namespace dnstype

namespace dnsrcode {
inline constexpr int kNoError = 0;
inline constexpr int kNxDomain = 3;
}  // namespace dnsrcode

struct DnsTransaction {
  Ipv4Address src, dst;  // the connection's originator and responder
  double query_ts = 0.0;
  double resp_ts = 0.0;
  std::uint16_t qtype = 0;
  bool has_response = false;
  int rcode = -1;
  double latency() const { return resp_ts - query_ts; }
};

enum class NbnsOpcode : std::uint8_t { kQuery, kRegistration, kRelease, kRefresh, kStatus };
enum class NbnsNameType : std::uint8_t { kWorkstation, kServer, kDomain, kOther };

struct NbnsTransaction {
  Ipv4Address src;  // the connection's originator
  NbnsOpcode opcode = NbnsOpcode::kQuery;
  NbnsNameType name_type = NbnsNameType::kWorkstation;
  std::string name;
  bool has_response = false;
  int rcode = -1;  // 0 = positive, 3 = name error (NXDOMAIN analogue)
};

// ---- Windows services (§5.2.1) -----------------------------------------------
enum class NbssEventType : std::uint8_t { kRequest, kPositiveResponse, kNegativeResponse };

struct NbssEvent {
  Ipv4Address src, dst;  // the connection's originator and responder
  NbssEventType type = NbssEventType::kRequest;
};

// CIFS command categories of Table 10.
enum class CifsCategory : std::uint8_t {
  kSmbBasic,
  kRpcPipe,
  kFileSharing,
  kLanman,
  kOther,
};
const char* to_string(CifsCategory c);

struct CifsCommand {
  CifsCategory category = CifsCategory::kOther;
  Direction dir = Direction::kOrigToResp;
  std::uint32_t msg_bytes = 0;  // whole SMB message incl. data payload
};

// DCE/RPC interfaces the paper's Table 11 breaks out.
enum class DceIface : std::uint8_t { kNetLogon, kLsaRpc, kSpoolss, kEpm, kSamr, kWkssvc, kOther };
const char* to_string(DceIface i);

struct DceRpcCall {
  DceIface iface = DceIface::kOther;
  std::uint16_t opnum = 0;
  bool over_pipe = false;  // named pipe vs stand-alone TCP
  bool is_request = true;
  std::uint32_t bytes = 0;  // PDU size
};

// Spoolss opnums we distinguish ("WritePrinter" vs other).
namespace spoolss_op {
inline constexpr std::uint16_t kWritePrinter = 19;
inline constexpr std::uint16_t kStartDocPrinter = 17;
inline constexpr std::uint16_t kEndDocPrinter = 23;
inline constexpr std::uint16_t kOpenPrinter = 1;
}  // namespace spoolss_op

// ---- NFS / NCP (§5.2.2) -------------------------------------------------------
// NFSv3 procedure numbers (RFC 1813).
namespace nfsproc {
inline constexpr std::uint32_t kGetAttr = 1;
inline constexpr std::uint32_t kLookup = 3;
inline constexpr std::uint32_t kAccess = 4;
inline constexpr std::uint32_t kRead = 6;
inline constexpr std::uint32_t kWrite = 7;
}  // namespace nfsproc

struct NfsCall {
  Ipv4Address src, dst;  // the connection's originator and responder
  std::uint32_t proc = 0;
  bool has_reply = false;
  std::uint32_t status = 0;  // 0 = NFS3_OK
  std::uint32_t req_bytes = 0;   // RPC message size (headers excluded)
  std::uint32_t resp_bytes = 0;
};

// NCP request categories (Table 14 rows).
enum class NcpFunction : std::uint8_t {
  kRead,
  kWrite,
  kFileDirInfo,
  kFileOpenClose,
  kFileSize,
  kFileSearch,
  kDirectoryService,
  kOther,
};
const char* to_string(NcpFunction f);

struct NcpCall {
  Ipv4Address src, dst;  // the connection's originator and responder
  NcpFunction function = NcpFunction::kOther;
  bool has_reply = false;
  std::uint8_t completion_code = 0;  // 0 = success
  std::uint32_t req_bytes = 0;
  std::uint32_t resp_bytes = 0;
};

// ---- Collector ----------------------------------------------------------------
struct AppEvents {
  std::vector<HttpTransaction> http;
  std::uint64_t smtp = 0;  // SMTP commands (HELO, MAIL, RCPT, DATA, QUIT ...)
  std::vector<DnsTransaction> dns;
  std::vector<NbnsTransaction> nbns;
  std::vector<NbssEvent> nbss;
  std::vector<CifsCommand> cifs;
  std::vector<DceRpcCall> dcerpc;
  std::uint64_t epm = 0;  // Endpoint Mapper mappings decoded
  std::vector<NfsCall> nfs;
  std::vector<NcpCall> ncp;

  std::size_t total() const {
    return http.size() + smtp + dns.size() + nbns.size() + nbss.size() + cifs.size() +
           dcerpc.size() + epm + nfs.size() + ncp.size();
  }

  // Append another shard's events (moved from) and add its counts.
  // Folding per-trace shards in trace-index order reproduces the event
  // order of a serial pass.
  void merge(AppEvents&& other);
};

}  // namespace entrace
