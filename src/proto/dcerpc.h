// DCE/RPC connection-oriented PDUs (§5.2.1, Table 11).
//
// The paper had to build rich analyzers to attribute Windows traffic to
// DCE/RPC functions across two channels: named pipes over CIFS and
// stand-alone TCP endpoints discovered via the Endpoint Mapper.  This
// module provides PDU encode/decode and a stream reassembler used by both
// channels: the CifsParser feeds pipe write/read payloads through
// DceRpcStream, and DceRpcParser handles stand-alone TCP connections.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "net/ip_address.h"
#include "proto/events.h"
#include "proto/parser.h"
#include "proto/registry.h"
#include "proto/stream_buffer.h"

namespace entrace {

namespace dce_ptype {
inline constexpr std::uint8_t kRequest = 0;
inline constexpr std::uint8_t kResponse = 2;
inline constexpr std::uint8_t kBind = 11;
inline constexpr std::uint8_t kBindAck = 12;
}  // namespace dce_ptype

using DceUuid = std::array<std::uint8_t, 16>;

// Well-known interface UUIDs.
const DceUuid& dce_uuid(DceIface iface);
DceIface dce_iface_from_uuid(const DceUuid& uuid);

struct DcePdu {
  std::uint8_t ptype = dce_ptype::kRequest;
  std::uint32_t call_id = 0;
  std::uint16_t frag_len = 0;
  std::uint16_t opnum = 0;           // valid for requests
  std::optional<DceUuid> bind_uuid;  // valid for binds
  std::vector<std::uint8_t> stub;    // stub data (requests/responses)
};

std::vector<std::uint8_t> encode_dce_bind(std::uint32_t call_id, const DceUuid& iface);
std::vector<std::uint8_t> encode_dce_bind_ack(std::uint32_t call_id);
std::vector<std::uint8_t> encode_dce_request(std::uint32_t call_id, std::uint16_t opnum,
                                             std::size_t stub_len);
std::vector<std::uint8_t> encode_dce_response(std::uint32_t call_id, std::size_t stub_len);
// Request with explicit stub content (used for EPM).
std::vector<std::uint8_t> encode_dce_request_stub(std::uint32_t call_id, std::uint16_t opnum,
                                                  std::span<const std::uint8_t> stub);
std::vector<std::uint8_t> encode_dce_response_stub(std::uint32_t call_id,
                                                   std::span<const std::uint8_t> stub);

// EPM ept_map stub: [iface uuid][ipv4][port].
std::vector<std::uint8_t> encode_epm_map_stub(const DceUuid& iface, Ipv4Address server,
                                              std::uint16_t port);
bool decode_epm_map_stub(std::span<const std::uint8_t> stub, DceUuid& iface, Ipv4Address& server,
                         std::uint16_t& port);

// Decode a single PDU from a complete buffer (frag_len bytes).
std::optional<DcePdu> decode_dce_pdu(std::span<const std::uint8_t> data);

// Reassembles a byte stream into PDUs.
class DceRpcStream {
 public:
  // Feed data; complete PDUs are appended to `out`.  When `anomalies` is
  // non-null, garbage-byte resyncs (once per contiguous run) and buffer
  // overflow (once per stream) are counted as kAppParseError.
  void feed(std::span<const std::uint8_t> data, std::vector<DcePdu>& out,
            AnomalyCounts* anomalies = nullptr);

 private:
  StreamBuffer buf_;
  bool overflow_noted_ = false;
};

// Sink shared by the stand-alone parser and the CIFS pipe path: translates
// PDUs into DceRpcCall events.  A decoded Endpoint Mapper reply registers
// its (server, port) in `registry` at once, so the next connection to that
// endpoint is identified as DCE/RPC, and adds one to `mappings`.
class DceRpcSession {
 public:
  DceRpcSession(std::vector<DceRpcCall>& calls, AppRegistry& registry, std::uint64_t& mappings,
                bool over_pipe);

  void handle_pdu(const DcePdu& pdu);
  DceIface bound_iface() const { return iface_; }

 private:
  std::vector<DceRpcCall>& calls_;
  AppRegistry& registry_;
  std::uint64_t& mappings_;
  bool over_pipe_;
  DceIface iface_ = DceIface::kOther;
  std::map<std::uint32_t, std::uint16_t> call_opnums_;
};

class DceRpcParser : public AppParser {
 public:
  DceRpcParser(std::vector<DceRpcCall>& calls, AppRegistry& registry, std::uint64_t& mappings);

  void on_data(Connection& conn, Direction dir, double ts,
               std::span<const std::uint8_t> data) override;

 private:
  DceRpcStream orig_stream_;
  DceRpcStream resp_stream_;
  DceRpcSession session_;
};

}  // namespace entrace
