// CIFS/SMB parsing and encoding (§5.2.1, Tables 9-11).
//
// We implement a documented subset of SMB1: NBSS framing (shared by TCP 139
// and 445 — the paper found hosts use the two ports interchangeably), the
// command set needed to reproduce Table 10's categories, FID tracking to
// distinguish Windows File Sharing from DCE/RPC named pipes, and LANMAN
// transactions.  Pipe payloads are handed to DceRpcStream/DceRpcSession so
// pipe-borne RPC shows up in the Table 11 function breakdown.
//
// Message layout (subset, little-endian SMB conventions):
//   NBSS:  type u8 | flags u8 | length u16be
//   SMB:   0xFF 'S' 'M' 'B' | cmd u8 | status u32le | flags u8 | flags2
//          u16le | pid_high u16le | signature[8] | reserved u16le | tid
//          u16le | pid u16le | uid u16le | mid u16le
//   body:  word_count u8 | words[2*wc] | byte_count u16le | bytes
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "proto/dcerpc.h"
#include "proto/events.h"
#include "proto/parser.h"
#include "proto/stream_buffer.h"

namespace entrace {

namespace smbcmd {
inline constexpr std::uint8_t kClose = 0x04;
inline constexpr std::uint8_t kTrans = 0x25;
inline constexpr std::uint8_t kEcho = 0x2B;
inline constexpr std::uint8_t kReadAndX = 0x2E;
inline constexpr std::uint8_t kWriteAndX = 0x2F;
inline constexpr std::uint8_t kTreeDisconnect = 0x71;
inline constexpr std::uint8_t kNegotiate = 0x72;
inline constexpr std::uint8_t kSessionSetup = 0x73;
inline constexpr std::uint8_t kLogoff = 0x74;
inline constexpr std::uint8_t kTreeConnect = 0x75;
inline constexpr std::uint8_t kNtCreate = 0xA2;
}  // namespace smbcmd

namespace nbss {
inline constexpr std::uint8_t kSessionMessage = 0x00;
inline constexpr std::uint8_t kSessionRequest = 0x81;
inline constexpr std::uint8_t kPositiveResponse = 0x82;
inline constexpr std::uint8_t kNegativeResponse = 0x83;
}  // namespace nbss

// ---- Encoders (used by the trace generator) --------------------------------

std::vector<std::uint8_t> nbss_frame(std::uint8_t type, std::span<const std::uint8_t> payload);
std::vector<std::uint8_t> nbss_session_request(const std::string& called,
                                               const std::string& calling);
std::vector<std::uint8_t> nbss_session_response(bool positive);

// Full NBSS-framed SMB message.
std::vector<std::uint8_t> smb_message(std::uint8_t cmd, std::uint16_t mid, bool is_response,
                                      std::span<const std::uint8_t> words,
                                      std::span<const std::uint8_t> bytes);

std::vector<std::uint8_t> smb_simple(std::uint8_t cmd, std::uint16_t mid, bool is_response,
                                     std::size_t byte_payload = 0);
std::vector<std::uint8_t> smb_ntcreate_request(std::uint16_t mid, const std::string& path);
std::vector<std::uint8_t> smb_ntcreate_response(std::uint16_t mid, std::uint16_t fid);
std::vector<std::uint8_t> smb_read_request(std::uint16_t mid, std::uint16_t fid,
                                           std::uint16_t count);
std::vector<std::uint8_t> smb_read_response(std::uint16_t mid, std::uint16_t fid,
                                            std::span<const std::uint8_t> data);
std::vector<std::uint8_t> smb_write_request(std::uint16_t mid, std::uint16_t fid,
                                            std::span<const std::uint8_t> data);
std::vector<std::uint8_t> smb_write_response(std::uint16_t mid, std::uint16_t fid);
std::vector<std::uint8_t> smb_trans(std::uint16_t mid, bool is_response,
                                    const std::string& pipe_name, std::size_t data_len);

// Known DCE/RPC pipe names.
std::optional<DceIface> pipe_iface(const std::string& name);

// ---- Parser -----------------------------------------------------------------

class CifsParser : public AppParser {
 public:
  // netbios_framing: true for TCP 139 (session request handshake precedes
  // SMB), false for TCP 445 (direct).  Both use NBSS record framing.  Pipe
  // sessions register the Endpoint Mapper replies they decode in `registry`.
  CifsParser(AppEvents& events, AppRegistry& registry, bool netbios_framing);

  void on_data(Connection& conn, Direction dir, double ts,
               std::span<const std::uint8_t> data) override;

 private:
  struct PipeState {
    DceRpcStream to_server;
    DceRpcStream to_client;
    std::unique_ptr<DceRpcSession> session;
  };

  void parse_stream(const Connection& conn, Direction dir, StreamBuffer& buf);
  void handle_smb(Direction dir, std::span<const std::uint8_t> smb, std::uint32_t framed_len);
  CifsCategory classify(std::uint8_t cmd, std::uint16_t fid, const std::string& trans_name);
  PipeState& pipe_state(std::uint16_t fid);

  AppEvents& events_;
  AppRegistry& registry_;
  bool netbios_framing_;
  StreamBuffer client_buf_;
  StreamBuffer server_buf_;
  // mid -> path for in-flight NT Create requests.
  std::map<std::uint16_t, std::string> pending_creates_;
  // fid -> pipe interface (files are absent from the map).
  std::map<std::uint16_t, DceIface> pipe_fids_;
  std::map<std::uint16_t, PipeState> pipes_;
  bool broken_ = false;
};

}  // namespace entrace
