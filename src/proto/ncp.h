// Netware Core Protocol over IP (§5.2.2, Tables 12 & 14, Figures 7-8).
//
// NCP is, as the paper puts it, "a veritable kitchen-sink protocol
// supporting hundreds of message types, but primarily used within the
// enterprise for file-sharing and print service".  We implement the
// NCP-over-IP framing (the 'DmdT' signature) and the request function
// codes needed for the Table 14 breakdown, plus the paper's observed
// reply-size modes (2-byte completion-only replies, 10-byte GetFileSize
// replies, 260-byte ReadFile replies).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "proto/events.h"
#include "proto/parser.h"
#include "proto/stream_buffer.h"

namespace entrace {

namespace ncpfn {
inline constexpr std::uint8_t kRead = 72;
inline constexpr std::uint8_t kWrite = 73;
inline constexpr std::uint8_t kClose = 66;
inline constexpr std::uint8_t kOpen = 76;
inline constexpr std::uint8_t kGetFileSize = 71;
inline constexpr std::uint8_t kFileDirInfo = 87;
inline constexpr std::uint8_t kSearch = 62;
inline constexpr std::uint8_t kNds = 104;
}  // namespace ncpfn

struct NcpMessage {
  bool is_request = true;
  std::uint8_t sequence = 0;
  std::uint8_t function = 0;     // requests
  std::uint8_t completion = 0;   // replies (0 = success)
  std::uint32_t total_len = 0;   // framed length
};

std::vector<std::uint8_t> encode_ncp_request(std::uint8_t sequence, std::uint8_t function,
                                             std::size_t payload_len);
std::vector<std::uint8_t> encode_ncp_reply(std::uint8_t sequence, std::uint8_t completion,
                                           std::size_t payload_len);

NcpFunction ncp_function_enum(std::uint8_t function);

class NcpParser : public AppParser {
 public:
  explicit NcpParser(std::vector<NcpCall>& out);

  void on_data(Connection& conn, Direction dir, double ts,
               std::span<const std::uint8_t> data) override;
  void on_close(Connection& conn) override;

 private:
  void handle_message(const Connection& conn, const NcpMessage& msg);

  std::vector<NcpCall>& out_;
  bool broken_ = false;  // a stream buffer overflowed; stop parsing
  StreamBuffer orig_buf_;
  StreamBuffer resp_buf_;
  std::map<std::uint8_t, NcpCall> pending_;
};

}  // namespace entrace
