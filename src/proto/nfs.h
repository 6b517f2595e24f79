// SunRPC / NFSv3 (§5.2.2, Tables 12-13, Figures 7-8).
//
// Implements RPC call/reply encoding (RFC 5531 subset), TCP record marking,
// and a parser that pairs calls with replies by xid.  The paper's NFS
// analysis runs over both UDP and TCP NFS — it found, surprisingly, that
// UDP NFS still dominated in several datasets — so the parser handles both
// framings.
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

inline constexpr std::uint32_t kNfsProgram = 100003;
inline constexpr std::uint32_t kNfsVersion = 3;

struct RpcMessage {
  std::uint32_t xid = 0;
  bool is_call = true;
  std::uint32_t prog = 0;
  std::uint32_t vers = 0;
  std::uint32_t proc = 0;
  std::uint32_t status = 0;   // NFS status for replies
  std::uint32_t body_len = 0;  // total RPC message length
};

std::vector<std::uint8_t> encode_rpc_call(std::uint32_t xid, std::uint32_t prog,
                                          std::uint32_t vers, std::uint32_t proc,
                                          std::size_t arg_len);
std::vector<std::uint8_t> encode_rpc_reply(std::uint32_t xid, std::uint32_t nfs_status,
                                           std::size_t result_len);
// Wrap an RPC message with TCP record marking (single, final fragment).
std::vector<std::uint8_t> rpc_record_mark(std::span<const std::uint8_t> msg);

std::optional<RpcMessage> decode_rpc(std::span<const std::uint8_t> data);

class NfsParser : public AppParser {
 public:
  // is_tcp selects record-marking reassembly.
  NfsParser(std::vector<NfsCall>& out, bool is_tcp);

  void on_data(Connection& conn, Direction dir, double ts,
               std::span<const std::uint8_t> data) override;
  // UDP NFS: an 8 KB read reply arrives as one (IP-fragmented) datagram and
  // may be snaplen-truncated; the wire length keeps size accounting honest.
  void on_datagram(Connection& conn, Direction dir, double ts,
                   std::span<const std::uint8_t> data, std::uint32_t wire_len) override;
  void on_close(Connection& conn) override;

 private:
  void handle_message(const Connection& conn, std::span<const std::uint8_t> msg,
                      std::uint32_t wire_len);

  std::vector<NfsCall>& out_;
  bool is_tcp_;
  bool broken_ = false;  // a stream buffer overflowed; stop parsing
  StreamBuffer orig_buf_;
  StreamBuffer resp_buf_;
  std::map<std::uint32_t, NfsCall> pending_;
};

}  // namespace entrace
