#include "proto/ncp.h"

#include "net/bytes.h"

namespace entrace {
namespace {

constexpr std::uint32_t kNcpSignature = 0x446D6454;  // 'DmdT'
constexpr std::size_t kFrameHeader = 8;              // signature + length
constexpr std::size_t kNcpHeader = 8;                // type..function/completion

std::vector<std::uint8_t> encode_frame(std::uint16_t type, std::uint8_t sequence,
                                       std::uint8_t code, std::size_t payload_len) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeader + kNcpHeader + payload_len);
  ByteWriter w(out);
  w.u32be(kNcpSignature);
  w.u32be(static_cast<std::uint32_t>(kFrameHeader + kNcpHeader + payload_len));
  w.u16be(type);
  w.u8(sequence);
  w.u8(1);     // connection number (low)
  w.u8(0);     // task
  w.u8(0);     // connection (high) / reserved
  w.u8(code);  // function (request) or completion code (reply)
  w.u8(0);     // subfunction / connection status
  for (std::size_t i = 0; i < payload_len; ++i) out.push_back(static_cast<std::uint8_t>(i));
  return out;
}

}  // namespace

std::vector<std::uint8_t> encode_ncp_request(std::uint8_t sequence, std::uint8_t function,
                                             std::size_t payload_len) {
  return encode_frame(0x2222, sequence, function, payload_len);
}

std::vector<std::uint8_t> encode_ncp_reply(std::uint8_t sequence, std::uint8_t completion,
                                           std::size_t payload_len) {
  return encode_frame(0x3333, sequence, completion, payload_len);
}

NcpFunction ncp_function_enum(std::uint8_t function) {
  switch (function) {
    case ncpfn::kRead:
      return NcpFunction::kRead;
    case ncpfn::kWrite:
      return NcpFunction::kWrite;
    case ncpfn::kFileDirInfo:
      return NcpFunction::kFileDirInfo;
    case ncpfn::kOpen:
    case ncpfn::kClose:
      return NcpFunction::kFileOpenClose;
    case ncpfn::kGetFileSize:
      return NcpFunction::kFileSize;
    case ncpfn::kSearch:
      return NcpFunction::kFileSearch;
    case ncpfn::kNds:
      return NcpFunction::kDirectoryService;
    default:
      return NcpFunction::kOther;
  }
}

NcpParser::NcpParser(std::vector<NcpCall>& out) : out_(out) {}

void NcpParser::on_data(Connection& conn, Direction dir, double ts,
                        std::span<const std::uint8_t> data) {
  (void)ts;
  StreamBuffer& buf = dir == Direction::kOrigToResp ? orig_buf_ : resp_buf_;
  if (broken_) return;
  buf.append(data);
  if (buf.overflowed()) {
    broken_ = true;
    note_anomaly(AnomalyKind::kAppParseError);
    return;
  }
  bool resynced = false;  // count a contiguous resync run once, not per byte
  for (;;) {
    auto avail = buf.data();
    if (avail.size() < kFrameHeader + kNcpHeader) break;
    ByteReader r(avail);
    const std::uint32_t sig = r.u32be();
    const std::uint32_t total = r.u32be();
    if (sig != kNcpSignature || total < kFrameHeader + kNcpHeader || total > 1 << 20) {
      resynced = true;
      buf.consume(1);  // resync
      continue;
    }
    if (avail.size() < total) break;
    NcpMessage msg;
    const std::uint16_t type = r.u16be();
    msg.is_request = type == 0x2222;
    msg.sequence = r.u8();
    r.u8();  // connection low
    r.u8();  // task
    r.u8();  // reserved
    const std::uint8_t code = r.u8();
    if (msg.is_request) {
      msg.function = code;
    } else {
      msg.completion = code;
    }
    msg.total_len = total;
    handle_message(conn, msg);
    buf.consume(total);
  }
  if (resynced) note_anomaly(AnomalyKind::kAppParseError);
}

void NcpParser::handle_message(const Connection& conn, const NcpMessage& msg) {
  if (msg.is_request) {
    NcpCall call;
    call.src = conn.key.src;
    call.dst = conn.key.dst;
    call.function = ncp_function_enum(msg.function);
    call.req_bytes = msg.total_len;
    pending_[msg.sequence] = call;
  } else {
    auto it = pending_.find(msg.sequence);
    if (it == pending_.end()) return;
    NcpCall call = it->second;
    pending_.erase(it);
    call.has_reply = true;
    call.completion_code = msg.completion;
    call.resp_bytes = msg.total_len;
    out_.push_back(call);
  }
}

void NcpParser::on_close(Connection& conn) {
  (void)conn;
  for (auto& [seq, call] : pending_) out_.push_back(call);
  pending_.clear();
}

}  // namespace entrace
