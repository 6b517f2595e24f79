#include "proto/nfs.h"

#include <algorithm>
#include <cstring>

#include "net/bytes.h"

namespace entrace {
namespace {

// The opaque arg/result stubs are pure functions of byte index, so they are
// prefixes of a fixed sequence; a shared table turns the per-call fill into
// a memcpy.  64 KiB covers the generator's sizes; larger requests fall back
// to the loop.
constexpr std::size_t kStubTable = 64 * 1024;

const std::uint8_t* stub_table(std::uint8_t step) {
  static const std::vector<std::uint8_t> t3 = [] {
    std::vector<std::uint8_t> t(kStubTable);
    for (std::size_t i = 0; i < t.size(); ++i) t[i] = static_cast<std::uint8_t>(i * 3);
    return t;
  }();
  static const std::vector<std::uint8_t> t7 = [] {
    std::vector<std::uint8_t> t(kStubTable);
    for (std::size_t i = 0; i < t.size(); ++i) t[i] = static_cast<std::uint8_t>(i * 7);
    return t;
  }();
  return step == 3 ? t3.data() : t7.data();
}

void append_stub(std::vector<std::uint8_t>& out, std::size_t len, std::uint8_t step) {
  const std::size_t base = out.size();
  out.resize(base + len);
  if (len <= kStubTable) {
    std::memcpy(out.data() + base, stub_table(step), len);
    return;
  }
  for (std::size_t i = 0; i < len; ++i) out[base + i] = static_cast<std::uint8_t>(i * step);
}

}  // namespace

std::vector<std::uint8_t> encode_rpc_call(std::uint32_t xid, std::uint32_t prog,
                                          std::uint32_t vers, std::uint32_t proc,
                                          std::size_t arg_len) {
  std::vector<std::uint8_t> out;
  out.reserve(40 + arg_len);
  ByteWriter w(out);
  w.u32be(xid);
  w.u32be(0);  // CALL
  w.u32be(2);  // RPC version
  w.u32be(prog);
  w.u32be(vers);
  w.u32be(proc);
  w.u32be(0);  // cred flavor AUTH_NONE
  w.u32be(0);  // cred length
  w.u32be(0);  // verf flavor
  w.u32be(0);  // verf length
  append_stub(out, arg_len, 7);
  return out;
}

std::vector<std::uint8_t> encode_rpc_reply(std::uint32_t xid, std::uint32_t nfs_status,
                                           std::size_t result_len) {
  std::vector<std::uint8_t> out;
  out.reserve(28 + result_len);
  ByteWriter w(out);
  w.u32be(xid);
  w.u32be(1);  // REPLY
  w.u32be(0);  // MSG_ACCEPTED
  w.u32be(0);  // verf flavor
  w.u32be(0);  // verf length
  w.u32be(0);  // accept_stat SUCCESS
  w.u32be(nfs_status);
  append_stub(out, result_len, 3);
  return out;
}

std::vector<std::uint8_t> rpc_record_mark(std::span<const std::uint8_t> msg) {
  std::vector<std::uint8_t> out;
  out.reserve(4 + msg.size());
  ByteWriter w(out);
  w.u32be(0x80000000u | static_cast<std::uint32_t>(msg.size()));
  w.bytes(msg);
  return out;
}

std::optional<RpcMessage> decode_rpc(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  RpcMessage msg;
  msg.body_len = static_cast<std::uint32_t>(data.size());
  msg.xid = r.u32be();
  const std::uint32_t mtype = r.u32be();
  if (!r.ok()) return std::nullopt;
  if (mtype == 0) {
    msg.is_call = true;
    const std::uint32_t rpcvers = r.u32be();
    msg.prog = r.u32be();
    msg.vers = r.u32be();
    msg.proc = r.u32be();
    const std::uint32_t cred_flavor = r.u32be();
    const std::uint32_t cred_len = r.u32be();
    (void)cred_flavor;
    r.skip(cred_len);
    r.u32be();  // verf flavor
    const std::uint32_t verf_len = r.u32be();
    r.skip(verf_len);
    if (!r.ok() || rpcvers != 2) return std::nullopt;
  } else if (mtype == 1) {
    msg.is_call = false;
    const std::uint32_t reply_stat = r.u32be();
    r.u32be();  // verf flavor
    const std::uint32_t verf_len = r.u32be();
    r.skip(verf_len);
    const std::uint32_t accept_stat = r.u32be();
    msg.status = r.u32be();
    if (!r.ok() || reply_stat != 0 || accept_stat != 0) return std::nullopt;
  } else {
    return std::nullopt;
  }
  return msg;
}

NfsParser::NfsParser(std::vector<NfsCall>& out, bool is_tcp) : out_(out), is_tcp_(is_tcp) {}

void NfsParser::on_datagram(Connection& conn, Direction dir, double ts,
                            std::span<const std::uint8_t> data, std::uint32_t wire_len) {
  if (!is_tcp_) {
    handle_message(conn, data, wire_len);
    return;
  }
  on_data(conn, dir, ts, data);
}

void NfsParser::on_data(Connection& conn, Direction dir, double ts,
                        std::span<const std::uint8_t> data) {
  (void)ts;
  if (!is_tcp_) {
    handle_message(conn, data, static_cast<std::uint32_t>(data.size()));
    return;
  }
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
    if (avail.size() < 4) break;
    const std::uint32_t mark = (static_cast<std::uint32_t>(avail[0]) << 24) |
                               (static_cast<std::uint32_t>(avail[1]) << 16) |
                               (static_cast<std::uint32_t>(avail[2]) << 8) | avail[3];
    const std::uint32_t len = mark & 0x7FFFFFFF;
    if (len > 1 << 20) {  // implausible: resync
      resynced = true;
      buf.consume(1);
      continue;
    }
    if (avail.size() < 4 + len) break;
    handle_message(conn, avail.subspan(4, len), len);
    buf.consume(4 + len);
  }
  if (resynced) note_anomaly(AnomalyKind::kAppParseError);
}

void NfsParser::handle_message(const Connection& conn, std::span<const std::uint8_t> msg,
                               std::uint32_t wire_len) {
  auto rpc = decode_rpc(msg);
  if (!rpc) {
    note_anomaly(AnomalyKind::kAppParseError);
    return;
  }
  const std::uint32_t size = std::max(wire_len, rpc->body_len);
  if (rpc->is_call) {
    if (rpc->prog != kNfsProgram) return;
    NfsCall call;
    call.src = conn.key.src;
    call.dst = conn.key.dst;
    call.proc = rpc->proc;
    call.req_bytes = size;
    pending_[rpc->xid] = call;
  } else {
    auto it = pending_.find(rpc->xid);
    if (it == pending_.end()) return;
    NfsCall call = it->second;
    pending_.erase(it);
    call.has_reply = true;
    call.status = rpc->status;
    call.resp_bytes = size;
    out_.push_back(call);
  }
}

void NfsParser::on_close(Connection& conn) {
  (void)conn;
  for (auto& [xid, call] : pending_) out_.push_back(call);
  pending_.clear();
}

}  // namespace entrace
