#include "proto/dns.h"

#include "net/bytes.h"

namespace entrace {
namespace {

void encode_qname(ByteWriter& w, const std::string& name) {
  std::size_t start = 0;
  while (start <= name.size()) {
    std::size_t dot = name.find('.', start);
    if (dot == std::string::npos) dot = name.size();
    const std::size_t len = dot - start;
    if (len == 0) break;
    w.u8(static_cast<std::uint8_t>(len > 63 ? 63 : len));
    w.bytes(std::string_view(name).substr(start, len > 63 ? 63 : len));
    start = dot + 1;
  }
  w.u8(0);
}

bool decode_qname(ByteReader& r, std::string& out) {
  out.clear();
  for (;;) {
    const std::uint8_t len = r.u8();
    if (!r.ok()) return false;
    if (len == 0) return true;
    if ((len & 0xC0) != 0) {  // compression pointer: consume 2nd byte, stop
      r.u8();
      return true;
    }
    if (!out.empty()) out += '.';
    out += r.string(len);
    if (!r.ok()) return false;
    if (out.size() > 512) return false;
  }
}

}  // namespace

std::vector<std::uint8_t> encode_dns(const DnsMessage& msg) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u16be(msg.id);
  std::uint16_t flags = 0;
  if (msg.is_response) flags |= 0x8000;
  flags |= static_cast<std::uint16_t>((msg.opcode & 0x0F) << 11);
  if (msg.is_response) flags |= 0x0100;  // RD copied
  flags |= static_cast<std::uint16_t>(msg.rcode & 0x0F);
  w.u16be(flags);
  w.u16be(1);  // qdcount
  w.u16be(msg.is_response ? msg.ancount : 0);
  w.u16be(0);  // nscount
  w.u16be(0);  // arcount
  encode_qname(w, msg.qname);
  w.u16be(msg.qtype);
  w.u16be(1);  // class IN
  if (msg.is_response) {
    for (std::uint16_t i = 0; i < msg.ancount; ++i) {
      encode_qname(w, msg.qname);
      w.u16be(msg.qtype);
      w.u16be(1);
      w.u32be(300);  // TTL
      if (msg.qtype == dnstype::kAaaa) {
        w.u16be(16);
        for (int j = 0; j < 4; ++j) w.u32be(0x20010db8 + i);
      } else if (msg.qtype == dnstype::kPtr || msg.qtype == dnstype::kMx) {
        // PTR: name; MX: pref + name.
        std::vector<std::uint8_t> rdata;
        ByteWriter rw(rdata);
        if (msg.qtype == dnstype::kMx) rw.u16be(10);
        encode_qname(rw, "host" + std::to_string(i) + ".example.org");
        w.u16be(static_cast<std::uint16_t>(rdata.size()));
        w.bytes(rdata);
      } else {
        w.u16be(4);
        w.u32be(0x0A000000 + i);
      }
    }
  }
  return out;
}

std::optional<DnsMessage> decode_dns(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  DnsMessage msg;
  msg.id = r.u16be();
  const std::uint16_t flags = r.u16be();
  msg.is_response = (flags & 0x8000) != 0;
  msg.opcode = static_cast<std::uint8_t>((flags >> 11) & 0x0F);
  msg.rcode = flags & 0x0F;
  const std::uint16_t qdcount = r.u16be();
  msg.ancount = r.u16be();
  r.u16be();  // nscount
  r.u16be();  // arcount
  if (!r.ok() || qdcount < 1) return std::nullopt;
  if (!decode_qname(r, msg.qname)) return std::nullopt;
  msg.qtype = r.u16be();
  r.u16be();  // class
  if (!r.ok()) return std::nullopt;
  return msg;
}

DnsParser::DnsParser(std::vector<DnsTransaction>& out) : out_(out) {}

void DnsParser::on_data(Connection& conn, Direction dir, double ts,
                        std::span<const std::uint8_t> data) {
  // TCP DNS has a 2-byte length prefix; we only model/parse UDP DNS, which
  // dominates the traces.
  (void)dir;
  auto msg = decode_dns(data);
  if (!msg) {
    note_anomaly(AnomalyKind::kAppParseError);
    return;
  }
  if (!msg->is_response) {
    DnsTransaction txn;
    txn.src = conn.key.src;
    txn.dst = conn.key.dst;
    txn.query_ts = ts;
    txn.qtype = msg->qtype;
    pending_[msg->id] = std::move(txn);
  } else {
    auto it = pending_.find(msg->id);
    if (it == pending_.end()) return;
    DnsTransaction txn = std::move(it->second);
    pending_.erase(it);
    txn.has_response = true;
    txn.resp_ts = ts;
    txn.rcode = msg->rcode;
    out_.push_back(std::move(txn));
  }
}

void DnsParser::on_close(Connection& conn) {
  (void)conn;
  for (auto& [id, txn] : pending_) out_.push_back(std::move(txn));
  pending_.clear();
}

}  // namespace entrace
