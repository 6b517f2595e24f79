#include "proto/netbios.h"

#include "net/bytes.h"

namespace entrace {

std::string nbns_encode_name(const std::string& name, std::uint8_t suffix) {
  std::string padded = name.substr(0, 15);
  for (char& c : padded) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  padded.resize(15, ' ');
  padded.push_back(static_cast<char>(suffix));
  std::string encoded;
  encoded.reserve(32);
  for (char c : padded) {
    const auto b = static_cast<std::uint8_t>(c);
    encoded.push_back(static_cast<char>('A' + (b >> 4)));
    encoded.push_back(static_cast<char>('A' + (b & 0x0F)));
  }
  return encoded;
}

bool nbns_decode_name(const std::string& encoded, std::string& name, std::uint8_t& suffix) {
  if (encoded.size() != 32) return false;
  std::string decoded;
  decoded.reserve(16);
  for (std::size_t i = 0; i < 32; i += 2) {
    const int hi = encoded[i] - 'A';
    const int lo = encoded[i + 1] - 'A';
    if (hi < 0 || hi > 15 || lo < 0 || lo > 15) return false;
    decoded.push_back(static_cast<char>((hi << 4) | lo));
  }
  suffix = static_cast<std::uint8_t>(decoded[15]);
  decoded.resize(15);
  while (!decoded.empty() && decoded.back() == ' ') decoded.pop_back();
  name = decoded;
  return true;
}

std::vector<std::uint8_t> encode_nbns(const NbnsMessage& msg) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u16be(msg.id);
  std::uint16_t flags = 0;
  if (msg.is_response) flags |= 0x8000 | 0x0400;  // response + authoritative
  flags |= static_cast<std::uint16_t>((msg.opcode & 0x0F) << 11);
  flags |= static_cast<std::uint16_t>(msg.rcode & 0x0F);
  w.u16be(flags);
  w.u16be(msg.is_response ? 0 : 1);  // qdcount
  w.u16be(msg.is_response ? 1 : 0);  // ancount
  w.u16be(0);
  w.u16be(0);
  const std::string encoded = nbns_encode_name(msg.name, msg.suffix);
  w.u8(32);
  w.bytes(encoded);
  w.u8(0);
  w.u16be(0x0020);  // NB
  w.u16be(1);       // IN
  if (msg.is_response) {
    w.u32be(300);   // TTL
    w.u16be(6);     // rdlength: flags + address
    w.u16be(0);     // nb_flags
    w.u32be(0x0A000001);
  }
  return out;
}

std::optional<NbnsMessage> decode_nbns(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  NbnsMessage msg;
  msg.id = r.u16be();
  const std::uint16_t flags = r.u16be();
  msg.is_response = (flags & 0x8000) != 0;
  msg.opcode = static_cast<std::uint8_t>((flags >> 11) & 0x0F);
  msg.rcode = flags & 0x0F;
  r.u16be();  // qdcount
  r.u16be();  // ancount
  r.u16be();
  r.u16be();
  const std::uint8_t name_len = r.u8();
  if (!r.ok() || name_len != 32) return std::nullopt;
  const std::string encoded = r.string(32);
  if (r.u8() != 0) return std::nullopt;  // label terminator
  if (!r.ok()) return std::nullopt;
  if (!nbns_decode_name(encoded, msg.name, msg.suffix)) return std::nullopt;
  return msg;
}

NbnsNameType nbns_name_type(std::uint8_t suffix) {
  switch (suffix) {
    case nbns_suffix::kWorkstation:
      return NbnsNameType::kWorkstation;
    case nbns_suffix::kServer:
      return NbnsNameType::kServer;
    case nbns_suffix::kDomainMaster:
    case nbns_suffix::kDomainGroup:
    case nbns_suffix::kBrowser:
      return NbnsNameType::kDomain;
    default:
      return NbnsNameType::kOther;
  }
}

NbnsOpcode nbns_opcode_enum(std::uint8_t opcode) {
  switch (opcode) {
    case nbns_opcode::kQuery:
      return NbnsOpcode::kQuery;
    case nbns_opcode::kRegistration:
      return NbnsOpcode::kRegistration;
    case nbns_opcode::kRelease:
      return NbnsOpcode::kRelease;
    case nbns_opcode::kRefresh:
      return NbnsOpcode::kRefresh;
    default:
      return NbnsOpcode::kStatus;
  }
}

NbnsParser::NbnsParser(std::vector<NbnsTransaction>& out) : out_(out) {}

void NbnsParser::on_data(Connection& conn, Direction dir, double ts,
                         std::span<const std::uint8_t> data) {
  (void)dir;
  (void)ts;
  auto msg = decode_nbns(data);
  if (!msg) {
    note_anomaly(AnomalyKind::kAppParseError);
    return;
  }
  if (!msg->is_response) {
    NbnsTransaction txn;
    txn.src = conn.key.src;
    txn.opcode = nbns_opcode_enum(msg->opcode);
    txn.name_type = nbns_name_type(msg->suffix);
    txn.name = msg->name;
    pending_[msg->id] = std::move(txn);
  } else {
    auto it = pending_.find(msg->id);
    if (it == pending_.end()) return;
    NbnsTransaction txn = std::move(it->second);
    pending_.erase(it);
    txn.has_response = true;
    txn.rcode = msg->rcode;
    out_.push_back(std::move(txn));
  }
}

void NbnsParser::on_close(Connection& conn) {
  (void)conn;
  for (auto& [id, txn] : pending_) out_.push_back(std::move(txn));
  pending_.clear();
}

}  // namespace entrace
