#include "proto/cifs.h"

#include "net/bytes.h"
#include "proto/netbios.h"

namespace entrace {
namespace {

constexpr std::size_t kSmbHeaderSize = 32;

void encode_smb_header(ByteWriter& w, std::uint8_t cmd, std::uint16_t mid, bool is_response) {
  w.u8(0xFF);
  w.bytes(std::string_view("SMB"));
  w.u8(cmd);
  w.u32le(0);                          // status
  w.u8(is_response ? 0x80 : 0x00);     // flags: reply bit
  w.u16le(0);                          // flags2
  w.u16le(0);                          // pid high
  w.zeros(8);                          // signature
  w.u16le(0);                          // reserved
  w.u16le(1);                          // tid
  w.u16le(100);                        // pid
  w.u16le(1);                          // uid
  w.u16le(mid);
}

}  // namespace

std::vector<std::uint8_t> nbss_frame(std::uint8_t type, std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  out.reserve(4 + payload.size());
  ByteWriter w(out);
  w.u8(type);
  w.u8(0);
  w.u16be(static_cast<std::uint16_t>(payload.size()));
  w.bytes(payload);
  return out;
}

std::vector<std::uint8_t> nbss_session_request(const std::string& called,
                                               const std::string& calling) {
  std::vector<std::uint8_t> payload;
  ByteWriter w(payload);
  auto put_name = [&w](const std::string& name) {
    const std::string encoded = nbns_encode_name(name, nbns_suffix::kServer);
    w.u8(32);
    w.bytes(encoded);
    w.u8(0);
  };
  put_name(called);
  put_name(calling);
  return nbss_frame(nbss::kSessionRequest, payload);
}

std::vector<std::uint8_t> nbss_session_response(bool positive) {
  return nbss_frame(positive ? nbss::kPositiveResponse : nbss::kNegativeResponse, {});
}

std::vector<std::uint8_t> smb_message(std::uint8_t cmd, std::uint16_t mid, bool is_response,
                                      std::span<const std::uint8_t> words,
                                      std::span<const std::uint8_t> bytes) {
  std::vector<std::uint8_t> smb;
  smb.reserve(kSmbHeaderSize + 3 + words.size() + bytes.size());
  ByteWriter w(smb);
  encode_smb_header(w, cmd, mid, is_response);
  w.u8(static_cast<std::uint8_t>(words.size() / 2));
  w.bytes(words);
  w.u16le(static_cast<std::uint16_t>(bytes.size()));
  w.bytes(bytes);
  return nbss_frame(nbss::kSessionMessage, smb);
}

std::vector<std::uint8_t> smb_simple(std::uint8_t cmd, std::uint16_t mid, bool is_response,
                                     std::size_t byte_payload) {
  std::vector<std::uint8_t> bytes(byte_payload, 0x41);
  return smb_message(cmd, mid, is_response, {}, bytes);
}

std::vector<std::uint8_t> smb_ntcreate_request(std::uint16_t mid, const std::string& path) {
  std::vector<std::uint8_t> bytes(path.begin(), path.end());
  bytes.push_back(0);
  std::vector<std::uint8_t> words = {0, 0};  // reserved
  return smb_message(smbcmd::kNtCreate, mid, false, words, bytes);
}

std::vector<std::uint8_t> smb_ntcreate_response(std::uint16_t mid, std::uint16_t fid) {
  std::vector<std::uint8_t> words;
  ByteWriter w(words);
  w.u16le(fid);
  return smb_message(smbcmd::kNtCreate, mid, true, words, {});
}

std::vector<std::uint8_t> smb_read_request(std::uint16_t mid, std::uint16_t fid,
                                           std::uint16_t count) {
  std::vector<std::uint8_t> words;
  ByteWriter w(words);
  w.u16le(fid);
  w.u16le(count);
  return smb_message(smbcmd::kReadAndX, mid, false, words, {});
}

std::vector<std::uint8_t> smb_read_response(std::uint16_t mid, std::uint16_t fid,
                                            std::span<const std::uint8_t> data) {
  std::vector<std::uint8_t> words;
  ByteWriter w(words);
  w.u16le(fid);
  return smb_message(smbcmd::kReadAndX, mid, true, words, data);
}

std::vector<std::uint8_t> smb_write_request(std::uint16_t mid, std::uint16_t fid,
                                            std::span<const std::uint8_t> data) {
  std::vector<std::uint8_t> words;
  ByteWriter w(words);
  w.u16le(fid);
  w.u16le(static_cast<std::uint16_t>(data.size()));
  return smb_message(smbcmd::kWriteAndX, mid, false, words, data);
}

std::vector<std::uint8_t> smb_write_response(std::uint16_t mid, std::uint16_t fid) {
  std::vector<std::uint8_t> words;
  ByteWriter w(words);
  w.u16le(fid);
  return smb_message(smbcmd::kWriteAndX, mid, true, words, {});
}

std::vector<std::uint8_t> smb_trans(std::uint16_t mid, bool is_response,
                                    const std::string& pipe_name, std::size_t data_len) {
  std::vector<std::uint8_t> bytes(pipe_name.begin(), pipe_name.end());
  bytes.push_back(0);
  bytes.insert(bytes.end(), data_len, 0x42);
  return smb_message(smbcmd::kTrans, mid, is_response, {}, bytes);
}

std::optional<DceIface> pipe_iface(const std::string& name) {
  std::string n;
  for (char c : name) n += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (n == "\\netlogon") return DceIface::kNetLogon;
  if (n == "\\lsarpc") return DceIface::kLsaRpc;
  if (n == "\\spoolss") return DceIface::kSpoolss;
  if (n == "\\samr") return DceIface::kSamr;
  if (n == "\\wkssvc") return DceIface::kWkssvc;
  if (n == "\\srvsvc") return DceIface::kOther;
  return std::nullopt;
}

// ---- Parser -----------------------------------------------------------------

CifsParser::CifsParser(AppEvents& events, AppRegistry& registry, bool netbios_framing)
    : events_(events), registry_(registry), netbios_framing_(netbios_framing) {}

void CifsParser::on_data(Connection& conn, Direction dir, double ts,
                         std::span<const std::uint8_t> data) {
  (void)ts;
  if (broken_) return;
  StreamBuffer& buf = dir == Direction::kOrigToResp ? client_buf_ : server_buf_;
  buf.append(data);
  if (buf.overflowed()) {
    broken_ = true;
    note_anomaly(AnomalyKind::kAppParseError);
    return;
  }
  parse_stream(conn, dir, buf);
}

void CifsParser::parse_stream(const Connection& conn, Direction dir, StreamBuffer& buf) {
  for (;;) {
    auto avail = buf.data();
    if (avail.size() < 4) return;
    const std::uint8_t type = avail[0];
    const std::uint32_t len = (static_cast<std::uint32_t>(avail[2]) << 8) | avail[3];
    if (avail.size() < 4 + len) return;
    const auto payload = avail.subspan(4, len);

    switch (type) {
      case nbss::kSessionRequest:
        events_.nbss.push_back({conn.key.src, conn.key.dst, NbssEventType::kRequest});
        break;
      case nbss::kPositiveResponse:
        events_.nbss.push_back({conn.key.src, conn.key.dst, NbssEventType::kPositiveResponse});
        break;
      case nbss::kNegativeResponse:
        events_.nbss.push_back({conn.key.src, conn.key.dst, NbssEventType::kNegativeResponse});
        break;
      case nbss::kSessionMessage:
        handle_smb(dir, payload, len + 4);
        break;
      default:
        // Unknown NBSS frame type: the framing is lost, bail on the stream.
        broken_ = true;
        note_anomaly(AnomalyKind::kAppParseError);
        return;
    }
    buf.consume(4 + len);
  }
}

CifsParser::PipeState& CifsParser::pipe_state(std::uint16_t fid) {
  auto it = pipes_.find(fid);
  if (it == pipes_.end()) {
    auto [new_it, _] = pipes_.emplace(fid, PipeState{});
    new_it->second.session =
        std::make_unique<DceRpcSession>(events_.dcerpc, registry_, events_.epm, /*over_pipe=*/true);
    return new_it->second;
  }
  return it->second;
}

void CifsParser::handle_smb(Direction dir, std::span<const std::uint8_t> smb,
                            std::uint32_t framed_len) {
  ByteReader r(smb);
  if (r.u8() != 0xFF || r.string(3) != "SMB") {
    broken_ = true;
    note_anomaly(AnomalyKind::kAppParseError);
    return;
  }
  const std::uint8_t cmd = r.u8();
  r.u32le();  // status
  r.u8();     // flags
  r.u16le();  // flags2
  r.u16le();  // pid high
  r.skip(8);  // signature
  r.u16le();  // reserved
  r.u16le();  // tid
  r.u16le();  // pid
  r.u16le();  // uid
  const std::uint16_t mid = r.u16le();
  const std::uint8_t word_count = r.u8();
  auto words = r.bytes(static_cast<std::size_t>(word_count) * 2);
  const std::uint16_t byte_count = r.u16le();
  auto bytes = r.bytes(byte_count);
  if (!r.ok()) {
    // SMB message shorter than its own word/byte counts claim.
    note_anomaly(AnomalyKind::kAppParseError);
    return;
  }

  auto word_u16 = [&words](std::size_t idx) -> std::uint16_t {
    if (words.size() < (idx + 1) * 2) return 0;
    return static_cast<std::uint16_t>(words[idx * 2]) |
           static_cast<std::uint16_t>(words[idx * 2 + 1]) << 8;
  };

  std::uint16_t fid = 0;
  std::string trans_name;

  switch (cmd) {
    case smbcmd::kNtCreate: {
      if (dir == Direction::kOrigToResp) {
        // Request: path in bytes (nul-terminated).
        std::string path(reinterpret_cast<const char*>(bytes.data()),
                         bytes.empty() ? 0 : bytes.size() - 1);
        pending_creates_[mid] = path;
      } else {
        fid = word_u16(0);
        auto it = pending_creates_.find(mid);
        if (it != pending_creates_.end()) {
          if (auto iface = pipe_iface(it->second)) {
            pipe_fids_[fid] = *iface;
          } else {
            pipe_fids_.erase(fid);
          }
          pending_creates_.erase(it);
        }
      }
      break;
    }
    case smbcmd::kReadAndX:
    case smbcmd::kWriteAndX: {
      fid = word_u16(0);
      // Pipe payloads carry DCE/RPC: client writes requests, reads replies.
      auto pit = pipe_fids_.find(fid);
      if (pit != pipe_fids_.end()) {
        PipeState& ps = pipe_state(fid);
        std::vector<DcePdu> pdus;
        if (cmd == smbcmd::kWriteAndX && dir == Direction::kOrigToResp) {
          ps.to_server.feed(bytes, pdus, anomaly_sink());
        } else if (cmd == smbcmd::kReadAndX && dir == Direction::kRespToOrig) {
          ps.to_client.feed(bytes, pdus, anomaly_sink());
        }
        for (const auto& pdu : pdus) ps.session->handle_pdu(pdu);
      }
      break;
    }
    case smbcmd::kTrans: {
      // Name is the leading nul-terminated string in bytes.
      const auto* p = bytes.data();
      std::size_t n = 0;
      while (n < bytes.size() && p[n] != 0) ++n;
      trans_name.assign(reinterpret_cast<const char*>(p), n);
      break;
    }
    default:
      break;
  }

  CifsCommand evt;
  evt.category = classify(cmd, fid, trans_name);
  evt.dir = dir;
  evt.msg_bytes = framed_len;
  events_.cifs.push_back(evt);
}

CifsCategory CifsParser::classify(std::uint8_t cmd, std::uint16_t fid,
                                  const std::string& trans_name) {
  switch (cmd) {
    case smbcmd::kNegotiate:
    case smbcmd::kSessionSetup:
    case smbcmd::kLogoff:
    case smbcmd::kTreeConnect:
    case smbcmd::kTreeDisconnect:
    case smbcmd::kNtCreate:
    case smbcmd::kClose:
      // Paper Table 10: "SMB basic" covers negotiation, session setup/
      // teardown, tree connect/disconnect and file/pipe open.
      return CifsCategory::kSmbBasic;
    case smbcmd::kReadAndX:
    case smbcmd::kWriteAndX:
      return pipe_fids_.count(fid) ? CifsCategory::kRpcPipe : CifsCategory::kFileSharing;
    case smbcmd::kTrans: {
      std::string lower;
      for (char c : trans_name)
        lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      if (lower == "\\pipe\\lanman") return CifsCategory::kLanman;
      return CifsCategory::kRpcPipe;
    }
    default:
      return CifsCategory::kOther;
  }
}

}  // namespace entrace
