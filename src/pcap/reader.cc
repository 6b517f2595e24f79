#include "pcap/reader.h"

#include <array>
#include <cstdio>
#include <stdexcept>

#include "pcap/format.h"

namespace entrace {
namespace {

// Sanity cap on caplen: no sane Ethernet capture has records this large, so
// a bigger value means the record header itself is garbage and the stream
// position can no longer be trusted.  Also libpcap's MAXIMUM_SNAPLEN, the
// snaplen it substitutes for a bogus one (0 or above the cap).
constexpr std::uint32_t kMaxCapLen = 256 * 1024;

std::string hex32(std::uint32_t v) {
  char buf[11];
  std::snprintf(buf, sizeof(buf), "0x%08X", v);
  return buf;
}

}  // namespace

PcapReader::PcapReader(const std::string& path) {
  file_.reset(std::fopen(path.c_str(), "rb"));
  if (!file_) throw std::runtime_error("PcapReader: cannot open " + path);
  std::array<std::uint8_t, pcapfmt::kGlobalHeaderSize> hdr;
  const std::size_t got = std::fread(hdr.data(), 1, hdr.size(), file_.get());
  if (got == 0) {
    throw std::runtime_error("PcapReader: " + path + " is empty (no pcap global header)");
  }
  if (got < hdr.size()) {
    throw std::runtime_error("PcapReader: short global header in " + path + " (got " +
                             std::to_string(got) + " of " + std::to_string(hdr.size()) +
                             " bytes)");
  }
  // Magic read little-endian first.
  const std::uint32_t magic_le = static_cast<std::uint32_t>(hdr[0]) |
                                 static_cast<std::uint32_t>(hdr[1]) << 8 |
                                 static_cast<std::uint32_t>(hdr[2]) << 16 |
                                 static_cast<std::uint32_t>(hdr[3]) << 24;
  if (magic_le == pcapfmt::kMagicUsec) {
    swapped_ = false;
  } else if (magic_le == pcapfmt::kMagicUsecSwap) {
    swapped_ = true;
  } else {
    throw std::runtime_error("PcapReader: bad magic " + hex32(magic_le) + " at offset 0 in " +
                             path + " (expected " + hex32(pcapfmt::kMagicUsec) + " or " +
                             hex32(pcapfmt::kMagicUsecSwap) + ")");
  }
  snaplen_ = read_u32(hdr.data() + 16);
  if (snaplen_ == 0 || snaplen_ > kMaxCapLen) snaplen_ = kMaxCapLen;
  link_type_ = read_u32(hdr.data() + 20);
  if (link_type_ != pcapfmt::kLinkTypeEthernet) {
    throw std::runtime_error("PcapReader: unsupported link type " +
                             std::to_string(link_type_) + " at offset 20 in " + path +
                             " (expected " + std::to_string(pcapfmt::kLinkTypeEthernet) +
                             ", Ethernet)");
  }
}

PcapReader::~PcapReader() = default;

std::uint32_t PcapReader::read_u32(const std::uint8_t* p) const {
  if (!swapped_) {
    return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
  }
  return static_cast<std::uint32_t>(p[3]) | static_cast<std::uint32_t>(p[2]) << 8 |
         static_cast<std::uint32_t>(p[1]) << 16 | static_cast<std::uint32_t>(p[0]) << 24;
}

std::optional<RawPacket> PcapReader::next() {
  if (!file_) return std::nullopt;
  std::array<std::uint8_t, pcapfmt::kRecordHeaderSize> rec;
  const std::size_t hdr_got = std::fread(rec.data(), 1, rec.size(), file_.get());
  if (hdr_got < rec.size()) {
    // A clean EOF lands exactly on a record boundary; leftover bytes mean
    // the file was cut mid-header.
    if (hdr_got > 0) anomalies_.add(AnomalyKind::kPcapShortRecordHeader);
    file_.reset();
    return std::nullopt;
  }
  const std::uint32_t sec = read_u32(rec.data());
  const std::uint32_t usec = read_u32(rec.data() + 4);
  const std::uint32_t caplen = read_u32(rec.data() + 8);
  const std::uint32_t wirelen = read_u32(rec.data() + 12);
  // Guard against absurd record lengths from corrupt files.  The stream
  // position cannot be trusted past this point, so reading stops here,
  // for every later call too.
  if (caplen > kMaxCapLen) {
    anomalies_.add(AnomalyKind::kPcapOversizedRecord);
    file_.reset();
    return std::nullopt;
  }

  RawPacket pkt;
  pkt.ts = static_cast<double>(sec) + static_cast<double>(usec) * 1e-6;
  pkt.wire_len = wirelen;
  pkt.data.resize(caplen);
  const std::size_t body_got = std::fread(pkt.data.data(), 1, caplen, file_.get());
  if (body_got < caplen) {
    anomalies_.add(AnomalyKind::kPcapTruncatedRecord);
    file_.reset();  // the body ran into EOF: nothing follows
    if (body_got == 0) return std::nullopt;
    // Salvage the partial capture; downstream sees it as extra truncation.
    pkt.data.resize(body_got);
  }
  // Bytes past the header's snaplen are not part of the capture, whoever
  // reads the file (Trace::load or PcapFileSource).
  if (pkt.data.size() > snaplen_) pkt.data.resize(snaplen_);
  return pkt;
}

}  // namespace entrace
