#include "net/decoder.h"

#include <array>
#include <cstring>

#include "net/checksum.h"

namespace entrace {
namespace {

// Verify the transport checksum of a fully captured IPv4 segment.
// `l4` spans the transport header + payload as claimed by the IP/UDP length
// fields; the caller guarantees those bytes were captured.
bool l4_checksum_ok(std::uint32_t src_ip, std::uint32_t dst_ip, std::uint8_t protocol,
                    std::span<const std::uint8_t> l4) {
  std::uint32_t sum =
      pseudo_header_sum(src_ip, dst_ip, protocol, static_cast<std::uint16_t>(l4.size()));
  return checksum_finish(checksum_partial(l4, sum)) == 0;
}

// Unchecked big-endian loads for the in-place header parse below; the
// caller has already verified the bytes are captured.
inline std::uint16_t be16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}
inline std::uint32_t be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) | (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | p[3];
}

}  // namespace

bool decode_packet_into(std::span<const std::uint8_t> data, double ts, std::uint32_t wire_len,
                        DecodedPacket& d, AnomalyCounts* anomalies) {
  const auto note = [anomalies](AnomalyKind k) {
    if (anomalies) anomalies->add(k);
  };

  if (data.empty()) {
    note(AnomalyKind::kCaptureEmpty);
    return false;
  }
  if (data.size() < EthernetHeader::kSize) {
    note(AnomalyKind::kEthTruncated);
    return false;
  }

  d = DecodedPacket{};
  d.ts = ts;
  d.wire_len = wire_len;
  d.cap_len = static_cast<std::uint32_t>(data.size());
  std::array<std::uint8_t, 6> mac;
  std::memcpy(mac.data(), data.data(), 6);
  d.eth_dst = MacAddress(mac);
  std::memcpy(mac.data(), data.data() + 6, 6);
  d.eth_src = MacAddress(mac);
  d.ethertype = static_cast<std::uint16_t>((data[12] << 8) | data[13]);
  if (d.cap_len < d.wire_len) {
    d.snap_truncated = true;
    note(AnomalyKind::kSnapTruncated);
  }

  switch (d.ethertype) {
    case ethertype::kArp:
      d.l3 = L3Kind::kArp;
      return true;
    case ethertype::kIpx:
      d.l3 = L3Kind::kIpx;
      return true;
    case ethertype::kIpv4:
      break;
    default:
      d.l3 = L3Kind::kOther;
      return true;
  }

  // Classify IPv4 header problems precisely before decoding: truncation
  // (capture ends inside the header) vs. malformed fields.  These packets
  // keep l3 == kOther, matching the pre-taxonomy tallies.
  const std::span<const std::uint8_t> ip_bytes(data.data() + EthernetHeader::kSize,
                                               data.size() - EthernetHeader::kSize);
  if (ip_bytes.empty()) {
    note(AnomalyKind::kIpHeaderTruncated);
    d.l3 = L3Kind::kOther;
    return true;
  }
  if ((ip_bytes[0] >> 4) != 4) {
    note(AnomalyKind::kIpBadVersion);
    d.l3 = L3Kind::kOther;
    return true;
  }
  const std::size_t ihl = static_cast<std::size_t>(ip_bytes[0] & 0x0F) * 4;
  if (ihl < Ipv4Header::kMinSize) {
    note(AnomalyKind::kIpBadHeaderLen);
    d.l3 = L3Kind::kOther;
    return true;
  }
  if (ip_bytes.size() < ihl) {
    note(AnomalyKind::kIpHeaderTruncated);
    d.l3 = L3Kind::kOther;
    return true;
  }

  // The pre-checks above guarantee the fixed header plus options are
  // captured, so the IPv4 fields are read in place — the per-field bounds
  // checks a ByteReader would make cannot fire on this path.
  const std::uint8_t* ipb = ip_bytes.data();
  const std::uint16_t total_length = be16(ipb + 2);
  const std::uint8_t protocol = ipb[9];
  const std::uint32_t src_ip = be32(ipb + 12);
  const std::uint32_t dst_ip = be32(ipb + 16);
  d.l3 = L3Kind::kIpv4;
  d.src = Ipv4Address(src_ip);
  d.dst = Ipv4Address(dst_ip);
  d.ip_proto = protocol;
  d.ttl = ipb[8];
  d.ip_total_len = total_length;

  // The full header was captured, so its checksum is verifiable.
  if (internet_checksum(ip_bytes.first(ihl)) != 0) {
    d.ip_checksum_bad = true;
    note(AnomalyKind::kIpChecksumBad);
  }
  if (total_length < ihl) note(AnomalyKind::kIpBadTotalLen);

  // Wire-truth payload length from the IP header, independent of snaplen.
  const std::uint32_t ip_payload_wire =
      total_length > ihl ? static_cast<std::uint32_t>(total_length - ihl) : 0;

  // Captured transport bytes (header + payload as far as the snaplen goes).
  const std::span<const std::uint8_t> l4_capt = ip_bytes.subspan(ihl);

  // Transport checksums are verified only when the whole segment claimed by
  // the IP total length was captured; a corrupt total_length just shrinks or
  // voids the verifiable window (never reads out of bounds).
  const std::size_t l4_wire_len = total_length >= ihl ? total_length - ihl : 0;
  const bool l4_fully_captured = l4_wire_len > 0 && l4_capt.size() >= l4_wire_len;
  const std::span<const std::uint8_t> l4_bytes =
      l4_fully_captured ? l4_capt.first(l4_wire_len) : std::span<const std::uint8_t>{};

  switch (protocol) {
    case ipproto::kTcp: {
      if (l4_capt.size() < TcpHeader::kMinSize) {
        note(AnomalyKind::kTcpHeaderTruncated);
        return true;
      }
      const std::uint8_t* t = l4_capt.data();
      const std::size_t data_off = static_cast<std::size_t>(t[12] >> 4) * 4;
      if (data_off < TcpHeader::kMinSize) {
        note(AnomalyKind::kTcpBadDataOffset);
        return true;
      }
      if (l4_capt.size() < data_off) {  // options run past the capture
        note(AnomalyKind::kTcpHeaderTruncated);
        return true;
      }
      d.l4_ok = true;
      d.src_port = be16(t);
      d.dst_port = be16(t + 2);
      d.tcp_flags = t[13];
      d.tcp_seq = be32(t + 4);
      d.tcp_ack = be32(t + 8);
      d.payload_wire_len =
          ip_payload_wire >= TcpHeader::kMinSize
              ? ip_payload_wire - static_cast<std::uint32_t>(TcpHeader::kMinSize)
              : 0;
      d.payload = l4_capt.subspan(data_off);
      if (l4_fully_captured && l4_wire_len >= TcpHeader::kMinSize &&
          !l4_checksum_ok(src_ip, dst_ip, protocol, l4_bytes)) {
        d.l4_checksum_bad = true;
        note(AnomalyKind::kTcpChecksumBad);
      }
      break;
    }
    case ipproto::kUdp: {
      if (l4_capt.size() < UdpHeader::kSize) {
        note(AnomalyKind::kUdpHeaderTruncated);
        return true;
      }
      const std::uint8_t* u = l4_capt.data();
      const std::uint16_t udp_length = be16(u + 4);
      const std::uint16_t udp_checksum = be16(u + 6);
      d.l4_ok = true;
      d.src_port = be16(u);
      d.dst_port = be16(u + 2);
      if (udp_length < UdpHeader::kSize) note(AnomalyKind::kUdpBadLength);
      d.payload_wire_len =
          udp_length >= UdpHeader::kSize
              ? static_cast<std::uint32_t>(udp_length - UdpHeader::kSize)
              : 0;
      d.payload = l4_capt.subspan(UdpHeader::kSize);
      // RFC 768: checksum zero means "not computed by the sender".
      if (udp_checksum != 0 && udp_length >= UdpHeader::kSize &&
          l4_capt.size() >= udp_length) {
        const auto datagram = l4_capt.first(udp_length);
        std::uint32_t sum = pseudo_header_sum(src_ip, dst_ip, ipproto::kUdp, udp_length);
        if (checksum_finish(checksum_partial(datagram, sum)) != 0) {
          d.l4_checksum_bad = true;
          note(AnomalyKind::kUdpChecksumBad);
        }
      }
      break;
    }
    case ipproto::kIcmp: {
      if (l4_capt.size() < IcmpHeader::kSize) {
        note(AnomalyKind::kIcmpTruncated);
        return true;
      }
      const std::uint8_t* c = l4_capt.data();
      d.l4_ok = true;
      d.icmp_type = c[0];
      d.icmp_code = c[1];
      d.icmp_id = be16(c + 4);
      d.icmp_seq = be16(c + 6);
      d.payload_wire_len =
          ip_payload_wire >= IcmpHeader::kSize
              ? ip_payload_wire - static_cast<std::uint32_t>(IcmpHeader::kSize)
              : 0;
      d.payload = l4_capt.subspan(IcmpHeader::kSize);
      // ICMP checksums cover only the ICMP message, no pseudo-header.
      if (l4_fully_captured && l4_wire_len >= IcmpHeader::kSize &&
          internet_checksum(l4_bytes) != 0) {
        d.l4_checksum_bad = true;
        note(AnomalyKind::kIcmpChecksumBad);
      }
      break;
    }
    default:
      d.payload_wire_len = ip_payload_wire;
      d.payload = l4_capt;
      break;
  }

  if (d.l4_ok && (d.ip_proto == ipproto::kTcp || d.ip_proto == ipproto::kUdp) &&
      (d.src_port == 0 || d.dst_port == 0)) {
    note(AnomalyKind::kPortZero);
  }

  // Clamp captured payload to the wire payload (Ethernet minimum-frame
  // padding shows up as trailing bytes beyond the IP total length).
  if (d.payload.size() > d.payload_wire_len) d.payload = d.payload.first(d.payload_wire_len);
  return true;
}

std::optional<DecodedPacket> decode_packet(const RawPacket& pkt, AnomalyCounts* anomalies) {
  std::optional<DecodedPacket> out(std::in_place);
  if (!decode_packet_into(pkt.data, pkt.ts, pkt.wire_len, *out, anomalies)) out.reset();
  return out;
}

}  // namespace entrace
