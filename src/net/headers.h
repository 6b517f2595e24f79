// Wire-format protocol constants and header encoders for the link,
// network, and transport layers seen in the LBNL traces: Ethernet, ARP, IPX,
// IPv4, TCP, UDP, ICMP, plus the rare transports the paper lists (IGMP,
// ESP, GRE, PIM, protocol 224).  The packet path reads these layouts in
// place (net/decoder.cc).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/bytes.h"
#include "net/ip_address.h"
#include "net/mac_address.h"

namespace entrace {

// ---- EtherTypes -----------------------------------------------------------
namespace ethertype {
inline constexpr std::uint16_t kIpv4 = 0x0800;
inline constexpr std::uint16_t kArp = 0x0806;
inline constexpr std::uint16_t kIpx = 0x8137;
inline constexpr std::uint16_t kAppleTalk = 0x809B;
inline constexpr std::uint16_t kDecnet = 0x6003;
}  // namespace ethertype

// ---- IP protocol numbers ---------------------------------------------------
namespace ipproto {
inline constexpr std::uint8_t kIcmp = 1;
inline constexpr std::uint8_t kIgmp = 2;
inline constexpr std::uint8_t kTcp = 6;
inline constexpr std::uint8_t kUdp = 17;
inline constexpr std::uint8_t kGre = 47;
inline constexpr std::uint8_t kEsp = 50;
inline constexpr std::uint8_t kPim = 103;
inline constexpr std::uint8_t kProto224 = 224;  // unidentified in the paper
}  // namespace ipproto

// ---- TCP flags --------------------------------------------------------------
namespace tcpflag {
inline constexpr std::uint8_t kFin = 0x01;
inline constexpr std::uint8_t kSyn = 0x02;
inline constexpr std::uint8_t kRst = 0x04;
inline constexpr std::uint8_t kPsh = 0x08;
inline constexpr std::uint8_t kAck = 0x10;
}  // namespace tcpflag

// ---- Header structs ---------------------------------------------------------

struct EthernetHeader {
  static constexpr std::size_t kSize = 14;
  MacAddress dst;
  MacAddress src;
  std::uint16_t ethertype = 0;

  void encode(ByteWriter& w) const;
};

struct ArpHeader {
  static constexpr std::uint16_t kRequest = 1;
  static constexpr std::uint16_t kReply = 2;

  std::uint16_t opcode = kRequest;
  MacAddress sender_mac;
  Ipv4Address sender_ip;
  MacAddress target_mac;
  Ipv4Address target_ip;

  void encode(ByteWriter& w) const;
};

// Novell IPX over Ethernet II framing (30-byte header).  The paper's traces
// see substantial broadcast IPX (NCP/SAP environments).
struct IpxHeader {
  static constexpr std::size_t kSize = 30;
  std::uint16_t length = kSize;  // includes header
  std::uint8_t packet_type = 0;  // 0=unknown, 4=PEP/SAP, 17=NCP
  std::uint32_t dst_net = 0;
  MacAddress dst_node;
  std::uint16_t dst_socket = 0;
  std::uint32_t src_net = 0;
  MacAddress src_node;
  std::uint16_t src_socket = 0;

  void encode(ByteWriter& w) const;
};

struct Ipv4Header {
  static constexpr std::size_t kMinSize = 20;
  std::uint8_t tos = 0;
  std::uint16_t total_length = 0;  // header + payload
  std::uint16_t identification = 0;
  std::uint8_t ttl = 64;
  std::uint8_t protocol = 0;
  std::uint16_t checksum = 0;  // filled by encode
  Ipv4Address src;
  Ipv4Address dst;

  // Encodes with a correct header checksum; total_length must be set.
  void encode(ByteWriter& w) const;
};

struct TcpHeader {
  static constexpr std::size_t kMinSize = 20;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = 0;
  std::uint16_t window = 65535;
  std::uint16_t checksum = 0;

  void encode(ByteWriter& w) const;
};

struct UdpHeader {
  static constexpr std::size_t kSize = 8;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t length = 0;  // header + payload
  std::uint16_t checksum = 0;

  void encode(ByteWriter& w) const;
};

struct IcmpHeader {
  static constexpr std::size_t kSize = 8;
  static constexpr std::uint8_t kEchoReply = 0;
  static constexpr std::uint8_t kDestUnreachable = 3;
  static constexpr std::uint8_t kEchoRequest = 8;

  std::uint8_t type = kEchoRequest;
  std::uint8_t code = 0;
  std::uint16_t checksum = 0;
  std::uint16_t identifier = 0;
  std::uint16_t sequence = 0;

  void encode(ByteWriter& w) const;
};

}  // namespace entrace
