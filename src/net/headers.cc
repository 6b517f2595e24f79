#include "net/headers.h"

#include "net/checksum.h"

namespace entrace {

void EthernetHeader::encode(ByteWriter& w) const {
  w.bytes(std::span<const std::uint8_t>(dst.bytes()));
  w.bytes(std::span<const std::uint8_t>(src.bytes()));
  w.u16be(ethertype);
}

void ArpHeader::encode(ByteWriter& w) const {
  w.u16be(1);       // htype: Ethernet
  w.u16be(0x0800);  // ptype: IPv4
  w.u8(6);          // hlen
  w.u8(4);          // plen
  w.u16be(opcode);
  w.bytes(std::span<const std::uint8_t>(sender_mac.bytes()));
  w.u32be(sender_ip.value());
  w.bytes(std::span<const std::uint8_t>(target_mac.bytes()));
  w.u32be(target_ip.value());
}

void IpxHeader::encode(ByteWriter& w) const {
  w.u16be(0xFFFF);  // checksum: always 0xFFFF in IPX
  w.u16be(length);
  w.u8(0);  // transport control
  w.u8(packet_type);
  w.u32be(dst_net);
  w.bytes(std::span<const std::uint8_t>(dst_node.bytes()));
  w.u16be(dst_socket);
  w.u32be(src_net);
  w.bytes(std::span<const std::uint8_t>(src_node.bytes()));
  w.u16be(src_socket);
}

void Ipv4Header::encode(ByteWriter& w) const {
  std::vector<std::uint8_t> hdr;
  hdr.reserve(kMinSize);
  ByteWriter hw(hdr);
  hw.u8(0x45);  // version 4, IHL 5
  hw.u8(tos);
  hw.u16be(total_length);
  hw.u16be(identification);
  hw.u16be(0);  // flags/fragment: DF not modeled
  hw.u8(ttl);
  hw.u8(protocol);
  hw.u16be(0);  // checksum placeholder
  hw.u32be(src.value());
  hw.u32be(dst.value());
  const std::uint16_t csum = internet_checksum(hdr);
  hdr[10] = static_cast<std::uint8_t>(csum >> 8);
  hdr[11] = static_cast<std::uint8_t>(csum);
  w.bytes(hdr);
}

void TcpHeader::encode(ByteWriter& w) const {
  w.u16be(src_port);
  w.u16be(dst_port);
  w.u32be(seq);
  w.u32be(ack);
  w.u8(5 << 4);  // data offset 5 words, no options
  w.u8(flags);
  w.u16be(window);
  w.u16be(checksum);
  w.u16be(0);  // urgent pointer
}

void UdpHeader::encode(ByteWriter& w) const {
  w.u16be(src_port);
  w.u16be(dst_port);
  w.u16be(length);
  w.u16be(checksum);
}

void IcmpHeader::encode(ByteWriter& w) const {
  w.u8(type);
  w.u8(code);
  w.u16be(checksum);
  w.u16be(identifier);
  w.u16be(sequence);
}

}  // namespace entrace
