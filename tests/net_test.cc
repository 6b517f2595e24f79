// Unit tests for net: addresses, checksums, header encoders, decoding.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "net/checksum.h"
#include "net/decoder.h"
#include "net/encoder.h"
#include "net/five_tuple.h"
#include "net/headers.h"

namespace entrace {
namespace {

TEST(Ipv4Address, ParseAndPrint) {
  Ipv4Address a;
  ASSERT_TRUE(Ipv4Address::try_parse("128.3.2.1", a));
  EXPECT_EQ(a.to_string(), "128.3.2.1");
  EXPECT_EQ(a, Ipv4Address(128, 3, 2, 1));
  EXPECT_FALSE(Ipv4Address::try_parse("300.1.1.1", a));
  EXPECT_FALSE(Ipv4Address::try_parse("1.2.3", a));
  EXPECT_FALSE(Ipv4Address::try_parse("1.2.3.4.5", a));
}

TEST(Ipv4Address, Classification) {
  EXPECT_TRUE(Ipv4Address(224, 0, 0, 1).is_multicast());
  EXPECT_TRUE(Ipv4Address(239, 255, 255, 253).is_multicast());
  EXPECT_FALSE(Ipv4Address(223, 0, 0, 1).is_multicast());
  EXPECT_TRUE(Ipv4Address(255, 255, 255, 255).is_broadcast());
  EXPECT_TRUE(Ipv4Address().is_unspecified());
}

TEST(Subnet, ContainsAndHosts) {
  const Subnet s(Ipv4Address(128, 3, 5, 0), 24);
  EXPECT_TRUE(s.contains(Ipv4Address(128, 3, 5, 200)));
  EXPECT_FALSE(s.contains(Ipv4Address(128, 3, 6, 1)));
  EXPECT_EQ(s.host(10).to_string(), "128.3.5.10");
  EXPECT_EQ(Subnet::parse("10.0.0.0/8").prefix_len(), 8);
  EXPECT_TRUE(Subnet::parse("10.0.0.0/8").contains(Ipv4Address(10, 200, 3, 4)));
}

TEST(Subnet, BaseIsMasked) {
  const Subnet s(Ipv4Address(128, 3, 5, 77), 24);
  EXPECT_EQ(s.base().to_string(), "128.3.5.0");
}

TEST(MacAddress, StableAndPrintable) {
  const MacAddress m = MacAddress::from_host_id(0xAABBCCDD);
  EXPECT_EQ(m, MacAddress::from_host_id(0xAABBCCDD));
  EXPECT_EQ(m.to_string(), "02:1b:aa:bb:cc:dd");
  EXPECT_TRUE(MacAddress::broadcast().is_broadcast());
  EXPECT_FALSE(m.is_broadcast());
}

TEST(Checksum, Rfc1071Example) {
  // Classic example: 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(Checksum, OddLength) {
  const std::uint8_t data[] = {0x01, 0x02, 0x03};
  // Manually: 0x0102 + 0x0300 = 0x0402 -> ~ = 0xfbfd.
  EXPECT_EQ(internet_checksum(data), 0xfbfd);
}

TEST(FiveTuple, CanonicalIsDirectionIndependent) {
  FiveTuple a{Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2), 5000, 80, 6};
  EXPECT_EQ(a.canonical(), a.reversed().canonical());
  EXPECT_EQ(std::hash<FiveTuple>{}(a.canonical()),
            std::hash<FiveTuple>{}(a.reversed().canonical()));
  EXPECT_NE(a, a.reversed());
}

TEST(FiveTuple, SameAddressDifferentPorts) {
  FiveTuple a{Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 1), 9000, 80, 6};
  EXPECT_EQ(a.canonical(), a.reversed().canonical());
}

TEST(FiveTuple, PackedFormIsInjective) {
  // The open-addressing flow map compares packed keys only, so distinct
  // tuples must never pack identically.  Perturb each field in turn.
  const FiveTuple base{Ipv4Address(128, 3, 2, 10), Ipv4Address(131, 243, 1, 1), 5000, 80, 6};
  const auto packed = [](const FiveTuple& t) {
    return std::pair<std::uint64_t, std::uint64_t>(t.packed_lo(), t.packed_hi());
  };
  std::vector<FiveTuple> variants = {base, base.reversed()};
  for (FiveTuple t : {base, base, base, base, base}) variants.push_back(t);
  variants[2].src = Ipv4Address(128, 3, 2, 11);
  variants[3].dst = Ipv4Address(131, 243, 1, 2);
  variants[4].src_port = 5001;
  variants[5].dst_port = 81;
  variants[6].proto = 17;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    for (std::size_t j = i + 1; j < variants.size(); ++j) {
      EXPECT_NE(packed(variants[i]), packed(variants[j]))
          << "variants " << i << " and " << j << " packed identically";
    }
  }
}

TEST(FiveTupleHash, ReversedTuplesHashIdenticallyPostCanonicalization) {
  // Both directions of a flow index the same table slot once canonicalized
  // — including the port-symmetric keys ICMP flows use.
  std::uint64_t seed = 12345;
  const auto next = [&seed] {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    return seed;
  };
  for (int i = 0; i < 1000; ++i) {
    FiveTuple t{Ipv4Address(static_cast<std::uint32_t>(next())),
                Ipv4Address(static_cast<std::uint32_t>(next())),
                static_cast<std::uint16_t>(next()), static_cast<std::uint16_t>(next()),
                static_cast<std::uint8_t>(i % 2 == 0 ? 6 : 17)};
    EXPECT_EQ(std::hash<FiveTuple>{}(t.canonical()),
              std::hash<FiveTuple>{}(t.reversed().canonical()));
    EXPECT_EQ(hash_packed_tuple(t.canonical().packed_lo(), t.canonical().packed_hi()),
              hash_packed_tuple(t.reversed().canonical().packed_lo(),
                                t.reversed().canonical().packed_hi()));
  }
}

TEST(FiveTupleHash, NearUniformCollisionRateOnSyntheticTuples) {
  // 1M synthetic tuples drawn from enterprise-like patterns (small subnet
  // pools, ephemeral->well-known ports: sequential structure the old FNV
  // fold handled poorly).  Bucket the mixed hash into 2^16 bins, power-of-
  // two masked exactly like the flow map probes, and require the bin
  // occupancy to stay near the balls-into-bins expectation.
  constexpr std::size_t kTuples = 1'000'000;
  constexpr std::size_t kBins = 1 << 16;
  std::vector<std::uint32_t> bins(kBins, 0);
  std::size_t made = 0;
  for (std::uint32_t host = 0; made < kTuples; ++host) {
    for (std::uint16_t port = 0; port < 50 && made < kTuples; ++port, ++made) {
      FiveTuple t{Ipv4Address(0x80030000u + (host % 4096)),
                  Ipv4Address(0x83F30000u + (host / 4096)),
                  static_cast<std::uint16_t>(1024 + port),
                  static_cast<std::uint16_t>(port % 2 == 0 ? 80 : 445),
                  static_cast<std::uint8_t>(port % 3 == 0 ? 17 : 6)};
      const std::uint64_t h = std::hash<FiveTuple>{}(t.canonical());
      ++bins[h & (kBins - 1)];
    }
  }
  // Mean load is ~15.26 per bin; a uniform hash keeps every bin within a
  // few standard deviations (sigma ~ sqrt(mean) ~ 3.9).  Allow 6 sigma.
  const double mean = static_cast<double>(kTuples) / kBins;
  std::size_t max_load = 0, empty = 0;
  for (std::uint32_t b : bins) {
    max_load = std::max<std::size_t>(max_load, b);
    if (b == 0) ++empty;
  }
  EXPECT_LT(static_cast<double>(max_load), mean + 6.0 * std::sqrt(mean))
      << "max bin load " << max_load << " vs mean " << mean;
  // With mean ~15 the expected empty-bin count is e^-15 * 2^16 < 1.
  EXPECT_LT(empty, kBins / 100);
}

RawPacket to_raw(std::vector<std::uint8_t> frame, double ts = 1.0) {
  RawPacket pkt;
  pkt.ts = ts;
  pkt.wire_len = static_cast<std::uint32_t>(frame.size());
  pkt.data = std::move(frame);
  return pkt;
}

// The header encoders are checked through the one decoder, decode_packet:
// a frame built from encoded headers must decode to the fields it was
// built from.  ARP and IPX, which decode_packet only classifies, are
// checked at their wire offsets instead.

// Ethernet (ethertype `type`), then each of `layers` encoded in order.
template <typename... Layers>
std::vector<std::uint8_t> encode_frame(std::uint16_t type, const Layers&... layers) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  EthernetHeader{MacAddress::from_host_id(2), MacAddress::from_host_id(1), type}.encode(w);
  (layers.encode(w), ...);
  return buf;
}

// An IPv4 header carrying `l4_len` bytes of `protocol`.
Ipv4Header ipv4_header(std::uint8_t protocol, std::size_t l4_len) {
  Ipv4Header h;
  h.src = Ipv4Address(10, 0, 0, 1);
  h.dst = Ipv4Address(10, 0, 0, 2);
  h.protocol = protocol;
  h.total_length = static_cast<std::uint16_t>(Ipv4Header::kMinSize + l4_len);
  return h;
}

std::uint16_t be16_at(const std::vector<std::uint8_t>& b, std::size_t at) {
  return static_cast<std::uint16_t>((b[at] << 8) | b[at + 1]);
}
std::uint32_t be32_at(const std::vector<std::uint8_t>& b, std::size_t at) {
  return (static_cast<std::uint32_t>(be16_at(b, at)) << 16) | be16_at(b, at + 2);
}
bool mac_at(const std::vector<std::uint8_t>& b, std::size_t at, const MacAddress& mac) {
  return std::equal(mac.bytes().begin(), mac.bytes().end(), b.begin() + at);
}

TEST(Headers, EthernetRoundTrip) {
  const auto frame = encode_frame(ethertype::kIpv4);
  EXPECT_EQ(frame.size(), EthernetHeader::kSize);
  const auto d = decode_packet(to_raw(frame));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->eth_dst, MacAddress::from_host_id(2));
  EXPECT_EQ(d->eth_src, MacAddress::from_host_id(1));
  EXPECT_EQ(d->ethertype, ethertype::kIpv4);
}

TEST(Headers, ArpRoundTrip) {
  ArpHeader h;
  h.opcode = ArpHeader::kReply;
  h.sender_mac = MacAddress::from_host_id(7);
  h.sender_ip = Ipv4Address(128, 3, 1, 1);
  h.target_ip = Ipv4Address(128, 3, 1, 2);
  const auto frame = encode_frame(ethertype::kArp, h);
  ASSERT_EQ(frame.size(), EthernetHeader::kSize + 28);
  const auto d = decode_packet(to_raw(frame));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->l3, L3Kind::kArp);
  const std::size_t arp = EthernetHeader::kSize;
  EXPECT_EQ(be16_at(frame, arp + 6), ArpHeader::kReply);
  EXPECT_TRUE(mac_at(frame, arp + 8, h.sender_mac));
  EXPECT_EQ(be32_at(frame, arp + 14), h.sender_ip.value());
  EXPECT_EQ(be32_at(frame, arp + 24), h.target_ip.value());
}

TEST(Headers, Ipv4ChecksumValidAndRoundTrip) {
  Ipv4Header h = ipv4_header(ipproto::kTcp, TcpHeader::kMinSize);
  h.ttl = 63;
  auto frame = encode_frame(ethertype::kIpv4, h, TcpHeader{});
  ASSERT_EQ(frame.size(), EthernetHeader::kSize + 40);
  // A correct IPv4 header checksums to zero.
  EXPECT_EQ(internet_checksum(std::span(frame).subspan(EthernetHeader::kSize,
                                                       Ipv4Header::kMinSize)),
            0);
  fix_l4_checksum(frame);
  const auto d = decode_packet(to_raw(frame));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->l3, L3Kind::kIpv4);
  EXPECT_FALSE(d->checksum_bad());
  EXPECT_EQ(d->src, h.src);
  EXPECT_EQ(d->dst, h.dst);
  EXPECT_EQ(d->ip_proto, ipproto::kTcp);
  EXPECT_EQ(d->ip_total_len, 40);
  EXPECT_EQ(d->ttl, 63);
}

TEST(Headers, TcpUdpIcmpIpxRoundTrip) {
  {
    const TcpHeader h{1234, 80, 111, 222, tcpflag::kSyn | tcpflag::kAck, 4096, 0};
    const auto d = decode_packet(to_raw(
        encode_frame(ethertype::kIpv4, ipv4_header(ipproto::kTcp, TcpHeader::kMinSize), h)));
    ASSERT_TRUE(d && d->is_tcp() && d->l4_ok);
    EXPECT_EQ(d->src_port, 1234);
    EXPECT_EQ(d->dst_port, 80);
    EXPECT_EQ(d->tcp_seq, 111u);
    EXPECT_EQ(d->tcp_ack, 222u);
    EXPECT_EQ(d->tcp_flags, tcpflag::kSyn | tcpflag::kAck);
  }
  {
    const UdpHeader h{53, 5353, 20, 0};  // checksum 0: not computed
    auto frame = encode_frame(ethertype::kIpv4, ipv4_header(ipproto::kUdp, 20), h);
    frame.resize(frame.size() + 12);
    const auto d = decode_packet(to_raw(frame));
    ASSERT_TRUE(d && d->is_udp() && d->l4_ok);
    EXPECT_EQ(d->src_port, 53);
    EXPECT_EQ(d->dst_port, 5353);
    EXPECT_EQ(d->payload_wire_len, 12u);  // UDP length 20 minus its 8-byte header
  }
  {
    IcmpHeader h;
    h.type = IcmpHeader::kEchoRequest;
    h.identifier = 99;
    h.sequence = 3;
    const auto d = decode_packet(to_raw(
        encode_frame(ethertype::kIpv4, ipv4_header(ipproto::kIcmp, IcmpHeader::kSize), h)));
    ASSERT_TRUE(d && d->is_icmp() && d->l4_ok);
    EXPECT_EQ(d->icmp_type, IcmpHeader::kEchoRequest);
    EXPECT_EQ(d->icmp_id, 99);
    EXPECT_EQ(d->icmp_seq, 3);
  }
  {
    IpxHeader h;
    h.packet_type = 4;
    h.src_socket = 0x452;
    h.dst_socket = 0x453;
    h.src_node = MacAddress::from_host_id(5);
    h.dst_node = MacAddress::broadcast();
    const auto frame = encode_frame(ethertype::kIpx, h);
    ASSERT_EQ(frame.size(), EthernetHeader::kSize + IpxHeader::kSize);
    const auto d = decode_packet(to_raw(frame));
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->l3, L3Kind::kIpx);
    const std::size_t ipx = EthernetHeader::kSize;
    EXPECT_EQ(be16_at(frame, ipx), 0xFFFF);  // IPX checksum field
    EXPECT_EQ(be16_at(frame, ipx + 2), IpxHeader::kSize);
    EXPECT_EQ(frame[ipx + 5], 4);
    EXPECT_TRUE(mac_at(frame, ipx + 10, h.dst_node));
    EXPECT_EQ(be16_at(frame, ipx + 16), 0x453);
    EXPECT_TRUE(mac_at(frame, ipx + 22, h.src_node));
    EXPECT_EQ(be16_at(frame, ipx + 28), 0x452);
  }
}

TEST(Decoder, TcpFrameFullDecode) {
  FrameEndpoints ep{MacAddress::from_host_id(1), MacAddress::from_host_id(2),
                    Ipv4Address(128, 3, 1, 10), Ipv4Address(8, 8, 8, 8)};
  const auto payload = filler_payload(100);
  const auto frame =
      make_tcp_frame(ep, 5555, 80, 1000, 2000, tcpflag::kAck | tcpflag::kPsh, payload);
  const RawPacket raw = to_raw(frame);  // d->payload aliases it
  const auto d = decode_packet(raw);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->l3, L3Kind::kIpv4);
  EXPECT_TRUE(d->is_tcp());
  ASSERT_TRUE(d->l4_ok);
  EXPECT_EQ(d->src, ep.src_ip);
  EXPECT_EQ(d->dst, ep.dst_ip);
  EXPECT_EQ(d->src_port, 5555);
  EXPECT_EQ(d->dst_port, 80);
  EXPECT_EQ(d->tcp_seq, 1000u);
  EXPECT_EQ(d->payload_wire_len, 100u);
  ASSERT_EQ(d->payload.size(), 100u);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), d->payload.begin()));
}

TEST(Decoder, SnaplenTruncationKeepsWireLengths) {
  FrameEndpoints ep{MacAddress::from_host_id(1), MacAddress::from_host_id(2),
                    Ipv4Address(128, 3, 1, 10), Ipv4Address(128, 3, 2, 10)};
  auto frame = make_tcp_frame(ep, 1, 2, 0, 0, tcpflag::kAck, filler_payload(1000));
  RawPacket pkt = to_raw(frame);
  pkt.data.resize(68);  // snaplen 68 capture
  const auto d = decode_packet(pkt);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->l4_ok);
  EXPECT_EQ(d->payload_wire_len, 1000u);                  // from the IP header
  EXPECT_EQ(d->payload.size(), 68u - 14u - 20u - 20u);    // captured remainder
}

TEST(Decoder, UdpAndIcmpAndArpAndIpx) {
  FrameEndpoints ep{MacAddress::from_host_id(1), MacAddress::from_host_id(2),
                    Ipv4Address(128, 3, 1, 10), Ipv4Address(128, 3, 2, 10)};
  {
    const auto d = decode_packet(to_raw(make_udp_frame(ep, 53, 5353, filler_payload(30))));
    ASSERT_TRUE(d && d->is_udp());
    EXPECT_EQ(d->payload_wire_len, 30u);
  }
  {
    const auto d = decode_packet(to_raw(make_icmp_frame(ep, 8, 0, 42, 7, 56)));
    ASSERT_TRUE(d && d->is_icmp());
    EXPECT_EQ(d->icmp_type, 8);
    EXPECT_EQ(d->icmp_id, 42);
  }
  {
    const auto d = decode_packet(to_raw(
        make_arp_frame(MacAddress::from_host_id(1), ArpHeader::kRequest,
                       Ipv4Address(128, 3, 1, 10), Ipv4Address(128, 3, 1, 20))));
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->l3, L3Kind::kArp);
  }
  {
    const auto d = decode_packet(to_raw(make_ipx_frame(
        MacAddress::from_host_id(1), MacAddress::broadcast(), 4, 0x452, 0x452, 64)));
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->l3, L3Kind::kIpx);
  }
}

TEST(Decoder, EthernetPaddingClampedToIpLength) {
  FrameEndpoints ep{MacAddress::from_host_id(1), MacAddress::from_host_id(2),
                    Ipv4Address(128, 3, 1, 10), Ipv4Address(128, 3, 2, 10)};
  auto frame = make_udp_frame(ep, 1, 2, filler_payload(2));
  frame.resize(64, 0);  // minimum Ethernet frame padding
  const auto d = decode_packet(to_raw(frame));
  ASSERT_TRUE(d && d->is_udp());
  EXPECT_EQ(d->payload.size(), 2u);
  EXPECT_EQ(d->payload_wire_len, 2u);
}

TEST(Decoder, GarbageIsRejectedOrOther) {
  RawPacket pkt;
  pkt.data = {0x01, 0x02, 0x03};
  pkt.wire_len = 3;
  EXPECT_FALSE(decode_packet(pkt).has_value());

  // Unknown ethertype decodes as kOther.
  std::vector<std::uint8_t> frame(20, 0);
  frame[12] = 0x88;
  frame[13] = 0x99;
  const auto d = decode_packet(to_raw(frame));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->l3, L3Kind::kOther);
}

TEST(Decoder, RareIpProtocolsKeepPayloadAccounting) {
  FrameEndpoints ep{MacAddress::from_host_id(1), MacAddress::from_host_id(2),
                    Ipv4Address(128, 3, 1, 10), Ipv4Address(128, 3, 2, 10)};
  const auto d = decode_packet(to_raw(make_ip_frame(ep, ipproto::kGre, 120)));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->l3, L3Kind::kIpv4);
  EXPECT_EQ(d->ip_proto, ipproto::kGre);
  EXPECT_FALSE(d->l4_ok);
  EXPECT_EQ(d->payload_wire_len, 120u);
}

}  // namespace
}  // namespace entrace
