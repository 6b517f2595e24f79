// Property-based tests: parameterized sweeps over randomized inputs
// asserting invariants of the codecs, the flow table, and the statistics.
#include <gtest/gtest.h>

#include "flow/flow_table.h"
#include "net/checksum.h"
#include "net/decoder.h"
#include "net/encoder.h"
#include "proto/dns.h"
#include "proto/ncp.h"
#include "proto/netbios.h"
#include "proto/nfs.h"
#include "synth/tcp_builder.h"
#include "util/rng.h"
#include "util/stats.h"

namespace entrace {
namespace {

// ---- DNS round-trip under random names/types/rcodes -------------------------

class DnsRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DnsRoundTrip, EncodeDecodeIdentity) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    DnsMessage m;
    m.id = static_cast<std::uint16_t>(rng.next_u64());
    m.is_response = rng.bernoulli(0.5);
    m.rcode = static_cast<int>(rng.uniform_int(0, 5));
    m.qtype = static_cast<std::uint16_t>(rng.uniform_int(1, 60));
    m.ancount = m.is_response ? static_cast<std::uint16_t>(rng.uniform_int(0, 4)) : 0;
    const int labels = static_cast<int>(rng.uniform_int(1, 4));
    for (int l = 0; l < labels; ++l) {
      if (l) m.qname += '.';
      const int len = static_cast<int>(rng.uniform_int(1, 20));
      for (int c = 0; c < len; ++c)
        m.qname += static_cast<char>('a' + rng.uniform_int(0, 25));
    }
    const auto d = decode_dns(encode_dns(m));
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->id, m.id);
    EXPECT_EQ(d->is_response, m.is_response);
    EXPECT_EQ(d->qname, m.qname);
    EXPECT_EQ(d->qtype, m.qtype);
    if (m.is_response) {
      EXPECT_EQ(d->rcode, m.rcode & 0x0F);
      EXPECT_EQ(d->ancount, m.ancount);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DnsRoundTrip, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---- NBNS name encoding total round-trip -------------------------------------

class NbnsNameProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NbnsNameProperty, EncodeDecodeIdentity) {
  Rng rng(GetParam());
  for (int i = 0; i < 60; ++i) {
    std::string name;
    const int len = static_cast<int>(rng.uniform_int(1, 15));
    for (int c = 0; c < len; ++c) {
      // Avoid trailing spaces (padding is stripped on decode).
      name += static_cast<char>('A' + rng.uniform_int(0, 25));
    }
    const auto suffix = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    std::string decoded;
    std::uint8_t out_suffix = 0;
    ASSERT_TRUE(nbns_decode_name(nbns_encode_name(name, suffix), decoded, out_suffix));
    EXPECT_EQ(decoded, name);
    EXPECT_EQ(out_suffix, suffix);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NbnsNameProperty, ::testing::Values(11, 12, 13, 14));

// ---- RPC / NCP codecs under random parameters --------------------------------

class RpcProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RpcProperty, CallAndReplySurviveWire) {
  Rng rng(GetParam());
  for (int i = 0; i < 40; ++i) {
    const auto xid = static_cast<std::uint32_t>(rng.next_u64());
    const auto proc = static_cast<std::uint32_t>(rng.uniform_int(0, 21));
    const auto arg = static_cast<std::size_t>(rng.uniform_int(0, 9000));
    const auto call = decode_rpc(encode_rpc_call(xid, kNfsProgram, kNfsVersion, proc, arg));
    ASSERT_TRUE(call.has_value());
    EXPECT_EQ(call->xid, xid);
    EXPECT_EQ(call->proc, proc);
    const auto status = static_cast<std::uint32_t>(rng.uniform_int(0, 70));
    const auto reply = decode_rpc(encode_rpc_reply(xid, status, arg));
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->status, status);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RpcProperty, ::testing::Values(21, 22, 23, 24));

class NcpProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NcpProperty, FramedMessagesParseInAnyChunking) {
  Rng rng(GetParam());
  Connection conn;
  std::vector<NcpCall> out;
  NcpParser parser(out);
  std::vector<std::uint8_t> stream;
  const int n = 30;
  for (int i = 0; i < n; ++i) {
    const auto req =
        encode_ncp_request(static_cast<std::uint8_t>(i), ncpfn::kRead,
                           static_cast<std::size_t>(rng.uniform_int(0, 300)));
    stream.insert(stream.end(), req.begin(), req.end());
  }
  std::size_t off = 0;
  while (off < stream.size()) {
    const std::size_t chunk =
        std::min<std::size_t>(1 + rng.uniform_int(0, 700), stream.size() - off);
    parser.on_data(conn, Direction::kOrigToResp, 1.0,
                   std::span<const std::uint8_t>(stream.data() + off, chunk));
    off += chunk;
  }
  for (int i = 0; i < n; ++i) {
    parser.on_data(conn, Direction::kRespToOrig, 2.0,
                   encode_ncp_reply(static_cast<std::uint8_t>(i), 0, 2));
  }
  EXPECT_EQ(out.size(), static_cast<std::size_t>(n));
}

INSTANTIATE_TEST_SUITE_P(Seeds, NcpProperty, ::testing::Values(31, 32, 33, 34, 35));

// ---- checksum properties ------------------------------------------------------

class ChecksumProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChecksumProperty, AppendedChecksumVerifiesToZero) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    std::vector<std::uint8_t> data(static_cast<std::size_t>(rng.uniform_int(2, 600)) & ~1ull);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
    const std::uint16_t csum = internet_checksum(data);
    data.push_back(static_cast<std::uint8_t>(csum >> 8));
    data.push_back(static_cast<std::uint8_t>(csum));
    // One's-complement sum over data+checksum folds to 0 (or 0xFFFF ~ 0).
    EXPECT_EQ(internet_checksum(data), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChecksumProperty, ::testing::Values(41, 42, 43));

// ---- generated IPv4 frames always carry valid header checksums ----------------

class FrameProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FrameProperty, EncodedIpHeadersChecksumToZero) {
  Rng rng(GetParam());
  const FrameEndpoints ep{MacAddress::from_host_id(1), MacAddress::from_host_id(2),
                          Ipv4Address(128, 3, 1, 10), Ipv4Address(128, 3, 2, 10)};
  for (int i = 0; i < 30; ++i) {
    const auto payload = filler_payload(static_cast<std::size_t>(rng.uniform_int(0, 1400)));
    std::vector<std::uint8_t> frame;
    switch (rng.uniform_int(0, 2)) {
      case 0:
        frame = make_tcp_frame(ep, 1, 2, static_cast<std::uint32_t>(rng.next_u64()), 0,
                               tcpflag::kAck, payload);
        break;
      case 1:
        frame = make_udp_frame(ep, 1, 2, payload);
        break;
      default:
        frame = make_icmp_frame(ep, 8, 0, 1, 1, payload.size());
        break;
    }
    // Verify IPv4 header checksum (bytes 14..34).
    const std::span<const std::uint8_t> ip_header(frame.data() + 14, 20);
    EXPECT_EQ(internet_checksum(ip_header), 0);
    const auto d = decode_packet(
        RawPacket{0.0, static_cast<std::uint32_t>(frame.size()), frame});
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->payload_wire_len, payload.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrameProperty, ::testing::Values(51, 52, 53, 54));

// ---- TCP builder + flow table agree on byte counts for random dialogues -------

class TcpDialogueProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TcpDialogueProperty, ByteAccountingIsExact) {
  Rng rng(GetParam());
  Trace trace;
  trace.snaplen = 1500;
  trace.duration = 1e6;
  PacketSink sink(trace);
  const HostRef client = EnterpriseModel::ref(Ipv4Address(128, 3, 1, 10));
  const HostRef server = EnterpriseModel::ref(Ipv4Address(128, 3, 2, 10));
  TcpFlowBuilder tcp(sink, rng, client, server, 40000, 80, 1.0);
  tcp.connect();
  std::uint64_t sent_c = 0, sent_s = 0;
  const int messages = static_cast<int>(rng.uniform_int(1, 12));
  for (int i = 0; i < messages; ++i) {
    const auto len = static_cast<std::size_t>(rng.uniform_int(1, 50000));
    if (rng.bernoulli(0.5)) {
      tcp.client_message(filler_payload(len));
      sent_c += len;
    } else {
      tcp.server_message(filler_payload(len));
      sent_s += len;
    }
    tcp.advance(rng.exponential(0.1));
  }
  tcp.close();

  std::stable_sort(trace.packets.begin(), trace.packets.end(),
                   [](const RawPacket& a, const RawPacket& b) { return a.ts < b.ts; });
  FlowTable table;
  for (const RawPacket& pkt : trace.packets) {
    const auto d = decode_packet(pkt);
    ASSERT_TRUE(d.has_value());
    table.process(*d);
  }
  table.drain_all();
  ASSERT_EQ(table.connections().size(), 1u);
  const Connection& c = table.connections().front();
  EXPECT_EQ(c.orig_bytes, sent_c);
  EXPECT_EQ(c.resp_bytes, sent_s);
  EXPECT_EQ(c.state, ConnState::kClosed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TcpDialogueProperty,
                         ::testing::Values(61, 62, 63, 64, 65, 66, 67, 68, 69, 70));

// ---- CDF invariants -------------------------------------------------------------

class CdfProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CdfProperty, QuantileMonotoneAndBounded) {
  Rng rng(GetParam());
  EmpiricalCdf cdf;
  for (int i = 0; i < 500; ++i) cdf.add(rng.pareto(1.2, 1.0, 1e6));
  double prev = cdf.quantile(0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double v = cdf.quantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), cdf.min());
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), cdf.max());
  // fraction_below is a non-decreasing function hitting [0, 1].
  double prev_f = 0.0;
  for (double x = 0.5; x < 2e6; x *= 2) {
    const double f = cdf.fraction_below(x);
    EXPECT_GE(f, prev_f);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    prev_f = f;
  }
  EXPECT_DOUBLE_EQ(cdf.fraction_below(2e6), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CdfProperty, ::testing::Values(71, 72, 73, 74));

}  // namespace
}  // namespace entrace
