// Tests for DNS wire-format encode/decode and transaction pairing.
#include <gtest/gtest.h>

#include "proto/dns.h"

namespace entrace {
namespace {

TEST(DnsWire, QueryRoundTrip) {
  DnsMessage q;
  q.id = 0x1234;
  q.qname = "mail.lbl.example";
  q.qtype = dnstype::kMx;
  const auto wire = encode_dns(q);
  const auto d = decode_dns(wire);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->id, 0x1234);
  EXPECT_FALSE(d->is_response);
  EXPECT_EQ(d->qname, "mail.lbl.example");
  EXPECT_EQ(d->qtype, dnstype::kMx);
}

TEST(DnsWire, ResponseWithAnswers) {
  DnsMessage r;
  r.id = 7;
  r.is_response = true;
  r.qname = "host.example.org";
  r.qtype = dnstype::kA;
  r.ancount = 3;
  r.rcode = dnsrcode::kNoError;
  const auto d = decode_dns(encode_dns(r));
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->is_response);
  EXPECT_EQ(d->ancount, 3);
  EXPECT_EQ(d->rcode, dnsrcode::kNoError);
}

TEST(DnsWire, AllQtypesRoundTrip) {
  for (std::uint16_t qt : {dnstype::kA, dnstype::kAaaa, dnstype::kPtr, dnstype::kMx}) {
    DnsMessage r;
    r.id = qt;
    r.is_response = true;
    r.qname = "x.y";
    r.qtype = qt;
    r.ancount = 1;
    const auto d = decode_dns(encode_dns(r));
    ASSERT_TRUE(d.has_value()) << qt;
    EXPECT_EQ(d->qtype, qt);
  }
}

TEST(DnsWire, NxdomainRcode) {
  DnsMessage r;
  r.id = 9;
  r.is_response = true;
  r.qname = "gone.example";
  r.rcode = dnsrcode::kNxDomain;
  const auto d = decode_dns(encode_dns(r));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->rcode, dnsrcode::kNxDomain);
}

TEST(DnsWire, TruncatedRejected) {
  DnsMessage q;
  q.id = 1;
  q.qname = "a.b";
  auto wire = encode_dns(q);
  wire.resize(wire.size() / 2);
  EXPECT_FALSE(decode_dns(wire).has_value());
}

TEST(DnsWire, GarbageRejectedOrHarmless) {
  std::vector<std::uint8_t> junk = {0xde, 0xad};
  EXPECT_FALSE(decode_dns(junk).has_value());
}

TEST(DnsParser, PairsQueryAndResponseLatency) {
  Connection conn;
  std::vector<DnsTransaction> out;
  DnsParser parser(out);
  DnsMessage q;
  q.id = 42;
  q.qname = "www.lbl.example";
  q.qtype = dnstype::kA;
  const auto qw = encode_dns(q);
  parser.on_data(conn, Direction::kOrigToResp, 10.0, qw);
  EXPECT_TRUE(out.empty());
  DnsMessage r = q;
  r.is_response = true;
  r.ancount = 1;
  const auto rw = encode_dns(r);
  parser.on_data(conn, Direction::kRespToOrig, 10.02, rw);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].has_response);
  EXPECT_NEAR(out[0].latency(), 0.02, 1e-9);
  EXPECT_EQ(out[0].qtype, dnstype::kA);
}

TEST(DnsParser, UnansweredFlushedOnClose) {
  Connection conn;
  std::vector<DnsTransaction> out;
  DnsParser parser(out);
  DnsMessage q;
  q.id = 5;
  q.qname = "lost.example";
  const auto qw = encode_dns(q);
  parser.on_data(conn, Direction::kOrigToResp, 1.0, qw);
  parser.on_close(conn);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].has_response);
}

TEST(DnsParser, ResponseWithUnknownIdIgnored) {
  Connection conn;
  std::vector<DnsTransaction> out;
  DnsParser parser(out);
  DnsMessage r;
  r.id = 999;
  r.is_response = true;
  r.qname = "x.y";
  const auto rw = encode_dns(r);
  parser.on_data(conn, Direction::kRespToOrig, 1.0, rw);
  EXPECT_TRUE(out.empty());
}

TEST(DnsParser, InterleavedTransactions) {
  Connection conn;
  std::vector<DnsTransaction> out;
  DnsParser parser(out);
  for (std::uint16_t id : {1, 2, 3}) {
    DnsMessage q;
    q.id = id;
    q.qname = "h" + std::to_string(id) + ".example";
    const auto w = encode_dns(q);
    parser.on_data(conn, Direction::kOrigToResp, id, w);
  }
  // Answer out of order: 3, 1, 2.
  for (std::uint16_t id : {3, 1, 2}) {
    DnsMessage r;
    r.id = id;
    r.is_response = true;
    r.qname = "h" + std::to_string(id) + ".example";
    const auto w = encode_dns(r);
    parser.on_data(conn, Direction::kRespToOrig, 10.0 + id, w);
  }
  ASSERT_EQ(out.size(), 3u);
  for (const auto& t : out) EXPECT_TRUE(t.has_response);
}

}  // namespace
}  // namespace entrace
