// Tests for the stream buffer, the protocol dispatcher (including the
// header-only snaplen policy and EPM dynamic-port registration), and the
// SMTP command parser.
#include <gtest/gtest.h>

#include "net/encoder.h"
#include "proto/dcerpc.h"
#include "proto/dispatcher.h"
#include "proto/smtp.h"
#include "proto/stream_buffer.h"

namespace entrace {
namespace {

std::span<const std::uint8_t> bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(StreamBuffer, AppendConsume) {
  StreamBuffer buf;
  buf.append(bytes("hello "));
  buf.append(bytes("world"));
  ASSERT_EQ(buf.data().size(), 11u);
  buf.consume(6);
  EXPECT_EQ(buf.data().size(), 5u);
  EXPECT_EQ(buf.data()[0], 'w');
  EXPECT_EQ(buf.total_seen(), 11u);
}

TEST(StreamBuffer, SkipSpansFutureAppends) {
  StreamBuffer buf;
  buf.append(bytes("header"));
  buf.consume(6);
  buf.skip(10);  // skip a 10-byte body that has not arrived yet
  EXPECT_EQ(buf.pending_skip(), 10u);
  buf.append(bytes("0123456789tail"));
  EXPECT_EQ(buf.pending_skip(), 0u);
  ASSERT_EQ(buf.data().size(), 4u);
  EXPECT_EQ(buf.data()[0], 't');
}

TEST(StreamBuffer, SkipPartlyFromBuffer) {
  StreamBuffer buf;
  buf.append(bytes("abcdef"));
  buf.skip(4);
  EXPECT_EQ(buf.data().size(), 2u);
  EXPECT_EQ(buf.pending_skip(), 0u);
  buf.skip(5);  // 2 from buffer, 3 pending
  EXPECT_EQ(buf.pending_skip(), 3u);
}

TEST(StreamBuffer, OverflowCapsMemory) {
  StreamBuffer buf(64);
  buf.append(std::vector<std::uint8_t>(60, 'x'));
  EXPECT_FALSE(buf.overflowed());
  buf.append(std::vector<std::uint8_t>(10, 'y'));
  EXPECT_TRUE(buf.overflowed());
  EXPECT_LE(buf.data().size(), 64u);
}

TEST(SmtpParser, CountsCommandsSkipsBody) {
  Connection conn;
  std::uint64_t commands = 0;
  SmtpParser parser(commands);
  // HELO, MAIL, RCPT, then a lower-case "data" that still opens the body.
  parser.on_data(conn, Direction::kOrigToResp, 1.0,
                 bytes("HELO me\r\nMAIL FROM:<a@b>\r\nRCPT TO:<c@d>\r\ndata\r\n"));
  EXPECT_EQ(commands, 4u);
  parser.on_data(conn, Direction::kOrigToResp, 1.1,
                 bytes("Subject: hi\r\nDATA inside body should not count\r\n.\r\nQUIT\r\n"));
  EXPECT_EQ(commands, 5u);  // the body's lines are skipped, QUIT counts
  // A blank line is no command; "DATAX" does not open a body.
  parser.on_data(conn, Direction::kOrigToResp, 1.2, bytes("\r\nDATAX\r\nRSET\r\n"));
  EXPECT_EQ(commands, 7u);
}

TEST(SmtpParser, ServerDirectionIgnored) {
  Connection conn;
  std::uint64_t commands = 0;
  SmtpParser parser(commands);
  parser.on_data(conn, Direction::kRespToOrig, 1.0, bytes("220 hello\r\n250 ok\r\n"));
  EXPECT_EQ(commands, 0u);
}

class DispatcherTest : public ::testing::Test {
 protected:
  Connection make_conn(std::uint8_t proto, std::uint16_t dport) {
    Connection c;
    c.key = {Ipv4Address(128, 3, 1, 10), Ipv4Address(128, 3, 2, 10), 40000, dport, proto};
    return c;
  }

  AppRegistry registry;
  AppEvents events;
};

TEST_F(DispatcherTest, IdentifiesAndParses) {
  ProtocolDispatcher dispatcher(registry, events, /*payload_analysis=*/true);
  Connection conn = make_conn(ipproto::kTcp, 80);
  dispatcher.on_new_connection(conn);
  EXPECT_EQ(static_cast<AppProtocol>(conn.app_id), AppProtocol::kHttp);
  const std::string req = "GET / HTTP/1.1\r\nHost: x\r\n\r\n";
  const std::string resp = "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n";
  dispatcher.on_data(conn, Direction::kOrigToResp, 1.0, bytes(req),
                     static_cast<std::uint32_t>(req.size()));
  dispatcher.on_data(conn, Direction::kRespToOrig, 1.1, bytes(resp),
                     static_cast<std::uint32_t>(resp.size()));
  dispatcher.on_close(conn);
  ASSERT_EQ(events.http.size(), 1u);
  EXPECT_EQ(events.http[0].status, 200);
}

TEST_F(DispatcherTest, HeaderOnlyModeSkipsParsers) {
  ProtocolDispatcher dispatcher(registry, events, /*payload_analysis=*/false);
  Connection conn = make_conn(ipproto::kTcp, 80);
  dispatcher.on_new_connection(conn);
  // Identification still happens...
  EXPECT_EQ(static_cast<AppProtocol>(conn.app_id), AppProtocol::kHttp);
  // ...but no parsing.
  const std::string req = "GET / HTTP/1.1\r\nHost: x\r\n\r\n";
  dispatcher.on_data(conn, Direction::kOrigToResp, 1.0, bytes(req),
                     static_cast<std::uint32_t>(req.size()));
  dispatcher.on_close(conn);
  EXPECT_TRUE(events.http.empty());
}

TEST_F(DispatcherTest, EpmMappingRegistersDynamicEndpoint) {
  ProtocolDispatcher dispatcher(registry, events, true);
  Connection epm = make_conn(ipproto::kTcp, 135);
  dispatcher.on_new_connection(epm);
  EXPECT_EQ(static_cast<AppProtocol>(epm.app_id), AppProtocol::kEndpointMapper);

  const auto stub =
      encode_epm_map_stub(dce_uuid(DceIface::kSpoolss), epm.key.dst, 2345);
  auto feed = [&](Direction dir, const std::vector<std::uint8_t>& msg) {
    dispatcher.on_data(epm, dir, 1.0, msg, static_cast<std::uint32_t>(msg.size()));
  };
  feed(Direction::kOrigToResp, encode_dce_bind(1, dce_uuid(DceIface::kEpm)));
  feed(Direction::kRespToOrig, encode_dce_bind_ack(1));
  feed(Direction::kOrigToResp, encode_dce_request_stub(2, 3, stub));
  feed(Direction::kRespToOrig, encode_dce_response_stub(2, stub));

  // The dynamic endpoint is now classified as DCE/RPC.
  EXPECT_TRUE(registry.is_dcerpc_endpoint(epm.key.dst, 2345));
  Connection dyn = make_conn(ipproto::kTcp, 2345);
  dispatcher.on_new_connection(dyn);
  EXPECT_EQ(static_cast<AppProtocol>(dyn.app_id), AppProtocol::kDceRpc);
}

TEST_F(DispatcherTest, UnknownPortsGetNoParser) {
  ProtocolDispatcher dispatcher(registry, events, true);
  Connection conn = make_conn(ipproto::kTcp, 54321);
  dispatcher.on_new_connection(conn);
  EXPECT_EQ(static_cast<AppProtocol>(conn.app_id), AppProtocol::kUnknown);
  const std::string garbage = "GET / HTTP/1.1\r\n\r\n";  // HTTP on a weird port
  dispatcher.on_data(conn, Direction::kOrigToResp, 1.0, bytes(garbage),
                     static_cast<std::uint32_t>(garbage.size()));
  EXPECT_TRUE(events.http.empty());
}

TEST(ConnectionPrinting, StateNamesAndToString) {
  Connection c;
  c.key = {Ipv4Address(1, 2, 3, 4), Ipv4Address(5, 6, 7, 8), 1000, 80, 6};
  c.state = ConnState::kRejected;
  const std::string s = c.to_string();
  EXPECT_NE(s.find("rejected"), std::string::npos);
  EXPECT_NE(s.find("1.2.3.4"), std::string::npos);
  EXPECT_STREQ(to_string(ConnState::kClosed), "closed");
  EXPECT_STREQ(to_string(ConnState::kUnanswered), "unanswered");
}

}  // namespace
}  // namespace entrace
