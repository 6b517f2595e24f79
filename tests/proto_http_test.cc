// Tests for the HTTP parser.
#include <gtest/gtest.h>

#include <string>

#include "proto/http.h"

namespace entrace {
namespace {

std::span<const std::uint8_t> bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

class HttpParserTest : public ::testing::Test {
 protected:
  void feed_client(const std::string& s, double ts = 1.0) {
    parser.on_data(conn, Direction::kOrigToResp, ts, bytes(s));
  }
  void feed_server(const std::string& s, double ts = 2.0) {
    parser.on_data(conn, Direction::kRespToOrig, ts, bytes(s));
  }

  Connection conn;
  std::vector<HttpTransaction> out;
  HttpParser parser{out};
};

TEST_F(HttpParserTest, SimpleTransaction) {
  feed_client(
      "GET /index.html HTTP/1.1\r\nHost: www.lbl.example\r\n"
      "User-Agent: Mozilla/4.0\r\nAccept: */*\r\n\r\n");
  feed_server(
      "HTTP/1.1 200 OK\r\nContent-Type: text/html; charset=utf-8\r\n"
      "Content-Length: 5\r\n\r\nhello");
  ASSERT_EQ(out.size(), 1u);
  const HttpTransaction& t = out[0];
  EXPECT_EQ(t.user_agent, "Mozilla/4.0");
  EXPECT_EQ(t.status, 200);
  EXPECT_EQ(t.content_type, "text/html");  // parameters stripped
  EXPECT_EQ(t.resp_body_len, 5u);
  EXPECT_FALSE(t.conditional);
  EXPECT_TRUE(t.has_response);
}

TEST_F(HttpParserTest, ConditionalGetAnd304) {
  feed_client(
      "GET /cached.png HTTP/1.1\r\nHost: intranet\r\n"
      "If-Modified-Since: Mon, 03 Jan 2005 10:00:00 GMT\r\n\r\n");
  feed_server("HTTP/1.1 304 Not Modified\r\nContent-Length: 0\r\n\r\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].conditional);
  EXPECT_EQ(out[0].status, 304);
  EXPECT_EQ(out[0].resp_body_len, 0u);
}

TEST_F(HttpParserTest, HeadersSplitAcrossSegments) {
  feed_client("GET /a HTTP/1.1\r\nHo");
  feed_client("st: x\r\nUser-Ag");
  feed_client("ent: probe\r\nIf-None-");
  feed_client("Match: \"v1\"\r\n\r\n");
  feed_server("HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].user_agent, "probe");
  EXPECT_TRUE(out[0].conditional);
}

TEST_F(HttpParserTest, PipelinedRequestsPairedFifo) {
  feed_client("GET /1 HTTP/1.1\r\nUser-Agent: one\r\n\r\n"
              "GET /2 HTTP/1.1\r\nUser-Agent: two\r\n\r\n");
  feed_server("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nab"
              "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].user_agent, "one");
  EXPECT_EQ(out[0].status, 200);
  EXPECT_EQ(out[1].user_agent, "two");
  EXPECT_EQ(out[1].status, 404);
}

TEST_F(HttpParserTest, PostBodySkippedWithoutBuffering) {
  const std::string body(100000, 'x');
  feed_client("POST /upload HTTP/1.1\r\nUser-Agent: poster\r\nContent-Length: " +
              std::to_string(body.size()) + "\r\n\r\n" + body.substr(0, 100));
  feed_client(body.substr(100));
  feed_client("GET /after HTTP/1.1\r\nUser-Agent: after\r\n\r\n");
  feed_server("HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n");
  feed_server("HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].user_agent, "poster");
  EXPECT_EQ(out[1].user_agent, "after");
}

TEST_F(HttpParserTest, LargeResponseBodySkipped) {
  feed_client("GET /big HTTP/1.1\r\nHost: h\r\n\r\n");
  const std::size_t body_len = 5 * 1024 * 1024;
  feed_server("HTTP/1.1 200 OK\r\nContent-Type: application/zip\r\nContent-Length: " +
              std::to_string(body_len) + "\r\n\r\n");
  // Body arrives in chunks; then another transaction.
  std::string chunk(65536, 'z');
  for (std::size_t sent = 0; sent < body_len; sent += chunk.size()) feed_server(chunk);
  feed_client("GET /next HTTP/1.1\r\nHost: h\r\n\r\n");
  feed_server("HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nx");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].resp_body_len, body_len);
  EXPECT_EQ(out[0].content_type, "application/zip");
  EXPECT_EQ(out[1].resp_body_len, 1u);
}

TEST_F(HttpParserTest, UnansweredRequestFlushedOnClose) {
  feed_client("GET /noreply HTTP/1.1\r\nHost: h\r\n\r\n");
  parser.on_close(conn);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].has_response);
}

TEST_F(HttpParserTest, NonHttpClientDataStopsParser) {
  feed_client("\x16\x03\x01 garbage TLS bytes\r\n\r\nmore\r\n\r\n");
  feed_client("GET /later HTTP/1.1\r\nHost: h\r\n\r\n");
  parser.on_close(conn);
  EXPECT_TRUE(out.empty());  // broken stream: nothing parsed, nothing invented
}

TEST_F(HttpParserTest, ResponseWithoutRequestIgnored) {
  feed_server("HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc");
  EXPECT_TRUE(out.empty());
}

TEST(HttpDetail, FindHeaderIsCaseInsensitive) {
  const std::string_view block =
      "GET / HTTP/1.1\r\ncontent-length: 42\r\nX-Other: 1";
  EXPECT_EQ(httpdetail::find_header(block, "Content-Length"), "42");
  EXPECT_EQ(httpdetail::find_header(block, "x-other"), "1");
  EXPECT_EQ(httpdetail::find_header(block, "Missing"), "");
}

}  // namespace
}  // namespace entrace
