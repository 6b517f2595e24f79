// HTTP/1.x request/response parsing (§5.1.1).
//
// Extracts the fields the paper's web analysis reads: User-Agent
// (automated-client identification), conditional-GET headers, response
// status, Content-Type and body length.  The request line is checked for
// framing only.  Handles pipelined transactions by pairing requests and
// responses FIFO.
#pragma once

#include <deque>
#include <string_view>
#include <vector>

#include "proto/events.h"
#include "proto/parser.h"
#include "proto/stream_buffer.h"

namespace entrace {

class HttpParser : public AppParser {
 public:
  explicit HttpParser(std::vector<HttpTransaction>& out);

  void on_data(Connection& conn, Direction dir, double ts,
               std::span<const std::uint8_t> data) override;
  void on_close(Connection& conn) override;

 private:
  void parse_requests(const Connection& conn);
  void parse_responses();
  // Returns the header block (up to but excluding the blank line) if a
  // complete one is buffered, and its total size including the terminator.
  static bool extract_header_block(const StreamBuffer& buf, std::string_view& block,
                                   std::size_t& consumed);

  std::vector<HttpTransaction>& out_;
  StreamBuffer client_buf_;
  StreamBuffer server_buf_;
  // Requests awaiting their response, FIFO.
  std::deque<HttpTransaction> pending_;
  bool client_broken_ = false;
  bool server_broken_ = false;
};

// Header-block helpers shared with tests and the SMTP parser.
namespace httpdetail {
// Case-insensitive header lookup within a CRLF-separated block; returns the
// trimmed value or empty if absent.
std::string_view find_header(std::string_view block, std::string_view name);
}  // namespace httpdetail

}  // namespace entrace
