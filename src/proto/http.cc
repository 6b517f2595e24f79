#include "proto/http.h"

#include <cstdlib>
#include <string>

#include "util/strings.h"

namespace entrace {
namespace httpdetail {

std::string_view find_header(std::string_view block, std::string_view name) {
  std::size_t pos = 0;
  while (pos < block.size()) {
    std::size_t eol = block.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = block.size();
    const std::string_view line = block.substr(pos, eol - pos);
    if (line.size() > name.size() + 1 && line[name.size()] == ':' &&
        starts_with_icase(line, name)) {
      return trim(line.substr(name.size() + 1));
    }
    pos = eol + 2;
  }
  return {};
}

}  // namespace httpdetail

namespace {

std::string_view as_view(std::span<const std::uint8_t> data) {
  return {reinterpret_cast<const char*>(data.data()), data.size()};
}

std::uint64_t parse_content_length(std::string_view block) {
  const std::string_view v = httpdetail::find_header(block, "Content-Length");
  if (v.empty()) return 0;
  return std::strtoull(std::string(v).c_str(), nullptr, 10);
}

}  // namespace

HttpParser::HttpParser(std::vector<HttpTransaction>& out) : out_(out) {}

bool HttpParser::extract_header_block(const StreamBuffer& buf, std::string_view& block,
                                      std::size_t& consumed) {
  const std::string_view data = as_view(buf.data());
  const std::size_t end = data.find("\r\n\r\n");
  if (end == std::string_view::npos) return false;
  block = data.substr(0, end);
  consumed = end + 4;
  return true;
}

void HttpParser::on_data(Connection& conn, Direction dir, double ts,
                         std::span<const std::uint8_t> data) {
  (void)ts;
  if (dir == Direction::kOrigToResp) {
    if (client_broken_) return;
    client_buf_.append(data);
    if (client_buf_.overflowed()) {
      client_broken_ = true;
      note_anomaly(AnomalyKind::kAppParseError);
      return;
    }
    parse_requests(conn);
  } else {
    if (server_broken_) return;
    server_buf_.append(data);
    if (server_buf_.overflowed()) {
      server_broken_ = true;
      note_anomaly(AnomalyKind::kAppParseError);
      return;
    }
    parse_responses();
  }
}

void HttpParser::parse_requests(const Connection& conn) {
  std::string_view block;
  std::size_t consumed;
  while (extract_header_block(client_buf_, block, consumed)) {
    const std::size_t line_end = block.find("\r\n");
    const std::string_view request_line =
        line_end == std::string_view::npos ? block : block.substr(0, line_end);
    const auto parts = split(request_line, ' ');
    if (parts.size() < 3 || !parts[2].starts_with("HTTP/")) {
      // Not HTTP after all; stop parsing this connection.
      client_broken_ = true;
      note_anomaly(AnomalyKind::kAppParseError);
      return;
    }
    HttpTransaction txn;
    txn.src = conn.key.src;
    txn.dst = conn.key.dst;
    txn.user_agent = std::string(httpdetail::find_header(block, "User-Agent"));
    txn.conditional = !httpdetail::find_header(block, "If-Modified-Since").empty() ||
                      !httpdetail::find_header(block, "If-None-Match").empty();
    const std::uint64_t body = parse_content_length(block);
    client_buf_.consume(consumed);
    if (body > 0) client_buf_.skip(body);
    pending_.push_back(std::move(txn));
  }
}

void HttpParser::parse_responses() {
  std::string_view block;
  std::size_t consumed;
  while (extract_header_block(server_buf_, block, consumed)) {
    const std::size_t line_end = block.find("\r\n");
    const std::string_view status_line =
        line_end == std::string_view::npos ? block : block.substr(0, line_end);
    if (!status_line.starts_with("HTTP/")) {
      server_broken_ = true;
      note_anomaly(AnomalyKind::kAppParseError);
      return;
    }
    const auto parts = split(status_line, ' ');
    const int status = parts.size() >= 2 ? std::atoi(std::string(parts[1]).c_str()) : 0;
    const std::uint64_t body = parse_content_length(block);
    std::string_view ctype = httpdetail::find_header(block, "Content-Type");
    // Strip parameters ("text/html; charset=...").
    const std::size_t semi = ctype.find(';');
    if (semi != std::string_view::npos) ctype = trim(ctype.substr(0, semi));

    server_buf_.consume(consumed);
    if (body > 0) server_buf_.skip(body);

    if (pending_.empty()) continue;  // response with no observed request
    HttpTransaction txn = std::move(pending_.front());
    pending_.pop_front();
    txn.has_response = true;
    txn.status = status;
    txn.content_type = std::string(ctype);
    txn.resp_body_len = body;
    out_.push_back(std::move(txn));
  }
}

void HttpParser::on_close(Connection& conn) {
  (void)conn;
  // Flush unanswered requests.
  for (auto& txn : pending_) out_.push_back(std::move(txn));
  pending_.clear();
}

}  // namespace entrace
