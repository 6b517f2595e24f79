#include "proto/smtp.h"

#include <string>

#include "util/strings.h"

namespace entrace {

SmtpParser::SmtpParser(std::vector<SmtpCommand>& out) : out_(out) {}

void SmtpParser::on_data(Connection& conn, Direction dir, double ts,
                         std::span<const std::uint8_t> data) {
  if (dir != Direction::kOrigToResp) return;  // only command stream
  if (broken_) return;
  client_buf_.append(data);
  if (client_buf_.overflowed()) {
    broken_ = true;
    note_anomaly(AnomalyKind::kAppParseError);
    return;
  }
  for (;;) {
    const std::string_view buf(reinterpret_cast<const char*>(client_buf_.data().data()),
                               client_buf_.data().size());
    const std::size_t eol = buf.find("\r\n");
    if (eol == std::string_view::npos) {
      // Inside a message body, don't accumulate unbounded text.
      if (in_data_ && buf.size() > 4096) client_buf_.consume(buf.size() - 4);
      return;
    }
    const std::string line(trim(buf.substr(0, eol)));
    client_buf_.consume(eol + 2);
    if (in_data_) {
      if (line == ".") in_data_ = false;
      continue;
    }
    const std::size_t sp = line.find(' ');
    std::string verb = to_lower(sp == std::string::npos ? line : line.substr(0, sp));
    if (verb.empty()) continue;
    for (char& c : verb) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    if (verb == "DATA") in_data_ = true;
    out_.push_back({conn.key.src, conn.key.dst, ts, std::move(verb)});
  }
}

}  // namespace entrace
