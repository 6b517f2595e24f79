#include "proto/smtp.h"

#include <string_view>

#include "util/strings.h"

namespace entrace {

SmtpParser::SmtpParser(std::uint64_t& commands) : commands_(commands) {}

void SmtpParser::on_data(Connection& conn, Direction dir, double ts,
                         std::span<const std::uint8_t> data) {
  (void)conn;
  (void)ts;
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
    const std::string_view line = trim(buf.substr(0, eol));
    const std::string_view verb = line.substr(0, line.find(' '));
    const bool body_ends = line == ".";
    const bool body_starts = verb.size() == 4 && starts_with_icase(verb, "DATA");
    client_buf_.consume(eol + 2);  // invalidates line and verb
    if (in_data_) {
      in_data_ = !body_ends;
    } else if (!verb.empty()) {
      in_data_ = body_starts;
      ++commands_;
    }
  }
}

}  // namespace entrace
