// Light SMTP command parsing.  The paper analyzes email mostly at the
// transport layer (payloads are often encrypted); we parse the SMTP command
// stream where visible to validate the email traffic model, counting the
// commands (app.events.smtp) and skipping message bodies.
#pragma once

#include <cstdint>

#include "proto/events.h"
#include "proto/parser.h"
#include "proto/stream_buffer.h"

namespace entrace {

class SmtpParser : public AppParser {
 public:
  // Each command line adds one to `commands`.
  explicit SmtpParser(std::uint64_t& commands);

  void on_data(Connection& conn, Direction dir, double ts,
               std::span<const std::uint8_t> data) override;

 private:
  std::uint64_t& commands_;
  StreamBuffer client_buf_;
  bool in_data_ = false;  // between DATA and the dot terminator
  bool broken_ = false;   // command buffer overflowed; stop parsing
};

}  // namespace entrace
