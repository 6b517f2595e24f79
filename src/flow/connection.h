// Connection records — the equivalent of Bro's conn.log summaries on which
// the paper bases its analysis (§5: "We base our analysis on connection
// summaries generated by Bro").
//
// A Connection holds only the summary: what a report line, a metric or a
// shipped tool reads (DESIGN.md §9 names each member's reader).  The TCP
// state machine's own bookkeeping (SYN/SYN-ACK/FIN flags, initial sequence
// numbers) lives in FlowTable's per-connection entry and never leaves the
// engine.
#pragma once

#include <cstdint>
#include <string>

#include "net/five_tuple.h"

namespace entrace {

enum class Direction : std::uint8_t { kOrigToResp, kRespToOrig };

// Transport-level outcome of a connection attempt.  The paper's success-
// rate analyses (§5.1.1 HTTP, §5.2.1 Windows) classify host-pair attempts
// as successful / rejected (RST) / unanswered.
enum class ConnState : std::uint8_t {
  kPending,      // nothing conclusive yet
  kEstablished,  // TCP handshake completed (or UDP/ICMP flow with traffic)
  kRejected,     // SYN answered by RST from the responder
  kUnanswered,   // SYN (or datagram) never answered
  kReset,        // established, later torn down by RST
  kClosed,       // established, closed by FIN exchange
};

const char* to_string(ConnState s);

struct Connection {
  // Oriented originator -> responder (originator sent the first packet).
  FiveTuple key;

  double start_ts = 0.0;
  double last_ts = 0.0;

  std::uint64_t orig_pkts = 0;
  std::uint64_t resp_pkts = 0;
  // Transport payload bytes as on the wire (snaplen-independent).
  std::uint64_t orig_bytes = 0;
  std::uint64_t resp_bytes = 0;

  ConnState state = ConnState::kPending;

  // 1-byte keepalive retransmissions (NCP/SSH style, §6), which the paper
  // excludes from its loss proxy; Table 12 counts the keepalive-only NCP
  // connections.  Other retransmissions are counted per packet
  // (PacketVerdict, flow.tcp_retransmissions), not per connection.
  std::uint32_t keepalive_retx = 0;

  // Application protocol id, assigned by proto::identify (0 = unknown).
  std::uint16_t app_id = 0;

  bool multicast = false;  // responder address is multicast/broadcast

  // Per-trace open order: the value of the owning FlowTable's conns_opened
  // counter when this connection was created.  In a plain batch run it
  // equals the connection's index; the windowed incremental engine uses it
  // to reassemble per-window connection deltas into the exact batch order
  // (every .esnap format since v3 carries it).
  std::uint64_t open_seq = 0;

  // Transient dispatcher state: index of this connection's application
  // parser in the ProtocolDispatcher's slot table (kNoParser = none).  Only
  // meaningful while the dispatcher that set it is alive; never exported or
  // serialized.  Living here saves a per-data-packet hash lookup keyed on
  // the connection pointer.
  static constexpr std::uint32_t kNoParser = 0xFFFFFFFFu;
  std::uint32_t parser_slot = kNoParser;

  double duration() const { return last_ts - start_ts; }
  std::uint64_t total_bytes() const { return orig_bytes + resp_bytes; }
  std::uint64_t total_pkts() const { return orig_pkts + resp_pkts; }
  bool successful() const {
    return state == ConnState::kEstablished || state == ConnState::kClosed ||
           state == ConnState::kReset;
  }

  std::string to_string() const;
};

}  // namespace entrace
