// The flow table: turns a stream of decoded packets into connection
// summaries, with a TCP state machine, UDP/ICMP flow aggregation, duplicate
// (retransmission) detection, and in-order stream delivery to an observer.
//
// This is our stand-in for the Bro connection engine the paper relied on.
// The engine (entries, flow map, dirty and free lists) exists only while a
// trace is processed: the batch pipeline takes the connection vector out of
// it at the end of the trace (take_connections), and a shard holds only
// that vector.  What only the state machine reads (each direction's SYN
// flag and ISN, the FIN flag) lives in the entry, so a Connection is the
// conn.log summary alone; retransmissions are per-packet verdicts.
//
// Thread-compatibility: FlowTable holds no static or global state — every
// instance is fully self-contained — so distinct instances may be driven
// from distinct threads concurrently with no synchronization, which is what
// the parallel per-trace analyzer does.  A single instance is not
// thread-safe.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "flow/connection.h"
#include "flow/flow_map.h"
#include "net/decoder.h"

namespace entrace {

// Hook for application-layer analysis.  on_data delivers in-order transport
// payload: for TCP only new (non-retransmitted, in-sequence) bytes are
// delivered; for UDP each datagram payload is delivered as-is.
// `wire_len` is the payload length on the wire; under snaplen truncation it
// can exceed data.size() (e.g. an 8 KB NFS/UDP datagram captured at 1500),
// letting parsers account message sizes truthfully from headers.
class FlowObserver {
 public:
  virtual ~FlowObserver() = default;
  virtual void on_new_connection(Connection& conn) { (void)conn; }
  virtual void on_data(Connection& conn, Direction dir, double ts,
                       std::span<const std::uint8_t> data, std::uint32_t wire_len) {
    (void)conn;
    (void)dir;
    (void)ts;
    (void)data;
    (void)wire_len;
  }
  virtual void on_close(Connection& conn) { (void)conn; }
};

// Per-packet verdict, consumed by the load analysis (Figure 10).
struct PacketVerdict {
  Connection* conn = nullptr;
  Direction dir = Direction::kOrigToResp;
  bool tcp_retransmission = false;
  bool keepalive_retx = false;
};

// Churn counters the table maintains about its own operation — the
// telemetry ground truth for `flow.*` metrics.  Plain data (no obs
// dependency): the analyzer copies these into its per-shard registry, so
// the flow layer stays reusable without the telemetry stack.
struct FlowStats {
  std::uint64_t conns_opened = 0;
  std::uint64_t conns_closed = 0;
  std::uint64_t tcp_retransmissions = 0;
  std::uint64_t keepalive_retx = 0;
  // Pure SYN with a different ISN on a live 5-tuple: the old connection is
  // closed and a fresh one starts (TCP port reuse, TIME_WAIT skipped).
  std::uint64_t tcp_tuple_reuse = 0;
  // UDP/ICMP flows split because the idle timeout elapsed.
  std::uint64_t idle_splits = 0;
  // Still-open flows administratively classified by the end-of-stream
  // drain_all() — the flows a stream's end cut mid-conversation.
  std::uint64_t drained = 0;
  // Live flows closed by a time-driven evict_idle() sweep.
  std::uint64_t evicted = 0;
};

// The tuple a packet's flow is keyed on: the 5-tuple, except that ICMP
// flows use port-symmetric pseudo-ports (echo request/reply share the
// identifier; other types key on the type) so both directions canonicalize
// to the same flow.  The batched decode stage precomputes this per packet;
// FlowTable::process computes it on demand for scalar callers.
inline FiveTuple flow_tuple_of(const DecodedPacket& pkt) {
  FiveTuple tuple = pkt.tuple();
  if (pkt.is_icmp()) {
    const bool echo = pkt.icmp_type == IcmpHeader::kEchoRequest ||
                      pkt.icmp_type == IcmpHeader::kEchoReply;
    tuple.src_port = echo ? pkt.icmp_id : pkt.icmp_type;
    tuple.dst_port = tuple.src_port;
  }
  return tuple;
}

class FlowTable {
 public:
  explicit FlowTable(FlowObserver* observer = nullptr) : observer_(observer) {}

  // Process one decoded packet.  The verdict's connection pointer is valid
  // until the next process() call: a new connection may grow the vector.
  PacketVerdict process(const DecodedPacket& pkt);

  // Hot-path variant with the packed canonical flow key precomputed by the
  // batch decode stage: key_lo/key_hi must equal
  // flow_tuple_of(pkt).canonical().packed_{lo,hi}().  Only meaningful for
  // flow-eligible packets (IPv4, l4_ok, TCP/UDP/ICMP); process(pkt)
  // handles the general case and delegates here.
  PacketVerdict process(const DecodedPacket& pkt, std::uint64_t key_lo, std::uint64_t key_hi);

  // End-of-stream drain: classify and close every still-open flow (counted
  // in stats().drained), emit on_close callbacks, clear the active map.
  // Idempotent; the batch and windowed engines both end a trace with it,
  // so both account cut-off flows the same way.
  void drain_all();

  // Time-driven expiry sweep for endless streams: closes (and unmaps) every
  // UDP or ICMP flow idle longer than the 60 s flow timeout as of stream
  // time `now` — exactly when the lazy split the next same-tuple packet
  // would force.  TCP connections are never idle-evicted: they end by
  // FIN/RST, by a SYN that reuses their tuple, or by the end-of-stream
  // drain, and reclaim_closed() recycles their slots once closed.
  // Deterministic: walks entries in creation order against stream time,
  // never wall time.  Returns the number of flows closed (also summed into
  // stats().evicted).
  std::size_t evict_idle(double now);

  // ---- windowed-engine support ---------------------------------------------
  // Indices (into connections()) of every connection touched — created,
  // updated by a packet, or closed — since the last take_dirty() call,
  // ordered by open_seq.  The incremental analyzer snapshots exactly these
  // per window; a batch run never calls it and pays only a flag test per
  // packet.
  std::vector<std::uint32_t> take_dirty();

  // Bounded-memory mode for endless streams: after take_dirty() has
  // captured a window, reclaim_closed() recycles the slots of connections
  // that are closed and already snapshotted, so the vector stops growing
  // once churn is balanced.  Recycling breaks the index == open order
  // identity (open_seq keeps the true order), so batch runs — whose report
  // path walks the vector — must never enable it.
  void enable_reclaim() { reclaim_ = true; }
  std::size_t reclaim_closed();
  std::size_t live_entries() const { return entries_.size() - free_entries_.size(); }

  const std::vector<Connection>& connections() const { return connections_; }
  // End of a batch trace: move the connections out, in open order.  The
  // table holds none afterwards.
  std::vector<Connection> take_connections() { return std::move(connections_); }
  std::uint64_t packets_processed() const { return packets_; }
  const FlowStats& stats() const { return stats_; }

 private:
  struct DirState {
    bool have_seq = false;
    // This direction's handshake segment: the SYN from the originator, the
    // SYN-ACK from the responder, and the sequence number it carried.
    bool saw_syn = false;
    std::uint32_t isn = 0;
    std::uint32_t next_seq = 0;      // next expected sequence number
    std::uint32_t max_seq_end = 0;   // highest seq+len seen
  };
  struct Entry {
    std::size_t conn_index;
    DirState orig;
    DirState resp;
    bool saw_fin = false;  // either side has sent a FIN
    bool closed = false;
    bool dirty = false;  // touched since the last take_dirty()
    bool freed = false;  // slot parked on the reclaim free list
    // The packed canonical flow key, kept so eviction and reclamation can
    // unmap the entry without re-deriving the tuple.
    std::uint64_t key_lo = 0;
    std::uint64_t key_hi = 0;
  };

  Connection& conn_of(Entry& e) { return connections_[e.conn_index]; }
  Entry& find_or_create(const DecodedPacket& pkt, std::uint64_t key_lo, std::uint64_t key_hi,
                        bool& created);
  PacketVerdict process_tcp(Entry& e, const DecodedPacket& pkt, Direction dir);
  void process_udp(Entry& e, const DecodedPacket& pkt, Direction dir);
  void close_entry(Entry& e);
  void mark_dirty(Entry& e) {
    if (!e.dirty) {
      e.dirty = true;
      dirty_.push_back(static_cast<std::uint32_t>(e.conn_index));
    }
  }
  // Unmap the entry's key if this entry still owns it (a split may have
  // re-pointed the key at a successor entry).
  void unmap_if_owner(std::size_t index);

  FlowObserver* observer_;
  std::vector<Connection> connections_;
  // Entries are created 1:1 with connections (entries_[i].conn_index == i)
  // and erased never — an entry whose key leaves the active map keeps its
  // terminal state here, which gives drain_all() a deterministic
  // creation-order walk (close_entry is idempotent, so closing everything
  // equals closing the live subset).  In reclaim mode a closed, already-
  // snapshotted slot is parked on free_entries_ and reused by the next
  // connection instead of growing the vector.  active_ only maps the packed
  // canonical key of live flows to an index.
  std::vector<Entry> entries_;
  FlowMap active_;
  std::uint64_t packets_ = 0;
  FlowStats stats_;
  std::vector<std::uint32_t> dirty_;
  bool reclaim_ = false;
  std::vector<std::uint32_t> free_entries_;
};

}  // namespace entrace
