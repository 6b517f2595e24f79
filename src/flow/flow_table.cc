#include "flow/flow_table.h"

#include <algorithm>

namespace entrace {
namespace {

// The idle gap that splits a UDP or ICMP flow: the next same-tuple packet
// after it starts a new flow, and evict_idle closes the flow once it
// passes.
constexpr double kFlowTimeout = 60.0;

// Signed sequence-number comparison (RFC 1982 style) so the logic survives
// wraparound, although our traces are short enough not to wrap.
inline bool seq_leq(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) <= 0;
}
inline bool seq_lt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}

}  // namespace

FlowTable::Entry& FlowTable::find_or_create(const DecodedPacket& pkt, std::uint64_t key_lo,
                                            std::uint64_t key_hi, bool& created) {
  const std::size_t slot = active_.find_slot(key_lo, key_hi);
  if (slot != FlowMap::kNoSlot) {
    Entry& e = entries_[active_.value_at(slot)];
    Connection& conn = conn_of(e);
    const bool syn_only = pkt.is_tcp() && (pkt.tcp_flags & tcpflag::kSyn) &&
                          !(pkt.tcp_flags & tcpflag::kAck);
    const bool idle_expired = !pkt.is_tcp() && pkt.ts - conn.last_ts > kFlowTimeout;
    const bool fresh_syn = syn_only && e.closed;
    // Port reuse: a pure SYN carrying a *different* ISN from the original
    // originator while the old connection is still live means the client
    // skipped TIME_WAIT and reused the 5-tuple.  Treating it as the same
    // connection used to overwrite the originator's ISN and corrupt the
    // sequence-based byte accounting; instead the old entry closes and a
    // fresh Connection starts.  (A SYN with the *same* ISN stays a retransmission, handled
    // by process_tcp.)
    const bool orig_dir =
        pkt.src == conn.key.src && (pkt.is_icmp() || pkt.src_port == conn.key.src_port);
    const bool reused_tuple = syn_only && !e.closed && orig_dir && e.orig.saw_syn &&
                              pkt.tcp_seq != e.orig.isn;
    if (fresh_syn || idle_expired || reused_tuple) {
      if (reused_tuple) ++stats_.tcp_tuple_reuse;
      if (idle_expired) ++stats_.idle_splits;
      close_entry(e);
      active_.erase_slot(slot);
    } else {
      created = false;
      return e;
    }
  }

  created = true;
  Connection conn;
  // Cold path (one execution per connection): recomputing the oriented
  // tuple here keeps the per-packet path on the precomputed packed key.
  conn.key = flow_tuple_of(pkt);  // orientation: first packet's sender is the originator
  conn.start_ts = pkt.ts;
  conn.last_ts = pkt.ts;
  conn.multicast = pkt.dst.is_multicast() || pkt.dst.is_broadcast();
  conn.open_seq = stats_.conns_opened;
  ++stats_.conns_opened;
  std::size_t index;
  if (reclaim_ && !free_entries_.empty()) {
    index = free_entries_.back();
    free_entries_.pop_back();
    connections_[index] = conn;
    entries_[index] = Entry{index};
  } else {
    index = connections_.size();
    connections_.push_back(conn);
    entries_.push_back(Entry{index});
  }
  Entry& e = entries_[index];
  e.key_lo = key_lo;
  e.key_hi = key_hi;
  active_.insert(key_lo, key_hi, static_cast<std::uint32_t>(index));
  return e;
}

PacketVerdict FlowTable::process(const DecodedPacket& pkt) {
  if (pkt.l3 == L3Kind::kIpv4 && pkt.l4_ok &&
      (pkt.is_tcp() || pkt.is_udp() || pkt.is_icmp())) {
    const FiveTuple key = flow_tuple_of(pkt).canonical();
    return process(pkt, key.packed_lo(), key.packed_hi());
  }
  ++packets_;
  return PacketVerdict{};
}

PacketVerdict FlowTable::process(const DecodedPacket& pkt, std::uint64_t key_lo,
                                 std::uint64_t key_hi) {
  ++packets_;
  PacketVerdict verdict;
  if (pkt.l3 != L3Kind::kIpv4 || !pkt.l4_ok) return verdict;
  if (!pkt.is_tcp() && !pkt.is_udp() && !pkt.is_icmp()) return verdict;

  bool created = false;
  Entry& e = find_or_create(pkt, key_lo, key_hi, created);
  mark_dirty(e);
  Connection& conn = conn_of(e);
  // ICMP flow keys are port-symmetric; direction is by address there.
  const Direction dir =
      (pkt.src == conn.key.src && (pkt.is_icmp() || pkt.src_port == conn.key.src_port))
          ? Direction::kOrigToResp
          : Direction::kRespToOrig;
  verdict.conn = &conn;
  verdict.dir = dir;

  if (created && observer_) observer_->on_new_connection(conn);

  conn.last_ts = pkt.ts;
  if (dir == Direction::kOrigToResp) {
    ++conn.orig_pkts;
  } else {
    ++conn.resp_pkts;
  }

  if (pkt.is_tcp()) {
    PacketVerdict tcp_verdict = process_tcp(e, pkt, dir);
    tcp_verdict.conn = &conn;
    tcp_verdict.dir = dir;
    if (tcp_verdict.tcp_retransmission) ++stats_.tcp_retransmissions;
    if (tcp_verdict.keepalive_retx) ++stats_.keepalive_retx;
    return tcp_verdict;
  }
  process_udp(e, pkt, dir);
  return verdict;
}

PacketVerdict FlowTable::process_tcp(Entry& e, const DecodedPacket& pkt, Direction dir) {
  PacketVerdict verdict;
  Connection& conn = conn_of(e);
  DirState& ds = dir == Direction::kOrigToResp ? e.orig : e.resp;
  const std::uint8_t flags = pkt.tcp_flags;
  const std::uint32_t seq = pkt.tcp_seq;
  const std::uint32_t payload_len = pkt.payload_wire_len;

  // --- handshake state -------------------------------------------------
  if ((flags & tcpflag::kSyn) && !(flags & tcpflag::kAck)) {
    if (dir == Direction::kOrigToResp) {
      // Retransmitted SYN: the connection attempt is not progressing.
      if (ds.saw_syn && seq == ds.isn) verdict.tcp_retransmission = true;
      ds.saw_syn = true;
      ds.isn = seq;
      ds.have_seq = true;
      ds.next_seq = seq + 1;
      ds.max_seq_end = seq + 1;
    }
    return verdict;
  }
  if ((flags & tcpflag::kSyn) && (flags & tcpflag::kAck)) {
    if (dir == Direction::kRespToOrig) {
      if (ds.saw_syn && seq == ds.isn) verdict.tcp_retransmission = true;
      ds.saw_syn = true;
      ds.isn = seq;
      if (conn.state == ConnState::kPending) conn.state = ConnState::kEstablished;
      ds.have_seq = true;
      ds.next_seq = seq + 1;
      ds.max_seq_end = seq + 1;
    }
    return verdict;
  }
  if (flags & tcpflag::kRst) {
    if (conn.state == ConnState::kPending) {
      // RST answering a SYN from the responder side = rejected.
      conn.state = dir == Direction::kRespToOrig ? ConnState::kRejected
                                                 : ConnState::kUnanswered;
    } else if (conn.successful()) {
      conn.state = ConnState::kReset;
    }
    close_entry(e);
    return verdict;
  }

  // --- data / retransmission tracking ----------------------------------
  if (!ds.have_seq) {
    // Mid-stream pickup (trace started inside the connection).
    ds.have_seq = true;
    ds.next_seq = seq;
    ds.max_seq_end = seq;
    if (conn.state == ConnState::kPending && conn.orig_pkts > 0 && conn.resp_pkts > 0)
      conn.state = ConnState::kEstablished;
  }

  if (payload_len > 0) {
    const std::uint32_t seq_end = seq + payload_len;
    if (seq_leq(seq_end, ds.max_seq_end)) {
      // Entirely old data: a retransmission.
      verdict.tcp_retransmission = true;
      if (payload_len == 1 && seq + 1 == ds.next_seq) {
        // 1-byte keepalive probe (NCP/SSH style, §6).
        ++conn.keepalive_retx;
        verdict.keepalive_retx = true;
      }
    } else {
      // At least some new data.  Byte accounting is sequence-based (wire
      // truth): a gap left by a capture drop still advances the stream, so
      // the missing bytes are counted exactly once.
      std::uint32_t new_start = seq;
      if (seq_lt(seq, ds.next_seq)) new_start = ds.next_seq;  // partial overlap
      const std::uint64_t new_bytes =
          seq_lt(ds.next_seq, seq_end) ? seq_end - ds.next_seq : 0;
      if (dir == Direction::kOrigToResp) {
        conn.orig_bytes += new_bytes;
      } else {
        conn.resp_bytes += new_bytes;
      }
      if (observer_ && !pkt.payload.empty()) {
        // Map the new byte range into the captured payload span.
        const std::uint32_t skip = new_start - seq;
        if (skip < pkt.payload.size()) {
          auto data = pkt.payload.subspan(skip);
          observer_->on_data(conn, dir, pkt.ts, data,
                             static_cast<std::uint32_t>(data.size()));
        }
      }
      ds.next_seq = seq_end;
      ds.max_seq_end = seq_end;
      if (conn.state == ConnState::kPending && e.orig.saw_syn && e.resp.saw_syn)
        conn.state = ConnState::kEstablished;
    }
  }

  if (flags & tcpflag::kFin) {
    ds.next_seq = seq + payload_len + 1;
    ds.max_seq_end = ds.next_seq;
    const bool other_fin = e.saw_fin;
    e.saw_fin = true;
    if (other_fin) {
      if (conn.successful() || conn.state == ConnState::kPending)
        conn.state = ConnState::kClosed;
      close_entry(e);
    }
  }
  return verdict;
}

void FlowTable::process_udp(Entry& e, const DecodedPacket& pkt, Direction dir) {
  Connection& conn = conn_of(e);
  const std::uint32_t payload_len = pkt.payload_wire_len;
  if (dir == Direction::kOrigToResp) {
    conn.orig_bytes += payload_len;
  } else {
    conn.resp_bytes += payload_len;
  }
  if (conn.state == ConnState::kPending) conn.state = ConnState::kEstablished;
  if (observer_ && pkt.is_udp() && !pkt.payload.empty())
    observer_->on_data(conn, dir, pkt.ts, pkt.payload, pkt.payload_wire_len);
}

void FlowTable::close_entry(Entry& e) {
  if (e.closed) return;
  e.closed = true;
  mark_dirty(e);
  ++stats_.conns_closed;
  Connection& conn = conn_of(e);
  if (conn.state == ConnState::kPending) {
    if (conn.key.proto == ipproto::kTcp && e.orig.saw_syn && conn.resp_pkts == 0) {
      conn.state = ConnState::kUnanswered;
    } else if (conn.resp_pkts > 0 || conn.multicast) {
      conn.state = ConnState::kEstablished;
    } else {
      conn.state = ConnState::kUnanswered;
    }
  }
  if (observer_) observer_->on_close(conn);
}

void FlowTable::drain_all() {
  // Creation-order walk: every erase path (fresh SYN, idle split, tuple
  // reuse) closes before unmapping and close_entry is a no-op on closed
  // entries, so this closes exactly the still-live flows — in a
  // deterministic order, unlike iterating the hash map.  Only flows this
  // call closes count as drained: they are the ones the stream's end cut
  // mid-conversation.
  if (!reclaim_) {
    // Without reclamation, slot order is creation order.
    for (Entry& entry : entries_) {
      if (entry.closed) continue;
      ++stats_.drained;
      close_entry(entry);
    }
  } else {
    // Recycled slots break the index == open order identity; sort the
    // still-open flows by open_seq so the drain (and its on_close event
    // order) stays creation-ordered.
    std::vector<std::uint32_t> open;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (!entries_[i].closed) open.push_back(static_cast<std::uint32_t>(i));
    }
    std::sort(open.begin(), open.end(), [this](std::uint32_t a, std::uint32_t b) {
      return connections_[a].open_seq < connections_[b].open_seq;
    });
    for (std::uint32_t i : open) {
      ++stats_.drained;
      close_entry(entries_[i]);
    }
  }
  active_.clear();
}

std::size_t FlowTable::evict_idle(double now) {
  // Only live entries can own their key: every path that closes a UDP or
  // ICMP flow (split, drain, eviction) unmaps it or hands the key on.
  std::size_t closed_count = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    Entry& e = entries_[i];
    if (e.freed || e.closed) continue;
    const Connection& conn = conn_of(e);
    if (conn.key.proto == ipproto::kTcp || now - conn.last_ts <= kFlowTimeout) continue;
    ++stats_.evicted;
    ++closed_count;
    close_entry(e);
    unmap_if_owner(i);
  }
  return closed_count;
}

std::vector<std::uint32_t> FlowTable::take_dirty() {
  std::vector<std::uint32_t> out = std::move(dirty_);
  dirty_.clear();
  std::sort(out.begin(), out.end(), [this](std::uint32_t a, std::uint32_t b) {
    return connections_[a].open_seq < connections_[b].open_seq;
  });
  for (std::uint32_t i : out) entries_[i].dirty = false;
  return out;
}

std::size_t FlowTable::reclaim_closed() {
  if (!reclaim_) return 0;
  std::size_t reclaimed = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    Entry& e = entries_[i];
    if (e.freed || !e.closed || e.dirty) continue;
    unmap_if_owner(i);
    e.freed = true;
    free_entries_.push_back(static_cast<std::uint32_t>(i));
    ++reclaimed;
  }
  return reclaimed;
}

void FlowTable::unmap_if_owner(std::size_t index) {
  Entry& e = entries_[index];
  const std::size_t slot = active_.find_slot(e.key_lo, e.key_hi);
  if (slot != FlowMap::kNoSlot && active_.value_at(slot) == index) active_.erase_slot(slot);
}

}  // namespace entrace
