// Windowed incremental analysis — the continuous-operation core.
//
// TraceStream is the resumable per-trace engine behind both the batch
// pipeline (core/analyzer.h) and the daemon: it consumes packet batches and
// accumulates the current window directly in a TraceShard, which it can
// hand out at any window boundary.  IncrementalAnalyzer demuxes a merged
// time-ordered stream (MergedPacketStream's view.source attribution) into
// per-trace streams and rotates completed windows.
//
// The contract that makes the daemon trustworthy: a windowed run's rotated
// window shards, merged back per trace (snapshot/window.h) and folded,
// produce a DatasetAnalysis byte-identical to the one-shot batch run over
// the same packets — at any window length.  Each window shard holds
// window-fresh deltas:
//
//   - the ShardTotals members fold with ShardTotals::merge_from: tallies
//     and capture quality sum exactly, host sets union, and events append
//     in window order;
//   - scanner first-contact observations merge idempotently in window
//     order, reproducing the serial observation order, and the interval
//     series sum exactly (every summed double is integer-valued);
//   - connections are carried as copies of exactly the connections touched
//     this window (FlowTable::take_dirty), ordered and keyed by
//     Connection::open_seq so cross-window upsert (last writer wins)
//     reassembles the exact batch connection order;
//   - application events carry their connection's endpoints by value
//     (proto/events.h), so every window shard is self-contained by
//     construction: rotation copies the dirty connections and moves the
//     events, with nothing to translate between them.
//
// Trace-total metrics (source.*, decode.*, flow.*, app.events.*) are
// recorded once, into the final window, from cumulative counters the
// stream maintains — folding all windows therefore yields the batch
// registry.
//
// analyze_trace() in core/analyzer.cc is a thin wrapper: one TraceStream
// fed batches to exhaustion, whose single window finish_batch moves into
// the caller's shard, so batch and windowed runs share one engine and one
// packet path, feed(), and cannot drift.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/analyzer.h"
#include "pcap/packet_source.h"
#include "util/flat_index.h"

namespace entrace {

namespace detail {

// Direct-mapped filter in front of TraceStream's window host set.  Which
// host run an address lands in is a pure function of the address (site
// config and subnet id are fixed per trace) and the set dedups anyway, so
// suppressing repeats of recently seen addresses cannot change a folded
// result.  The cache persists across window rotations: a suppressed repeat
// lands in some earlier window's runs, and the runs union at fold.  That
// makes it part of the window images the golden digests pin, and it is
// cheaper per packet than probing the set for every address.  Sentinel
// 0xFFFFFFFF is the broadcast address, which is filtered out before the
// cache is consulted.
class HostSeenCache {
 public:
  HostSeenCache() { slots_.fill(0xFFFFFFFFu); }

  // Returns true if addr was already in the cache (safe to skip).
  bool test_and_set(std::uint32_t addr) {
    std::uint32_t& slot = slots_[(addr * 0x9E3779B1u) >> (32 - kBits)];
    if (slot == addr) return true;
    slot = addr;
    return false;
  }

 private:
  static constexpr unsigned kBits = 10;
  std::array<std::uint32_t, 1u << kBits> slots_;
};

// Same idea for ScannerDetector::observe, which is idempotent per
// (src, dst) pair — a repeat insert into the detector's pair set changes
// nothing — so suppressing recently seen pairs cannot alter the verdict
// (ScannerDetector::merge drops already-seen destinations the same way).
// Packet streams are bursty per connection, so a small direct-mapped cache
// absorbs most of the per-packet pair-set probes, and like HostSeenCache it
// decides which window first records a repeated pair.  A separate valid
// flag (not a sentinel key) keeps even degenerate pairs like
// broadcast->broadcast exact under fuzzed traces.
class PairSeenCache {
 public:
  PairSeenCache() { valid_.fill(0); }

  bool test_and_set(std::uint32_t src, std::uint32_t dst) {
    const std::uint64_t key = (static_cast<std::uint64_t>(src) << 32) | dst;
    const std::size_t i =
        static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> (64 - kBits));
    if (valid_[i] != 0 && keys_[i] == key) return true;
    keys_[i] = key;
    valid_[i] = 1;
    return false;
  }

 private:
  static constexpr unsigned kBits = 12;
  std::array<std::uint64_t, 1u << kBits> keys_;
  std::array<std::uint8_t, 1u << kBits> valid_;
};

}  // namespace detail

// Cumulative per-trace totals for the end-of-stream metrics recording,
// maintained by TraceStream across rotations (the per-window shard
// registries carry only the per-packet histogram; the scalar trace totals
// are recorded once, into the final window).
struct TraceTotals {
  SourceStats source;
  CaptureQuality quality;
  FlowStats flow;
  std::uint64_t flow_packets = 0;
  // http, smtp, dns, nbns, nbss, cifs, dcerpc, epm, nfs, ncp
  std::array<std::uint64_t, 10> events{};
  std::uint64_t events_total = 0;
};

// Record the source.* / decode.* / flow.* / app.events.* semantic counters
// into `reg` — the batch finish and the windowed finish both record the
// totals accumulated over all of a trace's windows (a batch run has one).
void record_trace_metrics(const TraceTotals& totals, obs::Registry& reg);

// One trace's resumable analysis state: everything analyze_trace used to
// hold in locals, owned across feed() calls so the stream can be cut at
// window boundaries.  Single-threaded, like a per-trace analyzer job.
class TraceStream {
 public:
  TraceStream(const TraceMeta& meta, const AnalyzerConfig& config);
  ~TraceStream();
  TraceStream(const TraceStream&) = delete;
  TraceStream& operator=(const TraceStream&) = delete;

  // The packet path: decode -> tally -> flow staged loops over the views
  // (which must stay valid for the duration of the call only).
  void feed(const PacketView* views, std::size_t n);

  // ---- windowed operation ---------------------------------------------------
  // Harvest the current window as a self-contained TraceShard delta and
  // start a fresh window: the window's shard moves out, gains copies of the
  // connections touched this window, and a fresh shard takes its place.
  // See the header comment for why the deltas fold back byte-identically.
  TraceShard rotate();

  // Time-driven flow expiry / slot recycling for endless streams (soak
  // mode; both change post-close attribution, so exact-equality runs leave
  // them off).  reclaim() must run after rotate() so every connection's
  // final state has been snapshotted.
  std::size_t evict_idle(double now) { return flows_->evict_idle(now); }
  void enable_reclaim() { flows_->enable_reclaim(); }
  std::size_t reclaim() { return flows_->reclaim_closed(); }

  // End of stream, windowed: drain still-open flows (flow.drained), fold in
  // end-of-stream anomalies, harvest the final window, and record the
  // cumulative trace totals into it.  `source_anomalies` carries the
  // originating sub-source's file-layer anomalies when the caller can
  // attribute them (null otherwise).
  TraceShard finish_window(const AnomalyCounts* source_anomalies);

  // End of stream, batch: drain, then move the one window and the flow
  // table's connections into `shard` without the windowed copy step.
  // `source_seconds`/`source_batches` are the caller-timed ingest stage.
  void finish_batch(PacketSource& source, TraceShard& shard, double source_seconds,
                    std::uint64_t source_batches);

  std::size_t live_entries() const { return flows_->live_entries(); }
  const FlowStats& flow_stats() const { return flows_->stats(); }

 private:
  void tally_one(const DecodedPacket& d);
  // Move the window's hosts into the shard's three sorted runs.
  void take_hosts(TraceShard& shard);
  void flow_one(const DecodedPacket& d, std::uint64_t key_lo, std::uint64_t key_hi, bool keyed);
  void start_window();
  void accumulate_window_totals();
  // End of stream: classify still-open flows (flow.drained) and fold the
  // end-of-stream anomalies into the final window.
  void drain(const AnomalyCounts* source_anomalies);
  // Record totals_ and the stage timing into the final window's registry.
  void record_totals(obs::Registry& reg, double source_seconds,
                     std::uint64_t source_batches) const;

  AnalyzerConfig config_;
  TraceMeta meta_;
  bool collect_;

  // The trace's AppRegistry (its dynamic DCE/RPC endpoints) persists across
  // windows and never leaves the stream: identification is its only reader.
  // The current window is accumulated in place in win_, whose connections
  // stay empty (the live ones are in flows_).  Declaration order matters:
  // the dispatcher and its parsers hold references to registry_,
  // win_.events and win_.quality.anomalies, which rotation keeps at the
  // same addresses.
  AppRegistry registry_;
  TraceShard win_;
  ProtocolDispatcher dispatcher_;
  std::unique_ptr<FlowTable> flows_;
  detail::HostSeenCache host_cache_;
  FlatIndex<std::uint32_t> hosts_;  // the current window's hosts
  detail::PairSeenCache pair_cache_;
  TraceTotals totals_;     // cumulative (excludes the current window until rotate)
  obs::Histogram* pkt_bytes_ = nullptr;  // in win_.metrics

  // Batch-stage scratch, reused across feed() calls.
  std::vector<DecodedPacket> decoded_;
  std::vector<std::uint64_t> key_lo_, key_hi_;
  std::vector<std::uint8_t> ok_, keyed_;

  // Stage timing (timing class; recorded at finish).
  double decode_s_ = 0.0, tally_s_ = 0.0, flow_s_ = 0.0;
};

// One completed window across every trace of the stream set.
struct WindowShard {
  std::uint64_t index = 0;
  double start_ts = 0.0;
  double end_ts = 0.0;
  std::vector<TraceShard> shards;  // one per trace, trace-index order
};

struct IncrementalOptions {
  double window_seconds = 60.0;
  // Time-driven flow eviction at each rotation (evict_idle at the window
  // boundary) and slot recycling after harvest.  Both bound daemon memory;
  // both are off for exact-equality replays.
  bool evict = false;
  bool reclaim = false;
};

// Multi-trace windowed engine: demuxes merged batches by view.source into
// one TraceStream per trace and harvests WindowShards at rotation, all on
// the calling thread.  The taps of a dataset are monitored one after
// another (the generator starts trace i at i * (duration + gap)), so a
// time-ordered merged batch almost always holds packets of a single trace:
// a per-batch fan-out across the streams would synchronize threads for no
// parallel work.  config.threads is therefore not consulted here.
class IncrementalAnalyzer {
 public:
  IncrementalAnalyzer(std::vector<TraceMeta> metas, const AnalyzerConfig& config,
                      const IncrementalOptions& options);
  ~IncrementalAnalyzer();

  // Feed one merged batch (views die at the caller's next next_batch).
  void feed(const PacketView* views, std::size_t n);

  // Stream time: the latest timestamp fed so far.
  double max_ts() const { return max_ts_; }
  // First boundary not yet rotated past; valid once a packet has been fed.
  double window_end() const { return window_end_; }
  bool saw_packets() const { return saw_packets_; }
  // True when the stream has moved past the current window's end boundary.
  bool window_complete() const { return saw_packets_ && max_ts_ >= window_end_; }

  // Harvest the current window from every trace and advance the boundary.
  WindowShard rotate();

  // Drain every stream and harvest the final (partial) window.  `merged`
  // lets per-trace source anomalies reach the right shard; may be null.
  WindowShard finish(const MergedPacketStream* merged);

  std::size_t trace_count() const { return streams_.size(); }
  std::uint64_t windows_rotated() const { return next_window_index_; }
  // Bounded-memory observability: live flow-table entries across traces.
  std::size_t live_entries() const;
  std::uint64_t drained_total() const;
  std::uint64_t evicted_total() const;

 private:
  IncrementalOptions options_;
  std::vector<std::unique_ptr<TraceStream>> streams_;
  std::vector<std::vector<PacketView>> buffers_;  // per-trace demux, reused
  double max_ts_ = 0.0;
  double window_start_ = 0.0;
  double window_end_ = 0.0;
  bool saw_packets_ = false;
  std::uint64_t next_window_index_ = 0;
  bool finished_ = false;
};

}  // namespace entrace
