#include "core/incremental.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "net/decoder.h"
#include "obs/stage_timer.h"

namespace entrace {

void record_trace_metrics(const TraceTotals& totals, obs::Registry& reg) {
  using obs::MetricClass;

  const SourceStats& src = totals.source;
  reg.counter("source.packets", MetricClass::kSemantic, "packets pulled from trace sources")
      ->add(src.packets);
  reg.counter("source.captured_bytes", MetricClass::kSemantic, "captured bytes after snaplen")
      ->add(src.captured_bytes);
  reg.counter("source.wire_bytes", MetricClass::kSemantic, "original on-the-wire bytes")
      ->add(src.wire_bytes);

  const CaptureQuality& q = totals.quality;
  reg.counter("decode.packets_seen", MetricClass::kSemantic, "packets entering decode")
      ->add(q.packets_seen);
  reg.counter("decode.packets_ok", MetricClass::kSemantic, "packets surviving decode+checksums")
      ->add(q.packets_ok);
  reg.counter("decode.packets_dropped", MetricClass::kSemantic, "packets excluded from analysis")
      ->add(q.packets_dropped);
  for (const auto& [kind, n] : q.anomalies.as_map()) {
    reg.counter("decode.anomaly." + kind, MetricClass::kSemantic, "anomaly occurrences")->add(n);
  }

  const FlowStats& f = totals.flow;
  reg.counter("flow.packets", MetricClass::kSemantic, "packets processed by the flow table")
      ->add(totals.flow_packets);
  reg.counter("flow.conns_opened", MetricClass::kSemantic, "connections opened")
      ->add(f.conns_opened);
  reg.counter("flow.conns_closed", MetricClass::kSemantic, "connections closed")
      ->add(f.conns_closed);
  reg.counter("flow.tcp_retransmissions", MetricClass::kSemantic, "TCP retransmitted segments")
      ->add(f.tcp_retransmissions);
  reg.counter("flow.keepalive_retx", MetricClass::kSemantic, "1-byte keepalive retransmissions")
      ->add(f.keepalive_retx);
  reg.counter("flow.tcp_tuple_reuse", MetricClass::kSemantic,
              "live 5-tuples reused by a new-ISN SYN")
      ->add(f.tcp_tuple_reuse);
  reg.counter("flow.idle_splits", MetricClass::kSemantic, "UDP/ICMP flows split on idle timeout")
      ->add(f.idle_splits);
  reg.counter("flow.drained", MetricClass::kSemantic,
              "still-open flows classified by the end-of-stream drain")
      ->add(f.drained);
  reg.counter("flow.evicted", MetricClass::kSemantic, "live flows closed by evict_idle sweeps")
      ->add(f.evicted);

  static constexpr const char* kEventNames[10] = {
      "app.events.http", "app.events.smtp", "app.events.dns",    "app.events.nbns",
      "app.events.nbss", "app.events.cifs", "app.events.dcerpc", "app.events.epm",
      "app.events.nfs",  "app.events.ncp"};
  static constexpr const char* kEventHelp[10] = {
      "HTTP transactions", "SMTP commands", "DNS transactions", "NBNS transactions",
      "NBSS events",       "CIFS commands", "DCE/RPC calls",    "EPM mappings",
      "NFS calls",         "NCP calls"};
  for (std::size_t i = 0; i < 10; ++i) {
    reg.counter(kEventNames[i], MetricClass::kSemantic, kEventHelp[i])->add(totals.events[i]);
  }
  reg.counter("app.events.total", MetricClass::kSemantic, "application events, all protocols")
      ->add(totals.events_total);
}

namespace {

std::array<std::uint64_t, 10> event_sizes(const AppEvents& ev) {
  return {ev.http.size(), ev.smtp,          ev.dns.size(), ev.nbns.size(), ev.nbss.size(),
          ev.cifs.size(), ev.dcerpc.size(), ev.epm,        ev.nfs.size(),  ev.ncp.size()};
}

}  // namespace

// ---- TraceStream ------------------------------------------------------------

TraceStream::TraceStream(const TraceMeta& meta, const AnalyzerConfig& config)
    : config_(config),
      meta_(meta),
      collect_(config.collect_metrics),
      dispatcher_(registry_, win_.events, config.payload_analysis.value_or(meta.snaplen >= 200),
                  &win_.quality.anomalies),
      flows_(std::make_unique<FlowTable>(&dispatcher_)) {
  start_window();
}

TraceStream::~TraceStream() = default;

// Move-assigning a fresh shard keeps every member of win_ at its address, so
// the dispatcher's references into it stay valid.
void TraceStream::start_window() {
  win_ = TraceShard();
  win_.load.trace_name = meta_.name;
  pkt_bytes_ = collect_ ? win_.metrics.histogram("source.packet_bytes", obs::MetricClass::kSemantic,
                                                 {64, 128, 256, 512, 1024, 1514, 4096, 16384},
                                                 "wire length of analyzed packets")
                        : nullptr;
}

void TraceStream::tally_one(const DecodedPacket& d) {
  // Headline tallies count analyzed packets only (see the accounting
  // rule in analyzer.h): total_packets == packets_ok == l3.total.
  ++win_.quality.packets_ok;
  ++win_.total_packets;
  win_.total_wire_bytes += d.wire_len;
  if (pkt_bytes_ != nullptr) pkt_bytes_->observe(static_cast<double>(d.wire_len));
  win_.l3.add(d.l3);
  win_.load.add_packet(d.ts, d.wire_len);
  if (d.l3 != L3Kind::kIpv4) return;
  if (!pair_cache_.test_and_set(d.src.value(), d.dst.value())) {
    win_.detector.observe(d.src, d.dst);
  }
  for (const Ipv4Address addr : {d.src, d.dst}) {
    if (addr.is_multicast() || addr.is_broadcast()) continue;
    if (host_cache_.test_and_set(addr.value())) continue;
    hosts_.insert(addr.value());
  }
}

void TraceStream::take_hosts(TraceShard& shard) {
  // Sorted once, a window's hosts split into the three runs in order.
  std::vector<std::uint32_t> hosts;
  hosts.reserve(hosts_.size());
  hosts_.for_each([&](std::uint32_t h) { hosts.push_back(h); });
  hosts_.clear();
  std::sort(hosts.begin(), hosts.end());
  for (const std::uint32_t h : hosts) {
    const Ipv4Address addr(h);
    if (config_.site.is_internal(addr)) {
      shard.lbnl_hosts.push_back(h);
      if (config_.site.subnet_of(addr) == meta_.subnet_id) shard.monitored_hosts.push_back(h);
    } else {
      shard.remote_hosts.push_back(h);
    }
  }
}

void TraceStream::flow_one(const DecodedPacket& d, std::uint64_t key_lo, std::uint64_t key_hi,
                           bool keyed) {
  if (d.l3 != L3Kind::kIpv4) return;
  const PacketVerdict verdict = keyed ? flows_->process(d, key_lo, key_hi) : flows_->process(d);
  if (verdict.conn != nullptr && d.is_tcp()) {
    const bool wan = !config_.site.is_internal(verdict.conn->key.src) ||
                     !config_.site.is_internal(verdict.conn->key.dst);
    if (verdict.keepalive_retx) {
      // §6 excludes 1-byte keepalive retransmissions from the loss proxy.
      ++win_.load.keepalive_excluded;
    } else {
      auto& pkts = wan ? win_.load.wan_tcp_pkts : win_.load.ent_tcp_pkts;
      auto& retx = wan ? win_.load.wan_retx : win_.load.ent_retx;
      ++pkts;
      if (verdict.tcp_retransmission) ++retx;
    }
  }
}

void TraceStream::feed(const PacketView* views, std::size_t n) {
  if (n == 0) return;
  if (decoded_.size() < n) {
    decoded_.resize(n);
    key_lo_.resize(n);
    key_hi_.resize(n);
    ok_.resize(n);
    keyed_.resize(n);
  }
  using clock = std::chrono::steady_clock;
  const bool timed = collect_;
  auto last = timed ? clock::now() : clock::time_point{};
  auto lap = [&](double& acc) {
    if (!timed) return;
    const auto now = clock::now();
    acc += std::chrono::duration<double>(now - last).count();
    last = now;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const PacketView& v = views[i];
    ++totals_.source.packets;
    totals_.source.captured_bytes += v.data.size();
    totals_.source.wire_bytes += v.wire_len;
    ++win_.quality.packets_seen;
    const bool good =
        decode_packet_into(v.data, v.ts, v.wire_len, decoded_[i], &win_.quality.anomalies) &&
        !decoded_[i].checksum_bad();
    ok_[i] = good ? 1 : 0;
    keyed_[i] = 0;
    if (!good) {
      // Either nothing to attribute (not even an Ethernet header) or the
      // header bytes are demonstrably corrupt: addresses/ports can't be
      // trusted, so the packet is excluded from all traffic accounting
      // (Bro's checksum handling on the paper's traces behaves the same).
      ++win_.quality.packets_dropped;
      continue;
    }
    const DecodedPacket& d = decoded_[i];
    if (d.l3 == L3Kind::kIpv4 && d.l4_ok && (d.is_tcp() || d.is_udp() || d.is_icmp())) {
      const FiveTuple key = flow_tuple_of(d).canonical();
      key_lo_[i] = key.packed_lo();
      key_hi_[i] = key.packed_hi();
      keyed_[i] = 1;
    }
  }
  lap(decode_s_);
  for (std::size_t i = 0; i < n; ++i) {
    if (ok_[i]) tally_one(decoded_[i]);
  }
  lap(tally_s_);
  for (std::size_t i = 0; i < n; ++i) {
    if (ok_[i]) flow_one(decoded_[i], key_lo_[i], key_hi_[i], keyed_[i] != 0);
  }
  lap(flow_s_);
}

void TraceStream::accumulate_window_totals() {
  totals_.quality.merge(win_.quality);
  const std::array<std::uint64_t, 10> sizes = event_sizes(win_.events);
  for (std::size_t i = 0; i < sizes.size(); ++i) totals_.events[i] += sizes[i];
  totals_.events_total += win_.events.total();
}

TraceShard TraceStream::rotate() {
  accumulate_window_totals();
  TraceShard shard = std::move(win_);
  take_hosts(shard);
  start_window();

  // Connections touched this window, copied in open_seq order.  Copies get
  // parser_slot cleared: it is transient dispatcher state that must not
  // leak into snapshots.
  const std::vector<std::uint32_t> dirty = flows_->take_dirty();
  const std::vector<Connection>& live = flows_->connections();
  shard.connections.reserve(dirty.size());
  for (std::uint32_t i : dirty) {
    shard.connections.push_back(live[i]);
    shard.connections.back().parser_slot = Connection::kNoParser;
  }
  return shard;
}

void TraceStream::drain(const AnomalyCounts* source_anomalies) {
  flows_->drain_all();
  totals_.flow = flows_->stats();
  totals_.flow_packets = flows_->packets_processed();
  // TCP 5-tuple reuse is a capture-accounting fact (informational flag on
  // ok packets), recorded whether or not telemetry is on, once, into the
  // final window.
  if (totals_.flow.tcp_tuple_reuse != 0) {
    win_.quality.anomalies.add(AnomalyKind::kTcpTupleReuse, totals_.flow.tcp_tuple_reuse);
  }
  if (source_anomalies != nullptr) win_.quality.anomalies.merge(*source_anomalies);
}

void TraceStream::record_totals(obs::Registry& reg, double source_seconds,
                                std::uint64_t source_batches) const {
  if (!collect_) return;
  record_trace_metrics(totals_, reg);
  const CaptureQuality& q = totals_.quality;
  if (source_batches != 0) obs::record_stage(&reg, "batch.source", source_seconds, source_batches);
  obs::record_stage(&reg, "batch.decode", decode_s_, q.packets_seen);
  obs::record_stage(&reg, "batch.tally", tally_s_, q.packets_ok);
  obs::record_stage(&reg, "batch.flow", flow_s_, q.packets_ok);
}

TraceShard TraceStream::finish_window(const AnomalyCounts* source_anomalies) {
  drain(source_anomalies);
  TraceShard shard = rotate();
  record_totals(shard.metrics, 0.0, 0);
  return shard;
}

void TraceStream::finish_batch(PacketSource& source, TraceShard& shard, double source_seconds,
                               std::uint64_t source_batches) {
  // Source-layer anomalies (pcap record damage, salvaged truncations) are
  // complete once the stream is drained; fold them into the shard so the
  // dataset's anomaly accounting covers the file layer too.
  drain(&source.anomalies());
  accumulate_window_totals();
  // The one window is the whole trace, with the live connections.  The
  // dispatcher, the registry and the flow engine stay behind and die with
  // the stream, on the thread that ran it; the events outlive them.
  shard = std::move(win_);
  take_hosts(shard);
  shard.connections = flows_->take_connections();
  record_totals(shard.metrics, source_seconds, source_batches);
}

// ---- IncrementalAnalyzer ----------------------------------------------------

IncrementalAnalyzer::IncrementalAnalyzer(std::vector<TraceMeta> metas,
                                         const AnalyzerConfig& config,
                                         const IncrementalOptions& options)
    : options_(options) {
  streams_.reserve(metas.size());
  for (const TraceMeta& m : metas) {
    auto stream = std::make_unique<TraceStream>(m, config);
    if (options_.reclaim) stream->enable_reclaim();
    streams_.push_back(std::move(stream));
  }
  buffers_.resize(streams_.size());
}

IncrementalAnalyzer::~IncrementalAnalyzer() = default;

void IncrementalAnalyzer::feed(const PacketView* views, std::size_t n) {
  if (n == 0 || finished_) return;
  for (auto& b : buffers_) b.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const PacketView& v = views[i];
    const std::size_t s = v.source < streams_.size() ? v.source : 0;
    buffers_[s].push_back(v);
    if (v.ts > max_ts_) max_ts_ = v.ts;
  }
  if (!saw_packets_) {
    saw_packets_ = true;
    const double w = options_.window_seconds;
    window_start_ = std::floor(views[0].ts / w) * w;
    window_end_ = window_start_ + w;
  }
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    if (!buffers_[i].empty()) streams_[i]->feed(buffers_[i].data(), buffers_[i].size());
  }
}

WindowShard IncrementalAnalyzer::rotate() {
  WindowShard win;
  win.index = next_window_index_++;
  win.start_ts = window_start_;
  win.end_ts = window_end_;
  win.shards.resize(streams_.size());
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    if (options_.evict) streams_[i]->evict_idle(window_end_);
    win.shards[i] = streams_[i]->rotate();
    if (options_.reclaim) streams_[i]->reclaim();
  }
  window_start_ = window_end_;
  window_end_ += options_.window_seconds;
  return win;
}

WindowShard IncrementalAnalyzer::finish(const MergedPacketStream* merged) {
  finished_ = true;
  WindowShard win;
  win.index = next_window_index_++;
  win.start_ts = window_start_;
  win.end_ts = max_ts_;
  win.shards.resize(streams_.size());
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    const AnomalyCounts* anoms = nullptr;
    if (merged != nullptr && i < merged->source_count()) {
      anoms = &merged->source(i).anomalies();
    }
    win.shards[i] = streams_[i]->finish_window(anoms);
  }
  return win;
}

std::size_t IncrementalAnalyzer::live_entries() const {
  std::size_t total = 0;
  for (const auto& s : streams_) total += s->live_entries();
  return total;
}

std::uint64_t IncrementalAnalyzer::drained_total() const {
  std::uint64_t total = 0;
  for (const auto& s : streams_) total += s->flow_stats().drained;
  return total;
}

std::uint64_t IncrementalAnalyzer::evicted_total() const {
  std::uint64_t total = 0;
  for (const auto& s : streams_) total += s->flow_stats().evicted;
  return total;
}

}  // namespace entrace
