#include "snapshot/codec.h"

#include <algorithm>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace entrace::snapshot {

namespace {

// TraceShard's own members, beside the ShardTotals members that
// ShardTotals::merge_from checks (core/analyzer.cc).  A new member changes
// the size.  The records inside carry static_asserts of their own, next to
// their rows in tests/field_audit_test.cc.
#if defined(__x86_64__) && defined(__GLIBCXX__)
static_assert(sizeof(TraceShard) == sizeof(ShardTotals) + sizeof(ScannerDetector) +
                                        sizeof(std::vector<Connection>) + sizeof(TraceLoadRaw),
              "TraceShard's members changed: update its declaration (core/analyzer.h), both "
              "folds (fold_shards in core/analyzer.cc, WindowFold::add in snapshot/window.cc), "
              "the codec (snapshot/codec.cc) and tests/field_audit_test.cc");
#endif

// The last enumerator of every one-byte enum the format carries, and the
// name decode errors give it.  The reader rejects any byte past `last`, so
// a decoded enum always indexes the report's per-enumerator tables in range.
struct EnumLimit {
  template <typename E>
  constexpr EnumLimit(E e, const char* n) : last(static_cast<std::uint8_t>(e)), name(n) {
    static_assert(sizeof(E) == 1, "enums travel as one byte");
  }
  std::uint8_t last;
  const char* name;
};
constexpr EnumLimit enum_limit(ConnState) { return {ConnState::kClosed, "connection state"}; }
constexpr EnumLimit enum_limit(NbnsOpcode) { return {NbnsOpcode::kStatus, "NBNS opcode"}; }
constexpr EnumLimit enum_limit(NbnsNameType) { return {NbnsNameType::kOther, "NBNS name type"}; }
constexpr EnumLimit enum_limit(NbssEventType) {
  return {NbssEventType::kNegativeResponse, "NBSS event type"};
}
constexpr EnumLimit enum_limit(CifsCategory) { return {CifsCategory::kOther, "CIFS category"}; }
constexpr EnumLimit enum_limit(Direction) { return {Direction::kRespToOrig, "direction"}; }
constexpr EnumLimit enum_limit(DceIface) { return {DceIface::kOther, "DCE/RPC interface"}; }
constexpr EnumLimit enum_limit(NcpFunction) { return {NcpFunction::kOther, "NCP function"}; }
constexpr EnumLimit enum_limit(obs::MetricKind) {
  return {obs::MetricKind::kHistogram, "metric kind"};
}

template <typename T>
inline constexpr bool kNoWireForm = false;

// Runs a payload template forwards, appending each field's bytes.  The
// wire form follows the C++ type: bool and enums as u8, integers at their
// width, doubles as their bit pattern, strings length-prefixed and
// addresses as u32.
class FieldWriter {
 public:
  explicit FieldWriter(ByteWriter& w) : w_(w) {}

  ByteWriter& bytes() { return w_; }

  template <typename... T>
  void fields(const T&... v) {
    (field(v), ...);
  }

  // A constant the reader checks against its own build's value.
  template <typename T>
  void fixed(const T& v, const char*) {
    field(v);
  }

  // A u64 element count, then each element.
  template <typename C, typename Fn>
  void seq(const C& c, Fn&& each) {
    w_.u64(c.size());
    for (const auto& e : c) each(e);
  }

  // A seq the writer emits strictly ascending.
  template <typename C, typename Fn>
  void ascending_seq(const C& c, Fn&& each, const char*) {
    seq(c, each);
  }

 private:
  template <typename T>
  void field(const T& v) {
    if constexpr (std::is_same_v<T, bool>) w_.u8(v ? 1 : 0);
    else if constexpr (std::is_enum_v<T>) w_.u8(static_cast<std::uint8_t>(v));
    else if constexpr (std::is_same_v<T, std::uint8_t>) w_.u8(v);
    else if constexpr (std::is_same_v<T, std::uint16_t>) w_.u16(v);
    else if constexpr (std::is_same_v<T, std::uint32_t>) w_.u32(v);
    else if constexpr (std::is_same_v<T, std::uint64_t>) w_.u64(v);
    else if constexpr (std::is_same_v<T, std::int32_t>) w_.i32(v);
    else if constexpr (std::is_same_v<T, double>) w_.f64(v);
    else if constexpr (std::is_same_v<T, std::string>) w_.str(v);
    else if constexpr (std::is_same_v<T, Ipv4Address>) w_.u32(v.value());
    else static_assert(kNoWireForm<T>, "no wire form for this field type");
  }

  ByteWriter& w_;
};

// Runs the same payload templates backwards, validating each field.
class FieldReader {
 public:
  explicit FieldReader(ByteReader& r) : r_(r) {}

  ByteReader& bytes() { return r_; }

  template <typename... T>
  void fields(T&... v) {
    (field(v), ...);
  }

  template <typename T>
  void fixed(const T& want, const char* what) {
    T got{};
    field(got);
    if (got != want) {
      throw SnapshotError(r_.offset() - sizeof(T),
                          std::string(what) + " is " + std::to_string(got) + ", this build's is " +
                              std::to_string(want) + " (format version bump required)");
    }
  }

  // Elements are built fresh, read, then appended.
  template <typename C, typename Fn>
  void seq(C&& c, Fn&& each) {
    const std::uint64_t n = r_.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
      typename std::remove_cvref_t<C>::value_type e{};
      each(e);
      c.push_back(std::move(e));
    }
  }

  // Rejects an element not above the one before it: the writer never
  // emits one, and the reader does not repair it.
  template <typename C, typename Fn>
  void ascending_seq(C& c, Fn&& each, const char* what) {
    seq(c, [&](auto& e) {
      const std::size_t at = r_.offset();
      each(e);
      if (!c.empty() && !(c.back() < e)) {
        throw SnapshotError(at, std::string(what) + " " + std::to_string(e) +
                                    " not above the previous " + std::to_string(c.back()));
      }
    });
  }

 private:
  template <typename T>
  void field(T& v) {
    if constexpr (std::is_same_v<T, bool>) v = r_.u8() != 0;
    else if constexpr (std::is_enum_v<T>) v = checked_enum<T>();
    else if constexpr (std::is_same_v<T, std::uint8_t>) v = r_.u8();
    else if constexpr (std::is_same_v<T, std::uint16_t>) v = r_.u16();
    else if constexpr (std::is_same_v<T, std::uint32_t>) v = r_.u32();
    else if constexpr (std::is_same_v<T, std::uint64_t>) v = r_.u64();
    else if constexpr (std::is_same_v<T, std::int32_t>) v = r_.i32();
    else if constexpr (std::is_same_v<T, double>) v = r_.f64();
    else if constexpr (std::is_same_v<T, std::string>) v = r_.str();
    else if constexpr (std::is_same_v<T, Ipv4Address>) v = Ipv4Address(r_.u32());
    else static_assert(kNoWireForm<T>, "no wire form for this field type");
  }

  template <typename E>
  E checked_enum() {
    constexpr EnumLimit lim = enum_limit(E{});
    const std::uint8_t raw = r_.u8();
    if (raw > lim.last) {
      throw SnapshotError(r_.offset() - 1,
                          std::string(lim.name) + " " + std::to_string(raw) + " out of range");
    }
    return static_cast<E>(raw);
  }

  ByteReader& r_;
};

// ---- the three read/write pairs ----------------------------------------------

// Scanner observations go through the detector's export/import form.
void scanner_state(FieldWriter& io, const TraceShard& s) {
  ByteWriter& w = io.bytes();
  const auto observations = s.detector.export_observations();
  w.u64(observations.size());
  for (const auto& obs : observations) {
    w.u32(obs.source);
    w.u32(static_cast<std::uint32_t>(obs.order.size()));
    for (const std::uint32_t dst : obs.order) w.u32(dst);
    w.u32(static_cast<std::uint32_t>(obs.extra_seen.size()));
    for (const std::uint32_t dst : obs.extra_seen) w.u32(dst);
  }
}

// The reader holds the file to the writer's canonical form: sources
// strictly ascending, extra_seen strictly ascending, and no destination
// twice within one source.
void scanner_state(FieldReader& io, TraceShard& s) {
  ByteReader& r = io.bytes();
  const std::uint64_t n = r.u64();
  ScannerDetector::SourceObservations obs;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint32_t source = r.u32();
    if (i > 0 && source <= obs.source) {
      throw SnapshotError(r.offset() - 4, "scanner source " + std::to_string(source) +
                                              " not above the previous " +
                                              std::to_string(obs.source));
    }
    obs.source = source;
    obs.order.clear();
    obs.extra_seen.clear();
    const std::uint32_t order_len = r.u32();
    const std::size_t order_at = r.offset();
    for (std::uint32_t j = 0; j < order_len; ++j) obs.order.push_back(r.u32());
    const std::uint32_t extra_len = r.u32();
    const std::size_t extra_at = r.offset();
    for (std::uint32_t j = 0; j < extra_len; ++j) {
      const std::uint32_t dst = r.u32();
      if (j > 0 && dst <= obs.extra_seen.back()) {
        throw SnapshotError(r.offset() - 4, "scanner extra_seen " + std::to_string(dst) +
                                                " not above the previous " +
                                                std::to_string(obs.extra_seen.back()));
      }
      obs.extra_seen.push_back(dst);
    }
    const std::ptrdiff_t repeat = s.detector.import_source(obs);
    if (repeat >= 0) {
      const auto k = static_cast<std::size_t>(repeat);
      const std::size_t at =
          k < order_len ? order_at + 4 * k : extra_at + 4 * (k - order_len);
      throw SnapshotError(at, "scanner source " + std::to_string(source) +
                                  " names a destination twice");
    }
  }
}

// Semantic-class telemetry only: timing metrics describe the shard
// *process*, not the dataset, and must not survive the process gap (or
// merged runs would stop being bit-identical to direct runs).
void trace_metrics(FieldWriter& io, const TraceShard& s) {
  ByteWriter& w = io.bytes();
  std::vector<const obs::Metric*> semantic;
  for (const obs::Metric* m : s.metrics.metrics()) {
    if (m->cls == obs::MetricClass::kSemantic) semantic.push_back(m);
  }
  w.u32(static_cast<std::uint32_t>(semantic.size()));
  for (const obs::Metric* m : semantic) {
    io.fields(m->name, m->help, m->kind);
    switch (m->kind) {
      case obs::MetricKind::kCounter:
        w.u64(m->counter.value());
        break;
      case obs::MetricKind::kGauge:
        w.f64(m->gauge.value());
        break;
      case obs::MetricKind::kHistogram: {
        const obs::Histogram& h = *m->histogram;
        w.u32(static_cast<std::uint32_t>(h.bounds().size()));
        for (const double b : h.bounds()) w.f64(b);
        for (const std::uint64_t c : h.buckets()) w.u64(c);
        w.u64(h.count());
        w.f64(h.sum());
        break;
      }
    }
  }
}

void trace_metrics(FieldReader& io, TraceShard& s) {
  ByteReader& r = io.bytes();
  const std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::string name = r.str();
    if (name.empty()) throw SnapshotError(r.offset(), "metric with empty name");
    if (s.metrics.find(name) != nullptr) {
      throw SnapshotError(r.offset(), "duplicate metric '" + name + "'");
    }
    std::string help;
    obs::MetricKind kind{};
    io.fields(help, kind);
    // Snapshots carry semantic metrics only (the writer filters), so
    // everything registers as kSemantic.
    switch (kind) {
      case obs::MetricKind::kCounter:
        s.metrics.counter(name, obs::MetricClass::kSemantic, help)->add(r.u64());
        break;
      case obs::MetricKind::kGauge:
        s.metrics.gauge(name, obs::MetricClass::kSemantic, help)->set(r.f64());
        break;
      case obs::MetricKind::kHistogram: {
        const std::uint32_t n_bounds = r.u32();
        // A histogram payload needs 8 bytes per bound plus the
        // buckets/count/sum that follow; an absurd declared size is
        // rejected before any allocation is attempted.
        if (static_cast<std::uint64_t>(n_bounds) * 16 > r.remaining()) {
          throw SnapshotError(r.offset() - 4, "histogram declares " + std::to_string(n_bounds) +
                                                  " bounds but the payload is smaller");
        }
        std::vector<double> bounds;
        bounds.reserve(n_bounds);
        for (std::uint32_t b = 0; b < n_bounds; ++b) bounds.push_back(r.f64());
        if (!std::is_sorted(bounds.begin(), bounds.end())) {
          throw SnapshotError(r.offset(), "histogram bounds not ascending");
        }
        std::vector<std::uint64_t> buckets;
        buckets.reserve(n_bounds + 1);
        std::uint64_t bucket_total = 0;
        for (std::uint32_t b = 0; b < n_bounds + 1; ++b) {
          buckets.push_back(r.u64());
          bucket_total += buckets.back();
        }
        const std::uint64_t total = r.u64();
        const double sum = r.f64();
        if (total != bucket_total) {
          throw SnapshotError(r.offset(), "histogram count " + std::to_string(total) +
                                              " != bucket total " + std::to_string(bucket_total));
        }
        obs::Histogram* h = s.metrics.histogram(name, obs::MetricClass::kSemantic, bounds, help);
        obs::Histogram restored(std::move(bounds));
        restored.restore(std::move(buckets), total, sum);
        h->merge(restored);
        break;
      }
    }
  }
}

// A 1 s interval series: (second, value) pairs in ascending order.
void series(FieldWriter& io, const IntervalSeries& s) {
  ByteWriter& w = io.bytes();
  w.u64(s.bins().size());
  for (const auto& [bin, value] : s.bins()) {
    w.i64(bin);
    w.f64(value);
  }
}

void series(FieldReader& io, IntervalSeries& s) {
  ByteReader& r = io.bytes();
  const std::uint64_t n = r.u64();
  std::map<std::int64_t, double> bins;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::int64_t bin = r.i64();
    const double value = r.f64();
    if (!bins.emplace(bin, value).second) {
      throw SnapshotError(r.offset(), "duplicate interval-series bin " + std::to_string(bin));
    }
  }
  s.restore_bins(std::move(bins));
}

// ---- the symmetric payloads ----------------------------------------------------
//
// S is `const TraceShard` when writing and `TraceShard` when reading.

template <typename IO, typename S>
void trace_header(IO& io, S& s) {
  io.fields(s.total_packets, s.total_wire_bytes, s.l3.total, s.l3.ip, s.l3.arp, s.l3.ipx,
            s.l3.other);
}

template <typename IO, typename S>
void host_sets(IO& io, S& s) {
  for (auto* hosts : {&s.monitored_hosts, &s.lbnl_hosts, &s.remote_hosts}) {
    io.ascending_seq(*hosts, [&](auto& h) { io.fields(h); }, "host");
  }
}

template <typename IO, typename S>
void connections(IO& io, S& s) {
  io.seq(s.connections, [&](auto& c) {
    io.fields(c.key.src, c.key.dst, c.key.src_port, c.key.dst_port, c.key.proto, c.start_ts,
              c.last_ts, c.orig_pkts, c.resp_pkts, c.orig_bytes, c.resp_bytes, c.state,
              c.keepalive_retx, c.app_id, c.multicast, c.open_seq);
  });
}

// An event that carries endpoints leads with them; SMTP commands and EPM
// mappings are counts.
template <typename IO, typename S>
void app_events(IO& io, S& s) {
  auto& ev = s.events;
  io.seq(ev.http, [&](auto& e) {
    io.fields(e.src, e.dst, e.user_agent, e.conditional, e.has_response, e.status,
              e.content_type, e.resp_body_len);
  });
  io.fields(ev.smtp);
  io.seq(ev.dns, [&](auto& e) {
    io.fields(e.src, e.dst, e.query_ts, e.resp_ts, e.qtype, e.has_response, e.rcode);
  });
  io.seq(ev.nbns, [&](auto& e) {
    io.fields(e.src, e.opcode, e.name_type, e.name, e.has_response, e.rcode);
  });
  io.seq(ev.nbss, [&](auto& e) { io.fields(e.src, e.dst, e.type); });
  io.seq(ev.cifs, [&](auto& e) { io.fields(e.category, e.dir, e.msg_bytes); });
  io.seq(ev.dcerpc, [&](auto& e) {
    io.fields(e.iface, e.opnum, e.over_pipe, e.is_request, e.bytes);
  });
  io.fields(ev.epm);
  io.seq(ev.nfs, [&](auto& e) {
    io.fields(e.src, e.dst, e.proc, e.has_reply, e.status, e.req_bytes, e.resp_bytes);
  });
  io.seq(ev.ncp, [&](auto& e) {
    io.fields(e.src, e.dst, e.function, e.has_reply, e.completion_code, e.req_bytes,
              e.resp_bytes);
  });
}

template <typename IO, typename S>
void trace_load(IO& io, S& s) {
  auto& load = s.load;
  io.fields(load.trace_name);
  series(io, load.bits_1s);
  io.fields(load.ent_tcp_pkts, load.ent_retx, load.wan_tcp_pkts, load.wan_retx,
            load.keepalive_excluded);
}

// The anomaly taxonomy's size travels with the counters, so a build with a
// different taxonomy rejects the shard instead of misattributing them.
template <typename IO, typename S>
void capture_quality(IO& io, S& s) {
  auto& q = s.quality;
  io.fields(q.packets_seen, q.packets_ok, q.packets_dropped);
  io.fixed(static_cast<std::uint32_t>(kAnomalyKindCount), "anomaly taxonomy kind count");
  for (std::size_t k = 0; k < kAnomalyKindCount; ++k) {
    io.fields(q.anomalies[static_cast<AnomalyKind>(k)]);
  }
}

// A shard's payloads, in wire order.
template <typename IO, typename S>
void shard_payloads(IO& io, S& s) {
  trace_header(io, s);
  host_sets(io, s);
  scanner_state(io, s);
  connections(io, s);
  app_events(io, s);
  trace_load(io, s);
  capture_quality(io, s);
  trace_metrics(io, s);
}

template <typename IO, typename M>
void meta_fields(IO& io, M& meta) {
  io.fields(meta.dataset, meta.scale, meta.trace_count);
}

}  // namespace

void encode_meta(const SnapshotMeta& meta, ByteWriter& w) {
  FieldWriter io(w);
  meta_fields(io, meta);
}

void decode_meta(ByteReader& r, SnapshotMeta& meta) {
  FieldReader io(r);
  meta_fields(io, meta);
}

void encode_shard(const TraceShard& shard, ByteWriter& w) {
  FieldWriter io(w);
  shard_payloads(io, shard);
}

void decode_shard(ByteReader& r, TraceShard& shard) {
  FieldReader io(r);
  shard_payloads(io, shard);
}

}  // namespace entrace::snapshot
