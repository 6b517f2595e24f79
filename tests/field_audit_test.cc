// The field audit (CTest label "golden", also run under golden-asan and
// golden-tsan).
//
// A shard, a connection record and an application event carry a member
// only because something reads it: a report line, a semantic metric, a
// digest, a shipped tool or an example.  A member that only the flow
// engine reads stays inside the engine, and one nothing reads is deleted
// (DESIGN.md §9 has the member -> reader table).  This suite keeps that
// rule standing.  D0 and D3 at scale 0.004 are analyzed and encoded once;
// each row then decodes a fresh copy, applies its mutation to every
// element of every shard, folds, and renders report::full_report plus the
// semantic metrics JSON.  The render must differ from the clean one, on
// either dataset: a member whose every value can change without moving a
// byte has no reader.
//
// A mutation is one its reader can see.  A grouping key collapses to one
// value (every NBNS name the same, every NBSS originator the same), or,
// where each group holds one value already (a client's one NBSS or NCP
// server), spreads to one value per element.  A summed value changes by
// one, or doubles where the report prints it rounded (packet totals,
// retransmission rates).  A flag flips, or collapses where flipping every
// element swaps two equal counts (requests and responses), and a user
// agent becomes "scanner", which the automated-client classifier keys on.
// A few members are read outside the report: their rows name the reader
// instead of a mutation.
//
// The static_asserts below pin each audited struct's size (x86-64
// libstdc++, like TraceShard's in snapshot/codec.cc), so a new member does
// not compile until it has a row here and a line in DESIGN.md §9.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "core/report.h"
#include "obs/exposition.h"
#include "snapshot/reader.h"
#include "snapshot/writer.h"
#include "synth/synth_source.h"

namespace entrace {
namespace {

#if defined(__x86_64__) && defined(__GLIBCXX__)
#define ENTRACE_AUDITED(T, bytes)                                                          \
  static_assert(sizeof(T) == (bytes), #T "'s members changed: give each new member a row " \
                                         "in tests/field_audit_test.cc and a reader in "   \
                                         "DESIGN.md §9, then update this size")
ENTRACE_AUDITED(ShardTotals, 584);
ENTRACE_AUDITED(NetworkLayerBreakdown, 40);
ENTRACE_AUDITED(CaptureQuality, 200);
ENTRACE_AUDITED(AppEvents, 208);
ENTRACE_AUDITED(TraceLoadRaw, 136);
ENTRACE_AUDITED(Connection, 96);
ENTRACE_AUDITED(HttpTransaction, 88);
ENTRACE_AUDITED(DnsTransaction, 32);
ENTRACE_AUDITED(NbnsTransaction, 48);
ENTRACE_AUDITED(NbssEvent, 12);
ENTRACE_AUDITED(CifsCommand, 8);
ENTRACE_AUDITED(DceRpcCall, 12);
ENTRACE_AUDITED(NfsCall, 28);
ENTRACE_AUDITED(NcpCall, 20);
#undef ENTRACE_AUDITED
#endif

constexpr double kScale = 0.004;

using Mutation = std::function<void(TraceShard&)>;

// One audited member: a mutation its reader sees, or (for a member read
// outside the report and the metrics) the reader's name.
struct Row {
  const char* member;
  Mutation mutate;
  const char* reader = nullptr;
};

template <typename F>
Mutation each_connection(F f) {
  return [f](TraceShard& s) {
    for (Connection& c : s.connections) f(c);
  };
}

template <typename T, typename F>
Mutation each(std::vector<T> AppEvents::*events, F f) {
  return [events, f](TraceShard& s) {
    for (T& e : s.events.*events) f(e);
  };
}

const Ipv4Address kOneHost(10, 99, 99, 99);

// A different address for each call: every element its own group.
Ipv4Address next_host() {
  static std::uint32_t next = 0x0A630000;
  return Ipv4Address(++next);
}

struct Dataset {
  DatasetSpec spec;
  std::string image;
  std::string clean;
};

std::string render(const DatasetSpec& spec, std::vector<TraceShard>&& shards) {
  const EnterpriseModel model;
  const DatasetAnalysis analysis =
      fold_shards(spec.name, std::move(shards), default_config_for_model(model.site()));
  const report::ReportInput input{&spec, &analysis};
  return report::full_report({&input, 1}) + obs::render_json(analysis.metrics, false);
}

std::vector<TraceShard> decode(const std::string& image) {
  snapshot::Snapshot snap = snapshot::decode_snapshot(
      {reinterpret_cast<const std::uint8_t*>(image.data()), image.size()});
  std::vector<TraceShard> shards;
  for (snapshot::SnapshotShard& s : snap.shards) shards.push_back(std::move(s.shard));
  return shards;
}

// Analyzed and encoded once per dataset; each row decodes its own copy.
const Dataset& dataset(const std::string& name) {
  static const std::map<std::string, Dataset> all = [] {
    std::map<std::string, Dataset> out;
    const EnterpriseModel model;
    for (const char* n : {"D0", "D3"}) {
      Dataset d{dataset_by_name(n, kScale), {}, {}};
      const SyntheticTraceSourceSet sources(d.spec, model);
      const std::vector<TraceShard> shards = analyze_trace_shards(
          sources, default_config_for_model(model.site()), 0, sources.size());
      std::ostringstream bytes(std::ios::binary);
      snapshot::SnapshotWriter writer(
          bytes, {d.spec.name, kScale, static_cast<std::uint32_t>(shards.size())});
      for (std::size_t i = 0; i < shards.size(); ++i) {
        writer.add_shard(static_cast<std::uint32_t>(i), shards[i]);
      }
      writer.close();
      d.image = std::move(bytes).str();
      d.clean = render(d.spec, decode(d.image));
      out.emplace(n, std::move(d));
    }
    return out;
  }();
  return all.at(name);
}

// True when the row's mutation moves D0's or D3's render.
bool seen(const Row& row) {
  for (const char* name : {"D0", "D3"}) {
    const Dataset& d = dataset(name);
    std::vector<TraceShard> shards = decode(d.image);
    for (TraceShard& s : shards) row.mutate(s);
    if (render(d.spec, std::move(shards)) != d.clean) return true;
  }
  return false;
}

void audit(const std::vector<Row>& rows) {
  std::string unread;
  for (const Row& row : rows) {
    if (row.reader != nullptr) continue;
    if (!seen(row)) unread += std::string(unread.empty() ? "" : ", ") + row.member;
  }
  EXPECT_TRUE(unread.empty()) << "no report line or semantic metric reads: " << unread;
}

TEST(FieldAuditTest, TraceShardMembers) {
  audit({
      {"ShardTotals::total_packets", [](TraceShard& s) { s.total_packets *= 2; }},
      {"ShardTotals::total_wire_bytes", nullptr,
       "quickstart's headline and the daemon's window summary (wire_bytes)"},
      {"NetworkLayerBreakdown::total", [](TraceShard& s) { ++s.l3.total; }},
      {"NetworkLayerBreakdown::ip", [](TraceShard& s) { ++s.l3.ip; }},
      {"NetworkLayerBreakdown::arp", [](TraceShard& s) { ++s.l3.arp; }},
      {"NetworkLayerBreakdown::ipx", [](TraceShard& s) { ++s.l3.ipx; }},
      {"NetworkLayerBreakdown::other", [](TraceShard& s) { ++s.l3.other; }},
      {"ShardTotals::monitored_hosts",
       [](TraceShard& s) { s.monitored_hosts.push_back(0xFFFFFFFEu); }},
      {"ShardTotals::lbnl_hosts", [](TraceShard& s) { s.lbnl_hosts.push_back(0xFFFFFFFEu); }},
      {"ShardTotals::remote_hosts",
       [](TraceShard& s) { s.remote_hosts.push_back(0xFFFFFFFEu); }},
      {"CaptureQuality::packets_seen", [](TraceShard& s) { s.quality.packets_seen *= 2; }},
      {"CaptureQuality::packets_ok", [](TraceShard& s) { s.quality.packets_ok *= 2; }},
      {"CaptureQuality::packets_dropped", [](TraceShard& s) { ++s.quality.packets_dropped; }},
      {"CaptureQuality::anomalies",
       [](TraceShard& s) { s.quality.anomalies.add(AnomalyKind::kTcpTupleReuse); }},
      {"AppEvents::smtp", nullptr,
       "events.total(): quickstart, trace_inspector and the daemon's window summary "
       "(app_events)"},
      {"AppEvents::epm", nullptr,
       "events.total(): quickstart, trace_inspector and the daemon's window summary "
       "(app_events)"},
      {"ShardTotals::metrics",
       [](TraceShard& s) {
         s.metrics.counter("source.packets", obs::MetricClass::kSemantic, "")->add(1);
       }},
      {"TraceShard::detector", [](TraceShard& s) { s.detector = ScannerDetector(); }},
      {"TraceShard::connections", [](TraceShard& s) { s.connections.pop_back(); }},
      {"TraceLoadRaw::trace_name", nullptr, "capacity_planning's per-trace table"},
      {"TraceLoadRaw::bits_1s", [](TraceShard& s) { s.load.bits_1s.add(0.5, 8e6); }},
      {"TraceLoadRaw::ent_tcp_pkts", [](TraceShard& s) { s.load.ent_tcp_pkts *= 2; }},
      {"TraceLoadRaw::ent_retx", [](TraceShard& s) { ++s.load.ent_retx; }},
      {"TraceLoadRaw::wan_tcp_pkts", [](TraceShard& s) { s.load.wan_tcp_pkts *= 2; }},
      {"TraceLoadRaw::wan_retx", [](TraceShard& s) { s.load.wan_retx *= 2; }},
      {"TraceLoadRaw::keepalive_excluded", [](TraceShard& s) { ++s.load.keepalive_excluded; }},
  });
}

TEST(FieldAuditTest, ConnectionMembers) {
  audit({
      {"Connection::key.src", each_connection([](Connection& c) { c.key.src = kOneHost; })},
      {"Connection::key.dst", each_connection([](Connection& c) { c.key.dst = kOneHost; })},
      {"Connection::key.src_port", nullptr, "trace_inspector's connection lines"},
      {"Connection::key.dst_port", nullptr, "trace_inspector's connection lines"},
      {"Connection::key.proto",
       each_connection([](Connection& c) { c.key.proto = ipproto::kUdp; })},
      {"Connection::start_ts", each_connection([](Connection& c) { c.start_ts -= 1.0; })},
      {"Connection::last_ts", each_connection([](Connection& c) { c.last_ts += 1.0; })},
      {"Connection::orig_pkts", nullptr,
       "perfbench --mix's Figure 1 packet shares (AppCategoryBreakdown's pkts cells)"},
      {"Connection::resp_pkts", nullptr,
       "perfbench --mix's Figure 1 packet shares (AppCategoryBreakdown's pkts cells)"},
      {"Connection::orig_bytes", each_connection([](Connection& c) { ++c.orig_bytes; })},
      {"Connection::resp_bytes", each_connection([](Connection& c) { ++c.resp_bytes; })},
      {"Connection::state",
       each_connection([](Connection& c) { c.state = ConnState::kRejected; })},
      {"Connection::keepalive_retx", each_connection([](Connection& c) { ++c.keepalive_retx; })},
      {"Connection::app_id", each_connection([](Connection& c) { c.app_id = 0; })},
      {"Connection::multicast",
       each_connection([](Connection& c) { c.multicast = !c.multicast; })},
      {"Connection::open_seq", nullptr, "WindowFold's upsert of window connection deltas"},
      {"Connection::parser_slot", nullptr,
       "ProtocolDispatcher, while the trace is analyzed; never encoded"},
  });
}

TEST(FieldAuditTest, EventMembers) {
  audit({
      {"HttpTransaction::src",
       each(&AppEvents::http, [](HttpTransaction& e) { e.src = kOneHost; })},
      {"HttpTransaction::dst",
       each(&AppEvents::http, [](HttpTransaction& e) { e.dst = kOneHost; })},
      {"HttpTransaction::user_agent",
       each(&AppEvents::http, [](HttpTransaction& e) { e.user_agent = "scanner"; })},
      {"HttpTransaction::conditional",
       each(&AppEvents::http, [](HttpTransaction& e) { e.conditional = !e.conditional; })},
      {"HttpTransaction::has_response",
       each(&AppEvents::http, [](HttpTransaction& e) { e.has_response = !e.has_response; })},
      {"HttpTransaction::status",
       each(&AppEvents::http, [](HttpTransaction& e) { e.status = 404; })},
      {"HttpTransaction::content_type",
       each(&AppEvents::http, [](HttpTransaction& e) { e.content_type = "video/x"; })},
      {"HttpTransaction::resp_body_len",
       each(&AppEvents::http, [](HttpTransaction& e) { ++e.resp_body_len; })},

      {"DnsTransaction::src",
       each(&AppEvents::dns, [](DnsTransaction& e) { e.src = kOneHost; })},
      {"DnsTransaction::dst",
       each(&AppEvents::dns, [](DnsTransaction& e) { e.dst = kOneHost; })},
      {"DnsTransaction::query_ts",
       each(&AppEvents::dns, [](DnsTransaction& e) { e.query_ts -= 1.0; })},
      {"DnsTransaction::resp_ts",
       each(&AppEvents::dns, [](DnsTransaction& e) { e.resp_ts += 1.0; })},
      {"DnsTransaction::qtype",
       each(&AppEvents::dns, [](DnsTransaction& e) { e.qtype = dnstype::kMx; })},
      {"DnsTransaction::has_response",
       each(&AppEvents::dns, [](DnsTransaction& e) { e.has_response = !e.has_response; })},
      {"DnsTransaction::rcode",
       each(&AppEvents::dns, [](DnsTransaction& e) { e.rcode = dnsrcode::kNxDomain; })},

      {"NbnsTransaction::src",
       each(&AppEvents::nbns, [](NbnsTransaction& e) { e.src = kOneHost; })},
      {"NbnsTransaction::opcode",
       each(&AppEvents::nbns, [](NbnsTransaction& e) { e.opcode = NbnsOpcode::kRefresh; })},
      {"NbnsTransaction::name_type",
       each(&AppEvents::nbns, [](NbnsTransaction& e) { e.name_type = NbnsNameType::kOther; })},
      {"NbnsTransaction::name", each(&AppEvents::nbns, [](NbnsTransaction& e) { e.name = "X"; })},
      {"NbnsTransaction::has_response",
       each(&AppEvents::nbns, [](NbnsTransaction& e) { e.has_response = !e.has_response; })},
      {"NbnsTransaction::rcode", each(&AppEvents::nbns, [](NbnsTransaction& e) { e.rcode = 3; })},

      {"NbssEvent::src", each(&AppEvents::nbss, [](NbssEvent& e) { e.src = kOneHost; })},
      {"NbssEvent::dst", each(&AppEvents::nbss, [](NbssEvent& e) { e.dst = next_host(); })},
      {"NbssEvent::type", each(&AppEvents::nbss,
                               [](NbssEvent& e) { e.type = NbssEventType::kNegativeResponse; })},

      {"CifsCommand::category",
       each(&AppEvents::cifs, [](CifsCommand& e) { e.category = CifsCategory::kOther; })},
      {"CifsCommand::dir",
       each(&AppEvents::cifs, [](CifsCommand& e) { e.dir = Direction::kOrigToResp; })},
      {"CifsCommand::msg_bytes", each(&AppEvents::cifs, [](CifsCommand& e) { ++e.msg_bytes; })},

      {"DceRpcCall::iface",
       each(&AppEvents::dcerpc, [](DceRpcCall& e) { e.iface = DceIface::kOther; })},
      {"DceRpcCall::opnum",
       each(&AppEvents::dcerpc, [](DceRpcCall& e) { e.opnum = spoolss_op::kWritePrinter; })},
      {"DceRpcCall::over_pipe",
       each(&AppEvents::dcerpc, [](DceRpcCall& e) { e.over_pipe = !e.over_pipe; })},
      {"DceRpcCall::is_request",
       each(&AppEvents::dcerpc, [](DceRpcCall& e) { e.is_request = true; })},
      {"DceRpcCall::bytes", each(&AppEvents::dcerpc, [](DceRpcCall& e) { ++e.bytes; })},

      {"NfsCall::src", each(&AppEvents::nfs, [](NfsCall& e) { e.src = kOneHost; })},
      {"NfsCall::dst", each(&AppEvents::nfs, [](NfsCall& e) { e.dst = kOneHost; })},
      {"NfsCall::proc", each(&AppEvents::nfs, [](NfsCall& e) { e.proc = nfsproc::kRead; })},
      {"NfsCall::has_reply", each(&AppEvents::nfs, [](NfsCall& e) { e.has_reply = !e.has_reply; })},
      {"NfsCall::status", each(&AppEvents::nfs, [](NfsCall& e) { ++e.status; })},
      {"NfsCall::req_bytes", each(&AppEvents::nfs, [](NfsCall& e) { ++e.req_bytes; })},
      {"NfsCall::resp_bytes", each(&AppEvents::nfs, [](NfsCall& e) { ++e.resp_bytes; })},

      {"NcpCall::src", each(&AppEvents::ncp, [](NcpCall& e) { e.src = kOneHost; })},
      {"NcpCall::dst", each(&AppEvents::ncp, [](NcpCall& e) { e.dst = next_host(); })},
      {"NcpCall::function",
       each(&AppEvents::ncp, [](NcpCall& e) { e.function = NcpFunction::kRead; })},
      {"NcpCall::has_reply", each(&AppEvents::ncp, [](NcpCall& e) { e.has_reply = !e.has_reply; })},
      {"NcpCall::completion_code",
       each(&AppEvents::ncp, [](NcpCall& e) { ++e.completion_code; })},
      {"NcpCall::req_bytes", each(&AppEvents::ncp, [](NcpCall& e) { ++e.req_bytes; })},
      {"NcpCall::resp_bytes", each(&AppEvents::ncp, [](NcpCall& e) { ++e.resp_bytes; })},
  });
}

}  // namespace
}  // namespace entrace
