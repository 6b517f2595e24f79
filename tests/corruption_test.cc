// Fault-injection tests: the pipeline must survive arbitrarily corrupted
// captures without crashing, account for every packet
// (packets_seen == packets_ok + packets_dropped), classify what it dropped,
// produce thread-count-independent anomaly counts, and keep the headline
// numbers stable when the fault rate is low.  The application parsers get
// their own seeded mutation loop over raw byte streams (below).
//
// These run in their own executable (entrace_corruption_tests) under the
// CTest label "corruption" so they can also be driven under ASan+UBSan
// (cmake --preset asan) without rebuilding the main suite.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "core/report.h"
#include "net/encoder.h"
#include "net/headers.h"
#include "proto/cifs.h"
#include "proto/dcerpc.h"
#include "proto/dispatcher.h"
#include "proto/dns.h"
#include "proto/ncp.h"
#include "proto/netbios.h"
#include "proto/nfs.h"
#include "synth/corruptor.h"
#include "synth/generator.h"

namespace entrace {
namespace {

// One small-but-real dataset, generated once and copied per corruption run:
// a few subnets of D3 (full snaplen, so payload parsers run and the
// application layer is exercised too).
class CorruptionTest : public ::testing::Test {
 protected:
  static const TraceSet& clean_traces() {
    static const TraceSet traces = [] {
      EnterpriseModel model;
      DatasetSpec spec = dataset_d3(0.004);
      spec.monitored_subnets = {4, 15, 20};
      return generate_dataset(spec, model);
    }();
    return traces;
  }

  static DatasetAnalysis analyze(const TraceSet& traces, std::size_t threads) {
    static const EnterpriseModel model;
    AnalyzerConfig config = default_config_for_model(model.site());
    config.threads = threads;
    return analyze_dataset(traces, config);
  }
};

TEST_F(CorruptionTest, CleanDatasetHasNoDropsAndNoAnomalies) {
  const DatasetAnalysis a = analyze(clean_traces(), 1);
  ASSERT_GT(a.quality.packets_seen, 1000u);
  EXPECT_TRUE(a.quality.accounted());
  EXPECT_EQ(a.quality.packets_dropped, 0u);
  EXPECT_EQ(a.quality.packets_ok, a.quality.packets_seen);
  // The only anomaly a clean capture may carry is the informational snaplen
  // flag: 8 KB NFS-over-UDP messages ride single over-MTU frames (a
  // documented deviation, DESIGN.md §7) that the 1500-byte snaplen clips.
  EXPECT_EQ(a.quality.anomalies.total(),
            a.quality.anomalies[AnomalyKind::kSnapTruncated])
      << "clean trace produced unexpected anomaly kinds ("
      << a.quality.anomalies.as_map().size() << " kinds non-zero)";
  // With zero drops the headline tallies cover the whole capture.
  EXPECT_EQ(a.total_packets, a.quality.packets_seen);
  EXPECT_EQ(a.l3.total, a.total_packets);
}

// The self-consistency rule of analyzer.h: dropped packets are excluded
// from *every* headline tally, not just some of them, so total_packets,
// l3.total and the L3 breakdown's sum all describe the same packet set.
TEST_F(CorruptionTest, HeadlineTalliesExcludeDroppedPacketsConsistently) {
  TraceSet corrupted = clean_traces();
  CorruptionConfig config;
  config.seed = 17;
  config.rate = 0.2;
  corrupt_dataset(corrupted, config);

  const DatasetAnalysis a = analyze(corrupted, 1);
  ASSERT_GT(a.quality.packets_dropped, 0u);  // the rate guarantees drops
  EXPECT_EQ(a.total_packets, a.quality.packets_ok);
  EXPECT_LT(a.total_packets, a.quality.packets_seen);
  EXPECT_EQ(a.l3.total, a.total_packets);
  EXPECT_EQ(a.l3.ip + a.l3.arp + a.l3.ipx + a.l3.other, a.l3.total);
}

TEST_F(CorruptionTest, ZeroRateLeavesTracesUntouched) {
  TraceSet copy = clean_traces();
  CorruptionConfig config;
  config.rate = 0.0;
  const CorruptionSummary summary = corrupt_dataset(copy, config);
  EXPECT_EQ(summary.total(), 0u);
  ASSERT_EQ(copy.traces.size(), clean_traces().traces.size());
  for (std::size_t i = 0; i < copy.traces.size(); ++i) {
    ASSERT_EQ(copy.traces[i].packets.size(), clean_traces().traces[i].packets.size());
    for (std::size_t j = 0; j < copy.traces[i].packets.size(); ++j) {
      ASSERT_EQ(copy.traces[i].packets[j].data, clean_traces().traces[i].packets[j].data);
    }
  }
}

TEST_F(CorruptionTest, CorruptionIsDeterministicPerConfig) {
  CorruptionConfig config;
  config.seed = 7;
  config.rate = 0.1;
  TraceSet a = clean_traces();
  TraceSet b = clean_traces();
  const CorruptionSummary sa = corrupt_dataset(a, config);
  const CorruptionSummary sb = corrupt_dataset(b, config);
  EXPECT_EQ(sa.applied, sb.applied);
  ASSERT_EQ(a.traces.size(), b.traces.size());
  for (std::size_t i = 0; i < a.traces.size(); ++i) {
    ASSERT_EQ(a.traces[i].packets.size(), b.traces[i].packets.size()) << "trace " << i;
    for (std::size_t j = 0; j < a.traces[i].packets.size(); ++j) {
      ASSERT_EQ(a.traces[i].packets[j].data, b.traces[i].packets[j].data)
          << "trace " << i << " packet " << j;
    }
  }
  // A different seed produces a different corruption of the same traces.
  TraceSet c = clean_traces();
  config.seed = 8;
  corrupt_dataset(c, config);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.traces.size() && !any_difference; ++i) {
    if (a.traces[i].packets.size() != c.traces[i].packets.size()) any_difference = true;
    for (std::size_t j = 0; !any_difference && j < a.traces[i].packets.size(); ++j) {
      if (a.traces[i].packets[j].data != c.traces[i].packets[j].data) any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

// The headline robustness property: across many seeds and fault rates the
// pipeline neither crashes nor loses track of a single packet, and whenever
// faults were injected it has something to say about them.
TEST_F(CorruptionTest, FuzzLoopAccountsForEveryPacketAcrossSeedsAndRates) {
  const std::array<std::uint64_t, 8> seeds = {1, 2, 3, 5, 8, 13, 21, 34};
  const std::array<double, 3> rates = {0.02, 0.1, 0.3};
  for (const std::uint64_t seed : seeds) {
    for (const double rate : rates) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " rate=" + std::to_string(rate));
      TraceSet corrupted = clean_traces();
      CorruptionConfig config;
      config.seed = seed;
      config.rate = rate;
      const CorruptionSummary summary = corrupt_dataset(corrupted, config);
      ASSERT_GT(summary.total(), 0u);

      const DatasetAnalysis a = analyze(corrupted, 1);
      EXPECT_TRUE(a.quality.accounted())
          << "seen=" << a.quality.packets_seen << " ok=" << a.quality.packets_ok
          << " dropped=" << a.quality.packets_dropped;
      EXPECT_EQ(a.quality.packets_seen, corrupted.total_packets());
      // Headline accounting rule (analyzer.h): the tallies count analyzed
      // packets only, so they agree with each other even when the capture
      // is riddled with drops.
      EXPECT_EQ(a.total_packets, a.quality.packets_ok);
      EXPECT_EQ(a.l3.total, a.total_packets);
      EXPECT_TRUE(a.quality.anomalies.any());
      // Graceful degradation, not collapse: most traffic still analyzed.
      EXPECT_GT(a.quality.packets_ok, a.quality.packets_seen / 2);
    }
  }
}

TEST_F(CorruptionTest, AnomalyCountsIdenticalForOneAndFourThreads) {
  TraceSet corrupted = clean_traces();
  CorruptionConfig config;
  config.seed = 42;
  config.rate = 0.15;
  corrupt_dataset(corrupted, config);

  const DatasetAnalysis a = analyze(corrupted, 1);
  const DatasetAnalysis b = analyze(corrupted, 4);
  EXPECT_EQ(a.quality, b.quality);
  EXPECT_EQ(a.quality.anomalies.as_map(), b.quality.anomalies.as_map());
  EXPECT_EQ(a.total_packets, b.total_packets);
  EXPECT_EQ(a.connections.size(), b.connections.size());
  EXPECT_EQ(a.events.total(), b.events.total());
}

TEST_F(CorruptionTest, HeadlineNumbersStableAtLowFaultRate) {
  TraceSet corrupted = clean_traces();
  CorruptionConfig config;
  config.seed = 3;
  config.rate = 0.005;
  corrupt_dataset(corrupted, config);

  const DatasetAnalysis clean = analyze(clean_traces(), 1);
  const DatasetAnalysis dirty = analyze(corrupted, 1);

  const auto within = [](std::uint64_t a, std::uint64_t b, double tol) {
    const double hi = static_cast<double>(std::max(a, b));
    const double lo = static_cast<double>(std::min(a, b));
    return hi == 0.0 || (hi - lo) / hi <= tol;
  };
  // A 0.5% per-packet fault rate may duplicate/drop a handful of packets and
  // discard a handful more at decode; the table-level numbers must move by
  // at most a few percent.
  EXPECT_TRUE(within(clean.total_packets, dirty.total_packets, 0.02))
      << clean.total_packets << " vs " << dirty.total_packets;
  EXPECT_TRUE(within(clean.l3.ip, dirty.l3.ip, 0.03))
      << clean.l3.ip << " vs " << dirty.l3.ip;
  EXPECT_TRUE(within(clean.connections.size(), dirty.connections.size(), 0.05))
      << clean.connections.size() << " vs " << dirty.connections.size();
  EXPECT_TRUE(within(clean.events.total(), dirty.events.total(), 0.10))
      << clean.events.total() << " vs " << dirty.events.total();
  // And the damage itself is bounded: dropped packets stay near the rate.
  EXPECT_LT(dirty.quality.packets_dropped,
            dirty.quality.packets_seen / 50);
}

TEST_F(CorruptionTest, CaptureQualityReportListsAnomalies) {
  TraceSet corrupted = clean_traces();
  CorruptionConfig config;
  config.seed = 9;
  config.rate = 0.2;
  corrupt_dataset(corrupted, config);
  const DatasetAnalysis a = analyze(corrupted, 1);

  const report::ReportInput input{nullptr, &a};
  const std::string text =
      report::render_section(report::section("capture_quality"), {&input, 1});
  EXPECT_NE(text.find("Capture quality"), std::string::npos);
  EXPECT_NE(text.find("Seen"), std::string::npos);
  EXPECT_NE(text.find("Dropped"), std::string::npos);
  // At a 20% fault rate at least one checksum anomaly is all but certain;
  // assert the kind identifiers render.
  for (const auto& [kind, count] : a.quality.anomalies.as_map()) {
    EXPECT_NE(text.find(kind), std::string::npos) << kind;
  }
}

TEST_F(CorruptionTest, SummaryMapNamesEveryAppliedFault) {
  TraceSet corrupted = clean_traces();
  CorruptionConfig config;
  config.seed = 11;
  config.rate = 0.25;
  const CorruptionSummary summary = corrupt_dataset(corrupted, config);
  const auto map = summary.as_map();
  EXPECT_FALSE(map.empty());
  std::uint64_t total = 0;
  for (const auto& [name, count] : map) {
    EXPECT_FALSE(name.empty());
    total += count;
  }
  EXPECT_EQ(total, summary.total());
}

// ---- app-parser mutation ------------------------------------------------------
//
// Every parser the dispatcher runs takes seeded byte streams.  Half are
// valid conversations built by the proto encoders (or HTTP/SMTP text) with
// bytes flipped, half are random bytes.  Each stream opens a connection,
// arrives in random-length chunks (TCP) or datagrams (UDP) in random
// directions, and closes.  Nothing may crash or trip a sanitizer, and every
// event a parser emits must carry its connection's originator and responder.

using Bytes = std::vector<std::uint8_t>;

struct Message {
  Direction dir;
  Bytes bytes;
};

constexpr Direction kToResp = Direction::kOrigToResp;
constexpr Direction kToOrig = Direction::kRespToOrig;

Bytes text(const std::string& s) { return Bytes(s.begin(), s.end()); }

std::vector<Message> http_conversation() {
  return {{kToResp, text("GET /a.gif HTTP/1.1\r\nHost: www\r\nUser-Agent: Mozilla/5.0\r\n"
                         "If-Modified-Since: Tue\r\n\r\n")},
          {kToOrig, text("HTTP/1.1 200 OK\r\nContent-Type: image/gif\r\n"
                         "Content-Length: 5\r\n\r\nGIF89")},
          {kToResp, text("POST /f HTTP/1.1\r\nHost: www\r\nContent-Length: 3\r\n\r\nabc")},
          {kToOrig, text("HTTP/1.1 304 Not Modified\r\n\r\n")}};
}

std::vector<Message> smtp_conversation() {
  return {{kToOrig, text("220 mail ESMTP\r\n")},      {kToResp, text("HELO client\r\n")},
          {kToOrig, text("250 ok\r\n")},              {kToResp, text("MAIL FROM:<a@b>\r\n")},
          {kToResp, text("RCPT TO:<c@d>\r\n")},       {kToResp, text("DATA\r\n")},
          {kToResp, text("Subject: x\r\n\r\nbody\r\n.\r\n")}, {kToResp, text("QUIT\r\n")}};
}

std::vector<Message> dns_conversation() {
  DnsMessage query;
  query.id = 0x1234;
  query.qname = "www.example.com";
  query.qtype = dnstype::kAaaa;
  DnsMessage answer = query;
  answer.is_response = true;
  answer.ancount = 2;
  DnsMessage nx = query;
  nx.id = 0x77;
  DnsMessage nx_answer = nx;
  nx_answer.is_response = true;
  nx_answer.rcode = dnsrcode::kNxDomain;
  return {{kToResp, encode_dns(query)},
          {kToResp, encode_dns(nx)},
          {kToOrig, encode_dns(answer)},
          {kToOrig, encode_dns(nx_answer)}};
}

std::vector<Message> nbns_conversation() {
  NbnsMessage query;
  query.id = 9;
  query.name = "FILESERVER";
  query.suffix = nbns_suffix::kServer;
  NbnsMessage answer = query;
  answer.is_response = true;
  NbnsMessage reg = query;
  reg.id = 10;
  reg.opcode = nbns_opcode::kRegistration;
  reg.suffix = nbns_suffix::kDomainGroup;
  return {{kToResp, encode_nbns(query)}, {kToOrig, encode_nbns(answer)},
          {kToResp, encode_nbns(reg)}};
}

// SMB over a named pipe: create, a DCE/RPC bind and call through
// write/read, a LANMAN transaction, and a file read.
std::vector<Message> smb_conversation() {
  const std::uint16_t fid = 0x7007;
  return {
      {kToResp, smb_simple(smbcmd::kNegotiate, 1, false, 40)},
      {kToOrig, smb_simple(smbcmd::kNegotiate, 1, true, 60)},
      {kToResp, smb_ntcreate_request(2, "\\spoolss")},
      {kToOrig, smb_ntcreate_response(2, fid)},
      {kToResp, smb_write_request(3, fid, encode_dce_bind(1, dce_uuid(DceIface::kSpoolss)))},
      {kToOrig, smb_write_response(3, fid)},
      {kToResp, smb_read_request(4, fid, 1024)},
      {kToOrig, smb_read_response(4, fid, encode_dce_bind_ack(1))},
      {kToResp, smb_write_request(5, fid, encode_dce_request(2, spoolss_op::kWritePrinter, 96))},
      {kToOrig, smb_read_response(6, fid, encode_dce_response(2, 32))},
      {kToResp, smb_trans(7, false, "\\PIPE\\LANMAN", 40)},
      {kToOrig, smb_trans(7, true, "\\PIPE\\LANMAN", 120)},
      {kToResp, smb_read_request(8, 0x4001, 512)},
      {kToOrig, smb_read_response(8, 0x4001, filler_payload(512))},
  };
}

std::vector<Message> nbss_conversation() {
  std::vector<Message> out = {{kToResp, nbss_session_request("SERVER", "CLIENT")},
                              {kToOrig, nbss_session_response(false)},
                              {kToResp, nbss_session_request("SERVER", "CLIENT")},
                              {kToOrig, nbss_session_response(true)}};
  for (Message& m : smb_conversation()) out.push_back(std::move(m));
  return out;
}

std::vector<Message> epm_conversation() {
  const Bytes stub =
      encode_epm_map_stub(dce_uuid(DceIface::kSpoolss), Ipv4Address(10, 0, 0, 9), 2345);
  return {{kToResp, encode_dce_bind(1, dce_uuid(DceIface::kEpm))},
          {kToOrig, encode_dce_bind_ack(1)},
          {kToResp, encode_dce_request_stub(2, 3, stub)},
          {kToOrig, encode_dce_response_stub(2, stub)}};
}

std::vector<Message> dcerpc_conversation() {
  return {{kToResp, encode_dce_bind(1, dce_uuid(DceIface::kSamr))},
          {kToOrig, encode_dce_bind_ack(1)},
          {kToResp, encode_dce_request(2, 5, 200)},
          {kToOrig, encode_dce_response(2, 48)},
          {kToResp, encode_dce_request(3, 7, 20)}};
}

std::vector<Message> nfs_udp_conversation() {
  return {{kToResp, encode_rpc_call(1, kNfsProgram, kNfsVersion, nfsproc::kLookup, 64)},
          {kToResp, encode_rpc_call(2, kNfsProgram, kNfsVersion, nfsproc::kRead, 32)},
          {kToOrig, encode_rpc_reply(1, 0, 120)},
          {kToOrig, encode_rpc_reply(2, 70, 8)}};
}

std::vector<Message> nfs_tcp_conversation() {
  std::vector<Message> out = nfs_udp_conversation();
  for (Message& m : out) m.bytes = rpc_record_mark(m.bytes);
  return out;
}

std::vector<Message> ncp_conversation() {
  return {{kToResp, encode_ncp_request(1, ncpfn::kOpen, 40)},
          {kToOrig, encode_ncp_reply(1, 0, 20)},
          {kToResp, encode_ncp_request(2, ncpfn::kRead, 16)},
          {kToOrig, encode_ncp_reply(2, 0, 900)},
          {kToResp, encode_ncp_request(3, ncpfn::kNds, 60)}};
}

struct ParserCase {
  const char* name;
  std::uint8_t proto;
  std::uint16_t port;
  AppProtocol app;  // what the registry must identify the connection as
  std::vector<Message> (*conversation)();
};

// True when every event in `events` that carries endpoints names `conn`'s
// originator (and responder, where it keeps one).  CIFS commands and
// DCE/RPC calls carry none; SMTP commands and EPM mappings are counts.
bool events_carry_endpoints(const AppEvents& events, const Connection& conn) {
  bool ok = true;
  const auto check = [&](const auto& vec) {
    for (const auto& e : vec) ok = ok && e.src == conn.key.src && e.dst == conn.key.dst;
  };
  check(events.http);
  check(events.dns);
  check(events.nbss);
  check(events.nfs);
  check(events.ncp);
  for (const NbnsTransaction& e : events.nbns) ok = ok && e.src == conn.key.src;
  return ok;
}

TEST(ParserMutationTest, RandomAndMutatedStreamsKeepEveryParserSafe) {
  static constexpr std::uint16_t kDynamicDcePort = 2345;
  const std::vector<ParserCase> cases = {
      {"HTTP", ipproto::kTcp, ports::kHttp, AppProtocol::kHttp, http_conversation},
      {"SMTP", ipproto::kTcp, ports::kSmtp, AppProtocol::kSmtp, smtp_conversation},
      {"DNS", ipproto::kUdp, ports::kDns, AppProtocol::kDns, dns_conversation},
      {"NBNS", ipproto::kUdp, ports::kNetbiosNs, AppProtocol::kNetbiosNs, nbns_conversation},
      {"NBSS", ipproto::kTcp, ports::kNetbiosSsn, AppProtocol::kNetbiosSsn, nbss_conversation},
      {"CIFS", ipproto::kTcp, ports::kCifs, AppProtocol::kCifs, smb_conversation},
      {"EPM", ipproto::kTcp, ports::kEpm, AppProtocol::kEndpointMapper, epm_conversation},
      {"DCE-RPC", ipproto::kTcp, kDynamicDcePort, AppProtocol::kDceRpc, dcerpc_conversation},
      {"NFS/UDP", ipproto::kUdp, ports::kNfs, AppProtocol::kNfs, nfs_udp_conversation},
      {"NFS/TCP", ipproto::kTcp, ports::kNfs, AppProtocol::kNfs, nfs_tcp_conversation},
      {"NCP", ipproto::kTcp, ports::kNcp, AppProtocol::kNcp, ncp_conversation},
  };
  constexpr int kStreamsPerCase = 1000;
  std::mt19937_64 rng(2005);
  const auto started = std::chrono::steady_clock::now();
  std::uint64_t events_checked = 0;
  for (const ParserCase& c : cases) {
    std::uint64_t valid_events = 0;
    for (int stream = 0; stream < kStreamsPerCase; ++stream) {
      SCOPED_TRACE(std::string(c.name) + " stream " + std::to_string(stream));
      const bool mutated = stream % 2 == 0;
      std::vector<Message> messages;
      if (mutated) {
        messages = c.conversation();
        // Flip 0-7 bytes anywhere in the conversation (0 keeps it valid).
        std::size_t total = 0;
        for (const Message& m : messages) total += m.bytes.size();
        for (std::uint64_t flips = rng() % 8; flips > 0; --flips) {
          std::size_t at = rng() % total;
          for (Message& m : messages) {
            if (at < m.bytes.size()) {
              m.bytes[at] ^= static_cast<std::uint8_t>(1 + rng() % 255);
              break;
            }
            at -= m.bytes.size();
          }
        }
      } else {
        for (std::uint64_t n = 1 + rng() % 6; n > 0; --n) {
          Bytes b(rng() % 600);
          for (std::uint8_t& x : b) x = static_cast<std::uint8_t>(rng());
          messages.push_back({rng() % 2 == 0 ? kToResp : kToOrig, std::move(b)});
        }
      }

      AppRegistry registry;
      AppEvents events;
      AnomalyCounts anomalies;
      ProtocolDispatcher dispatcher(registry, events, /*payload_analysis=*/true, &anomalies);
      Connection conn;
      const Ipv4Address client(10, 1, 2, static_cast<std::uint8_t>(1 + rng() % 200));
      const auto client_port = static_cast<std::uint16_t>(1024 + rng() % 60000);
      conn.key = FiveTuple{client, Ipv4Address(10, 0, 0, 9), client_port, c.port, c.proto};
      if (c.port == kDynamicDcePort) registry.register_dcerpc_endpoint(conn.key.dst, c.port);
      dispatcher.on_new_connection(conn);
      ASSERT_EQ(static_cast<AppProtocol>(conn.app_id), c.app);

      double ts = 1000.0;
      for (const Message& m : messages) {
        // A datagram is delivered whole; a TCP message in random-length
        // chunks, a mutated one's chunks sometimes sent the wrong way.
        std::size_t at = 0;
        do {
          const std::size_t left = m.bytes.size() - at;
          const std::size_t n =
              c.proto == ipproto::kUdp ? left : std::min<std::size_t>(left, 1 + rng() % 200);
          Direction dir = m.dir;
          if (c.proto == ipproto::kTcp && mutated && rng() % 16 == 0) {
            dir = dir == kToResp ? kToOrig : kToResp;
          }
          dispatcher.on_data(conn, dir, ts += 0.001,
                             std::span<const std::uint8_t>(m.bytes.data() + at, n),
                             static_cast<std::uint32_t>(n));
          at += n;
        } while (at < m.bytes.size());
      }
      dispatcher.on_close(conn);

      EXPECT_TRUE(events_carry_endpoints(events, conn));
      events_checked += events.total();
      if (mutated) valid_events += events.total();
    }
    // The encoders' conversations reach the parsers' event paths.
    EXPECT_GT(valid_events, 0u) << c.name;
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
  std::printf("parser mutation: %zu cases x %d streams, %llu events, %.2f s\n", cases.size(),
              kStreamsPerCase, static_cast<unsigned long long>(events_checked), seconds);
}

}  // namespace
}  // namespace entrace
