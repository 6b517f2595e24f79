// Tests for the synthetic trace generator: determinism, well-formedness,
// capture-window and snaplen discipline, TCP builder invariants.
#include <gtest/gtest.h>

#include "flow/flow_table.h"
#include "net/decoder.h"
#include <filesystem>

#include "synth/generator.h"
#include "synth/tcp_builder.h"

namespace entrace {
namespace {

DatasetSpec small_spec() {
  DatasetSpec spec = dataset_d0(0.004);
  spec.monitored_subnets = {1, 2, 5};
  return spec;
}

TEST(Generator, DeterministicAcrossRuns) {
  EnterpriseModel model;
  const DatasetSpec spec = small_spec();
  const TraceSet a = generate_dataset(spec, model);
  const TraceSet b = generate_dataset(spec, model);
  ASSERT_EQ(a.total_packets(), b.total_packets());
  ASSERT_EQ(a.traces.size(), b.traces.size());
  for (std::size_t t = 0; t < a.traces.size(); ++t) {
    ASSERT_EQ(a.traces[t].packets.size(), b.traces[t].packets.size());
    for (std::size_t p = 0; p < a.traces[t].packets.size(); p += 97) {
      EXPECT_EQ(a.traces[t].packets[p].ts, b.traces[t].packets[p].ts);
      EXPECT_EQ(a.traces[t].packets[p].data, b.traces[t].packets[p].data);
    }
  }
}

TEST(Generator, DifferentSeedsProduceDifferentTraffic) {
  EnterpriseModel model;
  DatasetSpec spec = small_spec();
  const TraceSet a = generate_dataset(spec, model);
  spec.seed = 0x999;
  const TraceSet b = generate_dataset(spec, model);
  EXPECT_NE(a.total_packets(), b.total_packets());
}

TEST(Generator, AllPacketsDecodeAndRespectWindow) {
  EnterpriseModel model;
  const DatasetSpec spec = small_spec();
  const TraceSet set = generate_dataset(spec, model);
  ASSERT_GT(set.total_packets(), 1000u);
  for (const Trace& trace : set.traces) {
    double last_ts = trace.start_ts;
    for (const RawPacket& pkt : trace.packets) {
      EXPECT_GE(pkt.ts, trace.start_ts);
      EXPECT_LE(pkt.ts, trace.start_ts + trace.duration);
      EXPECT_GE(pkt.ts, last_ts);  // sorted
      last_ts = pkt.ts;
      EXPECT_LE(pkt.data.size(), trace.snaplen);
      EXPECT_GE(pkt.wire_len, pkt.data.size());
      const auto d = decode_packet(pkt);
      ASSERT_TRUE(d.has_value());
    }
  }
}

TEST(Generator, SnaplenAppliedForHeaderOnlyDatasets) {
  EnterpriseModel model;
  DatasetSpec spec = dataset_d1(0.002);
  spec.monitored_subnets = {3};
  spec.traces_per_subnet = 1;
  const TraceSet set = generate_dataset(spec, model);
  for (const Trace& trace : set.traces) {
    EXPECT_EQ(trace.snaplen, 68u);
    bool truncated = false;
    for (const RawPacket& pkt : trace.packets) {
      ASSERT_LE(pkt.data.size(), 68u);
      if (pkt.wire_len > pkt.data.size()) truncated = true;
    }
    EXPECT_TRUE(truncated);  // plenty of full-size packets got snapped
  }
}

TEST(Generator, MonitoredSubnetAppearsInEveryPacket) {
  EnterpriseModel model;
  DatasetSpec spec = small_spec();
  spec.monitored_subnets = {2};
  const TraceSet set = generate_dataset(spec, model);
  const Subnet subnet = model.subnet(2);
  std::size_t ip_pkts = 0, touching = 0;
  for (const RawPacket& pkt : set.traces.front().packets) {
    const auto d = decode_packet(pkt);
    ASSERT_TRUE(d.has_value());
    if (d->l3 != L3Kind::kIpv4) continue;
    ++ip_pkts;
    if (subnet.contains(d->src) || subnet.contains(d->dst) || d->dst.is_multicast() ||
        d->dst.is_broadcast()) {
      ++touching;
    }
  }
  // The tap sees only traffic entering/leaving the subnet (plus broadcast
  // and multicast domains).
  EXPECT_GT(ip_pkts, 100u);
  EXPECT_GT(static_cast<double>(touching) / static_cast<double>(ip_pkts), 0.99);
}

TEST(TcpBuilder, CleanSessionReconstructsExactly) {
  Trace trace;
  trace.snaplen = 1500;
  trace.duration = 100.0;
  PacketSink sink(trace);
  Rng rng(5);
  const HostRef client = EnterpriseModel::ref(Ipv4Address(128, 3, 1, 10));
  const HostRef server = EnterpriseModel::ref(Ipv4Address(128, 3, 2, 10));
  TcpFlowBuilder tcp(sink, rng, client, server, 44444, 80, 1.0);
  tcp.connect();
  tcp.client_message(filler_payload(5000));
  tcp.server_message(filler_payload(123456));
  tcp.close();

  std::stable_sort(trace.packets.begin(), trace.packets.end(),
                   [](const RawPacket& a, const RawPacket& b) { return a.ts < b.ts; });
  FlowTable table;
  for (const RawPacket& pkt : trace.packets) {
    const auto d = decode_packet(pkt);
    ASSERT_TRUE(d.has_value());
    table.process(*d);
  }
  table.drain_all();
  ASSERT_EQ(table.connections().size(), 1u);
  const Connection& c = table.connections().front();
  EXPECT_EQ(c.state, ConnState::kClosed);
  EXPECT_EQ(c.orig_bytes, 5000u);
  EXPECT_EQ(c.resp_bytes, 123456u);
  EXPECT_EQ(table.stats().tcp_retransmissions, 0u);
}

TEST(TcpBuilder, LossProducesRetransmissionsWithoutByteInflation) {
  Trace trace;
  trace.snaplen = 1500;
  trace.duration = 1000.0;
  PacketSink sink(trace);
  Rng rng(6);
  TcpOptions opt;
  opt.loss_rate = 0.05;
  const HostRef client = EnterpriseModel::ref(Ipv4Address(128, 3, 1, 10));
  const HostRef server = EnterpriseModel::ref(Ipv4Address(128, 3, 2, 10));
  TcpFlowBuilder tcp(sink, rng, client, server, 44444, 13724, 1.0, opt);
  tcp.connect();
  tcp.client_transfer(2 * 1024 * 1024);
  tcp.close();

  std::stable_sort(trace.packets.begin(), trace.packets.end(),
                   [](const RawPacket& a, const RawPacket& b) { return a.ts < b.ts; });
  FlowTable table;
  std::uint64_t retx = 0, data_pkts = 0;
  for (const RawPacket& pkt : trace.packets) {
    const auto d = decode_packet(pkt);
    ASSERT_TRUE(d.has_value());
    const auto v = table.process(*d);
    if (d->is_tcp() && d->payload_wire_len > 0) {
      ++data_pkts;
      if (v.tcp_retransmission) ++retx;
    }
  }
  table.drain_all();
  const Connection& c = table.connections().front();
  EXPECT_EQ(c.orig_bytes, 2u * 1024 * 1024);  // retransmissions don't inflate
  const double rate = static_cast<double>(retx) / static_cast<double>(data_pkts);
  EXPECT_GT(rate, 0.02);
  EXPECT_LT(rate, 0.10);
}

TEST(TcpBuilder, KeepalivesAreKeepaliveRetx) {
  Trace trace;
  trace.snaplen = 1500;
  trace.duration = 10000.0;
  PacketSink sink(trace);
  Rng rng(7);
  const HostRef client = EnterpriseModel::ref(Ipv4Address(128, 3, 1, 10));
  const HostRef server = EnterpriseModel::ref(Ipv4Address(128, 3, 3, 2));
  TcpFlowBuilder tcp(sink, rng, client, server, 44444, 524, 1.0);
  tcp.connect();
  tcp.keepalives(10, 45.0);

  std::stable_sort(trace.packets.begin(), trace.packets.end(),
                   [](const RawPacket& a, const RawPacket& b) { return a.ts < b.ts; });
  FlowTable table;
  for (const RawPacket& pkt : trace.packets) {
    const auto d = decode_packet(pkt);
    table.process(*d);
  }
  table.drain_all();
  const Connection& c = table.connections().front();
  EXPECT_EQ(c.keepalive_retx, 10u);
  EXPECT_LE(c.orig_bytes, 2u);
}

TEST(Generator, PcapExportRoundTrips) {
  EnterpriseModel model;
  DatasetSpec spec = small_spec();
  spec.monitored_subnets = {1};
  const auto dir = std::filesystem::temp_directory_path() / "entrace_gen";
  std::filesystem::create_directories(dir);
  const TraceSet direct = generate_dataset(spec, model);
  ASSERT_EQ(direct.traces.size(), 1u);
  const std::string path = (dir / "trace.pcap").string();
  direct.traces.front().save(path);
  const Trace loaded = Trace::load(path);
  EXPECT_EQ(loaded.packets.size(), direct.traces.front().packets.size());
  std::filesystem::remove_all(dir);
}

TEST(DatasetSpecs, FiveDatasetsMatchTable1Parameters) {
  const auto all = all_datasets(0.01);
  ASSERT_EQ(all.size(), 5u);
  EXPECT_EQ(all[0].trace_duration, 600.0);
  EXPECT_EQ(all[0].snaplen, 1500u);
  EXPECT_FALSE(all[0].imap_secure);
  EXPECT_EQ(all[1].snaplen, 68u);
  EXPECT_EQ(all[1].traces_per_subnet, 2);
  EXPECT_EQ(all[2].snaplen, 68u);
  EXPECT_EQ(all[3].num_subnets, 18);
  EXPECT_EQ(all[3].monitored_subnets.size(), 18u);
  EXPECT_EQ(all[4].num_subnets, 18);
  for (const auto& spec : all) EXPECT_EQ(spec.monitored_subnets.size(),
                                         static_cast<std::size_t>(spec.num_subnets));
  EXPECT_THROW(dataset_by_name("D9"), std::invalid_argument);
}

}  // namespace
}  // namespace entrace
