// Streaming-pipeline equivalence suite (CTest label "streaming", also run
// under ASan+UBSan via `ctest --preset streaming-asan`).
//
// The refactor's contract: analyze_dataset over any PacketSource kind —
// in-memory trace, pcap file streamed off disk, or incremental synthetic
// regeneration — produces bit-identical DatasetAnalysis results (including
// capture-quality anomaly accounting) to the materialized path, at every
// thread count.  These tests pin that contract down source by source and
// end to end.  The merged stream's read-ahead thread is covered here too
// (also run under TSan: `ctest --preset streaming-tsan`): its order, its
// batch sizes, its pause for sub-source access, exceptions and teardown.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/analyzer.h"
#include "core/report.h"
#include "net/encoder.h"
#include "pcap/packet_source.h"
#include "pcap/reader.h"
#include "pcap/writer.h"
#include "synth/generator.h"
#include "synth/synth_source.h"

namespace entrace {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

RawPacket sample_packet(double ts, std::size_t payload) {
  FrameEndpoints ep{MacAddress::from_host_id(1), MacAddress::from_host_id(2),
                    Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2)};
  RawPacket pkt;
  pkt.ts = ts;
  pkt.data = make_udp_frame(ep, 1000, 2000, filler_payload(payload));
  pkt.wire_len = static_cast<std::uint32_t>(pkt.data.size());
  return pkt;
}

// ---- merged stream -----------------------------------------------------------

// The old TraceSet::merged() materialized a pointer vector over every
// packet of every trace; merged_stream() is its streaming replacement — a
// k-way merge holding one packet per source.
TEST(MergedPacketStream, InterleavesTracesInTimestampOrder) {
  TraceSet set;
  Trace a, b;
  a.packets.push_back(sample_packet(1.0, 10));
  a.packets.push_back(sample_packet(3.0, 10));
  b.packets.push_back(sample_packet(2.0, 10));
  b.packets.push_back(sample_packet(4.0, 10));
  set.traces.push_back(std::move(a));
  set.traces.push_back(std::move(b));
  EXPECT_EQ(set.total_packets(), 4u);

  MergedPacketStream stream = merged_stream(set);
  std::vector<double> order;
  while (const RawPacket* pkt = stream.next()) order.push_back(pkt->ts);
  const std::vector<double> expected{1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(order, expected);
  EXPECT_EQ(stream.next(), nullptr);  // stays drained
}

TEST(MergedPacketStream, EqualTimestampsKeepSourceOrder) {
  // Ties resolve by source index (the stable order the old merged() kept)
  // and each source keeps its own order, one packet at a time (next())
  // and in batches alike: three sources whose timestamps tie and
  // interleave.
  const std::vector<std::vector<double>> stamps = {
      {1, 1, 2, 4}, {0, 1, 2, 2, 4}, {1, 2, 3, 4}};
  std::vector<Trace> traces(stamps.size());
  struct Packet {
    double ts;
    std::uint32_t source;
    std::size_t size;  // 10 * source + position identifies the packet
    bool operator==(const Packet&) const = default;
  };
  std::vector<Packet> expected;
  for (std::uint32_t s = 0; s < stamps.size(); ++s) {
    for (std::size_t i = 0; i < stamps[s].size(); ++i) {
      traces[s].packets.push_back(sample_packet(stamps[s][i], 10 * s + i));
      expected.push_back({stamps[s][i], s, traces[s].packets.back().data.size()});
    }
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Packet& a, const Packet& b) { return a.ts < b.ts; });
  const auto open_stream = [&traces] {
    std::vector<std::unique_ptr<PacketSource>> sources;
    for (const Trace& t : traces) sources.push_back(std::make_unique<MemoryTraceSource>(t));
    return MergedPacketStream(std::move(sources));
  };

  MergedPacketStream one = open_stream();
  std::vector<std::size_t> sizes, expected_sizes;
  for (const Packet& p : expected) expected_sizes.push_back(p.size);
  while (const RawPacket* pkt = one.next()) sizes.push_back(pkt->data.size());
  EXPECT_EQ(sizes, expected_sizes);

  for (const std::size_t n : {2, 256}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    MergedPacketStream batched = open_stream();
    std::vector<PacketView> views(n);
    std::vector<Packet> got;
    while (const std::size_t k = batched.next_batch(views.data(), n)) {
      for (std::size_t i = 0; i < k; ++i) {
        got.push_back({views[i].ts, views[i].source, views[i].data.size()});
      }
    }
    EXPECT_EQ(got, expected);
  }
}

TEST(MergedPacketStream, StreamsPcapFilesWithoutLoadingThem) {
  const std::string p1 = temp_path("entrace_merge1.pcap");
  const std::string p2 = temp_path("entrace_merge2.pcap");
  {
    PcapWriter w1(p1, 1500);
    w1.write(sample_packet(1.0, 10));
    w1.write(sample_packet(5.0, 10));
    PcapWriter w2(p2, 1500);
    w2.write(sample_packet(2.0, 10));
    w2.write(sample_packet(3.0, 10));
  }
  std::vector<std::unique_ptr<PacketSource>> sources;
  sources.push_back(std::make_unique<PcapFileSource>(p1));
  sources.push_back(std::make_unique<PcapFileSource>(p2));
  MergedPacketStream stream{std::move(sources)};
  std::vector<double> order;
  while (const RawPacket* pkt = stream.next()) order.push_back(pkt->ts);
  const std::vector<double> expected{1.0, 2.0, 3.0, 5.0};
  EXPECT_EQ(order, expected);
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

// A generated sub-source: packet i has ts = start + i * step and a payload
// of i % 64 bytes, `count` packets in all (0: endless), after which it
// throws std::runtime_error("tap failed") when `throws` is set.  Every pull
// counts one anomaly and one call in `*pulls`, so anomalies() reads state
// that the merge thread writes.
class GeneratedSource final : public PacketSource {
 public:
  GeneratedSource(double start, double step, std::uint64_t count, bool throws = false,
                  std::atomic<std::uint64_t>* pulls = nullptr)
      : start_(start), step_(step), count_(count), throws_(throws), pulls_(pulls) {}

  const TraceMeta& meta() const override { return meta_; }
  const AnomalyCounts& anomalies() const override { return anomalies_; }
  std::thread::id puller() const { return puller_; }

 protected:
  std::size_t pull_batch(PacketView* out, std::size_t n) override {
    anomalies_.add(AnomalyKind::kPcapShortRecordHeader);
    if (pulls_ != nullptr) pulls_->fetch_add(1);
    puller_ = std::this_thread::get_id();
    if (count_ != 0 && next_ == count_ && throws_) throw std::runtime_error("tap failed");
    batch_.clear();
    while (batch_.size() < n && (count_ == 0 || next_ < count_)) {
      batch_.push_back(sample_packet(start_ + static_cast<double>(next_) * step_, next_ % 64));
      ++next_;
    }
    for (std::size_t i = 0; i < batch_.size(); ++i) {
      out[i] = PacketView{batch_[i].ts, batch_[i].wire_len, batch_[i].data};
    }
    return batch_.size();
  }

 private:
  double start_, step_;
  std::uint64_t count_;
  bool throws_;
  std::atomic<std::uint64_t>* pulls_;
  std::uint64_t next_ = 0;
  std::vector<RawPacket> batch_;
  TraceMeta meta_;
  AnomalyCounts anomalies_;
  std::thread::id puller_;
};

MergedPacketStream merged_of(std::vector<std::unique_ptr<GeneratedSource>> generated) {
  std::vector<std::unique_ptr<PacketSource>> sources;
  for (auto& g : generated) sources.push_back(std::move(g));
  return MergedPacketStream(std::move(sources));
}

// The merge runs on its own thread, and what a sub-source throws there
// reaches the caller: after every packet merged before the throw (what a
// merge on the caller's thread would have returned), and again on every
// later call.
TEST(MergedPacketStream, SubSourceExceptionRethrowsOnTheCallersThread) {
  std::vector<std::unique_ptr<GeneratedSource>> sources;
  sources.push_back(std::make_unique<GeneratedSource>(0.0, 1.0, 300, /*throws=*/true));
  sources.push_back(std::make_unique<GeneratedSource>(0.5, 1.0, 1000));
  MergedPacketStream stream = merged_of(std::move(sources));
  std::array<PacketView, 256> views;
  std::uint64_t got = 0;
  try {
    while (const std::size_t k = stream.next_batch(views.data(), views.size())) got += k;
    FAIL() << "the stream drained without the sub-source's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "tap failed");
  }
  // Source 0's 300 packets (ts 0..299) and source 1's below ts 299.
  EXPECT_EQ(got, 300u + 299u);
  EXPECT_THROW(stream.next_batch(views.data(), views.size()), std::runtime_error);
  const auto& thrower = static_cast<const GeneratedSource&>(stream.source(0));
  EXPECT_NE(thrower.puller(), std::this_thread::get_id());
}

// A stream destroyed before it drains (here: over endless sources, so it
// never could) stops and joins its thread: nothing pulls afterwards, and
// ASan sees no use of the destroyed sub-sources.
TEST(MergedPacketStream, DestroyedBeforeDrainingJoinsItsThread) {
  std::atomic<std::uint64_t> pulls{0};
  const auto endless = [&pulls] {
    std::vector<std::unique_ptr<GeneratedSource>> sources;
    sources.push_back(std::make_unique<GeneratedSource>(0.0, 1.0, 0, false, &pulls));
    sources.push_back(std::make_unique<GeneratedSource>(0.5, 1.0, 0, false, &pulls));
    return merged_of(std::move(sources));
  };
  std::array<PacketView, 256> views;
  { MergedPacketStream never_pulled = endless(); }
  EXPECT_EQ(pulls.load(), 0u);
  {
    MergedPacketStream stream = endless();
    for (int i = 0; i < 3; ++i) EXPECT_GT(stream.next_batch(views.data(), views.size()), 0u);
  }
  {
    MergedPacketStream paused = endless();
    EXPECT_GT(paused.next_batch(views.data(), views.size()), 0u);
    EXPECT_GT(paused.anomalies().total(), 0u);
  }
  const std::uint64_t after = pulls.load();
  EXPECT_GT(after, 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(pulls.load(), after);
}

// anomalies() and source(i) between pulls pause the merge: two reads with
// no pull between them agree, TSan sees no race on the sub-sources' state,
// and every packet still arrives in order.
TEST(MergedPacketStream, SubSourceAccessMidStreamPausesTheMerge) {
  std::vector<std::unique_ptr<GeneratedSource>> sources;
  sources.push_back(std::make_unique<GeneratedSource>(0.0, 1.0, 2000));
  sources.push_back(std::make_unique<GeneratedSource>(0.25, 1.5, 1500));
  sources.push_back(std::make_unique<GeneratedSource>(0.5, 0.75, 2500));
  MergedPacketStream stream = merged_of(std::move(sources));
  std::array<PacketView, 256> views;
  std::uint64_t got = 0, batches = 0, seen = 0;
  double last_ts = 0.0;
  while (const std::size_t k = stream.next_batch(views.data(), views.size())) {
    for (std::size_t i = 0; i < k; ++i) {
      ASSERT_GE(views[i].ts, last_ts) << "packet " << got + i;
      last_ts = views[i].ts;
    }
    got += k;
    if (++batches % 3 != 0) continue;
    const std::uint64_t total = stream.anomalies().total();
    EXPECT_GE(total, seen);
    seen = total;
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < stream.source_count(); ++i) {
      sum += stream.source(i).anomalies().total();
    }
    EXPECT_EQ(sum, total) << "batch " << batches;
  }
  EXPECT_EQ(got, 2000u + 1500u + 2500u);
  EXPECT_GT(seen, 0u);
}

// ---- packet-stream level ----------------------------------------------------

class StreamingTest : public ::testing::Test {
 protected:
  static const EnterpriseModel& model() {
    static const EnterpriseModel m;
    return m;
  }
  static DatasetSpec small_spec() {
    DatasetSpec spec = dataset_d3(0.004);
    spec.monitored_subnets = {4, 15, 20};
    return spec;
  }
  static const TraceSet& materialized() {
    static const TraceSet traces = generate_dataset(small_spec(), model());
    return traces;
  }
  static AnalyzerConfig config(std::size_t threads) {
    AnalyzerConfig c = default_config_for_model(model().site());
    c.threads = threads;
    return c;
  }
};

TEST_F(StreamingTest, MemoryTraceSourceIsZeroCopy) {
  const Trace& trace = materialized().traces.front();
  MemoryTraceSource source(trace);
  EXPECT_EQ(source.meta().name, trace.name);
  EXPECT_EQ(source.meta().subnet_id, trace.subnet_id);
  EXPECT_EQ(source.meta().snaplen, trace.snaplen);
  // Every view aliases the trace's own packet bytes.
  std::array<PacketView, 7> views;
  std::size_t i = 0;
  while (const std::size_t got = source.next_batch(views.data(), views.size())) {
    for (std::size_t k = 0; k < got; ++k, ++i) {
      ASSERT_LT(i, trace.packets.size());
      ASSERT_EQ(views[k].data.data(), trace.packets[i].data.data()) << "packet " << i;
      ASSERT_EQ(views[k].data.size(), trace.packets[i].data.size()) << "packet " << i;
    }
  }
  EXPECT_EQ(i, trace.packets.size());
}

TEST_F(StreamingTest, SyntheticSourceReproducesMaterializedTraceExactly) {
  const DatasetSpec spec = small_spec();
  const std::vector<TracePlan> plans = plan_dataset(spec);
  ASSERT_EQ(plans.size(), materialized().traces.size());
  // Slice counts that divide the window unevenly must not matter.
  for (const int slices : {1, 3, 8}) {
    SCOPED_TRACE("slices=" + std::to_string(slices));
    for (std::size_t t = 0; t < plans.size(); ++t) {
      const Trace& want = materialized().traces[t];
      SyntheticTraceSource source(spec, model(), plans[t], {slices});
      EXPECT_EQ(source.meta().name, want.name);
      EXPECT_EQ(source.meta().subnet_id, want.subnet_id);
      std::size_t i = 0;
      while (const RawPacket* pkt = source.next()) {
        ASSERT_LT(i, want.packets.size()) << "trace " << t;
        ASSERT_DOUBLE_EQ(pkt->ts, want.packets[i].ts) << "trace " << t << " packet " << i;
        ASSERT_EQ(pkt->wire_len, want.packets[i].wire_len) << "trace " << t << " packet " << i;
        ASSERT_EQ(pkt->data, want.packets[i].data) << "trace " << t << " packet " << i;
        ++i;
      }
      EXPECT_EQ(i, want.packets.size()) << "trace " << t;
    }
  }
}

// Both readers of a capture file keep the same bytes, including when the
// global header's snaplen is 0 (read as 262,144) or smaller than what the
// records carry (68: both clip).
TEST_F(StreamingTest, PcapFileSourceMatchesLoadedTrace) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "entrace_stream_eq.pcap").string();
  const Trace& trace = materialized().traces.front();
  const std::uint32_t saved = trace.snaplen;
  // {snaplen written into the header, snaplen both readers apply}
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> cases = {
      {saved, saved}, {0, 262144}, {68, 68}};
  for (const auto& [header_snaplen, snaplen] : cases) {
    SCOPED_TRACE("header snaplen " + std::to_string(header_snaplen));
    trace.save(path);
    {
      std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
      f.seekp(16);  // the global header's little-endian snaplen field
      const char le[4] = {static_cast<char>(header_snaplen), static_cast<char>(header_snaplen >> 8),
                          static_cast<char>(header_snaplen >> 16),
                          static_cast<char>(header_snaplen >> 24)};
      f.write(le, sizeof(le));
    }

    const Trace loaded = Trace::load(path, "t", 4);

    PcapFileSource source(path, "t", 4);
    EXPECT_EQ(loaded.snaplen, snaplen);
    EXPECT_EQ(source.meta().snaplen, snaplen);
    std::size_t i = 0;
    while (const RawPacket* pkt = source.next()) {
      ASSERT_LT(i, loaded.packets.size());
      ASSERT_EQ(pkt->ts, loaded.packets[i].ts);
      ASSERT_EQ(pkt->wire_len, loaded.packets[i].wire_len);
      ASSERT_EQ(pkt->data, loaded.packets[i].data);
      ASSERT_EQ(pkt->data.size(),
                std::min<std::size_t>(trace.packets[i].data.size(), snaplen));
      ++i;
    }
    EXPECT_EQ(i, loaded.packets.size());
    EXPECT_EQ(source.anomalies(), loaded.file_anomalies);
  }
  std::filesystem::remove(path);
}

TEST_F(StreamingTest, PcapFileSourceSalvagesTruncatedTailLikeLoad) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "entrace_stream_cut.pcap").string();
  materialized().traces.front().save(path);
  // Cut the file mid-record: global header + some whole records + half a
  // record body.  79 bytes in guarantees we land inside record territory.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 79);

  const Trace loaded = Trace::load(path, "cut", 4);

  PcapFileSource source(path, "cut", 4);
  std::size_t streamed = 0;
  while (source.next() != nullptr) ++streamed;
  EXPECT_EQ(streamed, loaded.packets.size());
  EXPECT_EQ(source.anomalies(), loaded.file_anomalies);
  EXPECT_TRUE(source.anomalies().any());
  std::filesystem::remove(path);
}

TEST_F(StreamingTest, PcapFileSourceThrowsOnUnopenableFile) {
  EXPECT_THROW(PcapFileSource("/nonexistent/entrace_nope.pcap"), std::runtime_error);
}

// A record header claiming more than the 262,144-byte caplen cap ends the
// file for good: the bytes after it are not trusted as records, however
// the file is read (whole, packet by packet or in batches that the bad
// record does not start).
TEST_F(StreamingTest, PcapReadersEndForGoodAtAnOversizedRecord) {
  const std::string head = temp_path("entrace_oversized_head.pcap");
  const std::string tail = temp_path("entrace_oversized_tail.pcap");
  const std::string path = temp_path("entrace_oversized.pcap");
  {
    PcapWriter before(head, 1500);
    for (int i = 0; i < 2; ++i) before.write(sample_packet(1.0 + i, 100));
    PcapWriter after(tail, 1500);
    for (int i = 0; i < 5; ++i) after.write(sample_packet(10.0 + i, 100));
  }
  const auto bytes_of = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in), {});
  };
  std::vector<char> file = bytes_of(head);
  // ts 3 s, caplen and wire length 300,000 (little-endian), then the five
  // record-shaped records of the second file (past its global header).
  const char bad[16] = {3, 0, 0, 0, 0, 0, 0, 0, char(0xE0), char(0x93), 4, 0, char(0xE0),
                        char(0x93), 4, 0};
  file.insert(file.end(), std::begin(bad), std::end(bad));
  const std::vector<char> rest = bytes_of(tail);
  file.insert(file.end(), rest.begin() + 24, rest.end());
  std::ofstream(path, std::ios::binary).write(file.data(), static_cast<std::streamsize>(file.size()));

  const Trace loaded = Trace::load(path, "t", 4);
  EXPECT_EQ(loaded.packets.size(), 2u);
  EXPECT_EQ(loaded.file_anomalies[AnomalyKind::kPcapOversizedRecord], 1u);

  PcapReader reader(path);
  std::size_t read = 0;
  while (reader.next()) ++read;
  EXPECT_EQ(read, 2u);
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(reader.next().has_value()) << "call " << i;
  EXPECT_EQ(reader.anomalies(), loaded.file_anomalies);

  PcapFileSource one(path, "t", 4);
  std::size_t pulled = 0;
  while (one.next() != nullptr) ++pulled;
  EXPECT_EQ(pulled, 2u);
  EXPECT_EQ(one.anomalies(), loaded.file_anomalies);

  PcapFileSource batched(path, "t", 4);
  std::array<PacketView, 256> views;
  std::size_t streamed = 0;
  while (const std::size_t got = batched.next_batch(views.data(), views.size())) streamed += got;
  EXPECT_EQ(streamed, 2u);
  EXPECT_EQ(batched.anomalies(), loaded.file_anomalies);
  for (const std::string& p : {head, tail, path}) std::filesystem::remove(p);
}

// The read-ahead thread merges batches of the caller's last batch size; a
// caller that keeps changing it (1, 7, 256, ...) gets the packets of a
// constant-size caller in the same order, with the same attribution, and
// that order is the stable sort by timestamp over the sources in index
// order.  The traces are shifted to start together so they interleave.
TEST_F(StreamingTest, MergedStreamServesEveryBatchSizeTheSameSequence) {
  TraceSet overlapped = materialized();
  for (Trace& t : overlapped.traces) {
    for (RawPacket& p : t.packets) p.ts -= t.start_ts;
    t.start_ts = 0.0;
  }
  struct Packet {
    double ts;
    std::uint32_t source;
    const RawPacket* original;
  };
  std::vector<Packet> expected;
  for (std::uint32_t s = 0; s < overlapped.traces.size(); ++s) {
    for (const RawPacket& p : overlapped.traces[s].packets) expected.push_back({p.ts, s, &p});
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Packet& a, const Packet& b) { return a.ts < b.ts; });
  ASSERT_GT(expected.size(), 1000u);

  for (const std::vector<std::size_t>& sizes :
       {std::vector<std::size_t>{256}, std::vector<std::size_t>{1, 7, 256}}) {
    SCOPED_TRACE("first size " + std::to_string(sizes.front()));
    MergedPacketStream stream = merged_stream(overlapped);
    std::vector<PacketView> views(256);
    std::size_t i = 0;
    for (std::size_t call = 0;; ++call) {
      const std::size_t n = sizes[call % sizes.size()];
      const std::size_t got = stream.next_batch(views.data(), n);
      if (got == 0) break;
      ASSERT_LE(got, n);
      for (std::size_t k = 0; k < got; ++k, ++i) {
        ASSERT_LT(i, expected.size());
        const Packet& want = expected[i];
        ASSERT_EQ(views[k].ts, want.ts) << "packet " << i;
        ASSERT_EQ(views[k].source, want.source) << "packet " << i;
        ASSERT_EQ(views[k].wire_len, want.original->wire_len) << "packet " << i;
        ASSERT_TRUE(std::equal(views[k].data.begin(), views[k].data.end(),
                               want.original->data.begin(), want.original->data.end()))
            << "packet " << i;
      }
    }
    EXPECT_EQ(i, expected.size());
  }
}

// ---- end-to-end equivalence -------------------------------------------------

void expect_identical_analyses(const DatasetAnalysis& a, const DatasetAnalysis& b) {
  // Headline tallies + the accounting rule of analyzer.h.
  EXPECT_EQ(a.total_packets, b.total_packets);
  EXPECT_EQ(a.total_wire_bytes, b.total_wire_bytes);
  EXPECT_EQ(a.total_packets, a.quality.packets_ok);
  EXPECT_EQ(a.l3.total, a.total_packets);
  EXPECT_EQ(a.l3.ip, b.l3.ip);
  EXPECT_EQ(a.l3.arp, b.l3.arp);
  EXPECT_EQ(a.l3.ipx, b.l3.ipx);
  EXPECT_EQ(a.l3.other, b.l3.other);

  // Capture quality, including every anomaly counter.
  EXPECT_TRUE(a.quality.accounted());
  EXPECT_EQ(a.quality, b.quality);
  EXPECT_EQ(a.quality.anomalies.as_map(), b.quality.anomalies.as_map());

  // Host sets, scanners, connections.
  EXPECT_EQ(a.monitored_hosts, b.monitored_hosts);
  EXPECT_EQ(a.lbnl_hosts, b.lbnl_hosts);
  EXPECT_EQ(a.remote_hosts, b.remote_hosts);
  EXPECT_EQ(a.scanners, b.scanners);
  EXPECT_EQ(a.scanner_conns_removed, b.scanner_conns_removed);
  ASSERT_EQ(a.all_connections.size(), b.all_connections.size());
  ASSERT_EQ(a.connections.size(), b.connections.size());
  for (std::size_t i = 0; i < a.connections.size(); ++i) {
    ASSERT_EQ(a.connections[i]->key, b.connections[i]->key) << "connection " << i;
    ASSERT_EQ(a.connections[i]->total_bytes(), b.connections[i]->total_bytes())
        << "connection " << i;
    ASSERT_EQ(a.connections[i]->app_id, b.connections[i]->app_id) << "connection " << i;
  }

  // Application events.
  EXPECT_EQ(a.events.total(), b.events.total());
  EXPECT_EQ(a.events.http.size(), b.events.http.size());
  EXPECT_EQ(a.events.dns.size(), b.events.dns.size());
  EXPECT_EQ(a.events.cifs.size(), b.events.cifs.size());
  EXPECT_EQ(a.events.nfs.size(), b.events.nfs.size());
  EXPECT_EQ(a.events.ncp.size(), b.events.ncp.size());

  // Load series (§6), per trace in order.
  ASSERT_EQ(a.load_raw.size(), b.load_raw.size());
  for (std::size_t i = 0; i < a.load_raw.size(); ++i) {
    EXPECT_EQ(a.load_raw[i].trace_name, b.load_raw[i].trace_name);
    EXPECT_EQ(a.load_raw[i].ent_tcp_pkts, b.load_raw[i].ent_tcp_pkts);
    EXPECT_EQ(a.load_raw[i].ent_retx, b.load_raw[i].ent_retx);
    EXPECT_EQ(a.load_raw[i].wan_tcp_pkts, b.load_raw[i].wan_tcp_pkts);
    EXPECT_EQ(a.load_raw[i].wan_retx, b.load_raw[i].wan_retx);
    EXPECT_EQ(a.load_raw[i].bits_1s.bins(), b.load_raw[i].bits_1s.bins());
  }
}

// Rendered report tables are the user-facing "bit-identical" check: any
// drift in any tally shows up as a text diff.
void expect_identical_reports(const DatasetSpec& spec, const DatasetAnalysis& a,
                              const DatasetAnalysis& b) {
  const report::ReportInput ia{&spec, &a};
  const report::ReportInput ib{&spec, &b};
  const std::vector<report::ReportInput> va{ia}, vb{ib};
  for (const char* name : {"table2", "table3", "figure1", "capture_quality"}) {
    const report::Section& section = report::section(name);
    EXPECT_EQ(report::render_section(section, va), report::render_section(section, vb)) << name;
  }
}

TEST_F(StreamingTest, MemorySourceSetAnalysisEqualsMaterializedPath) {
  const MemoryTraceSourceSet sources(materialized());
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const DatasetAnalysis streamed = analyze_dataset(sources, config(threads));
    const DatasetAnalysis direct = analyze_dataset(materialized(), config(1));
    expect_identical_analyses(streamed, direct);
    expect_identical_reports(small_spec(), streamed, direct);
  }
}

TEST_F(StreamingTest, SyntheticSourceSetAnalysisEqualsMaterializedPath) {
  const DatasetAnalysis direct = analyze_dataset(materialized(), config(1));
  // slices=3 divides nothing evenly, so batches straddle slice refills;
  // double_buffer covers both the inline and the producer-thread
  // regeneration paths.
  for (const bool double_buffer : {true, false}) {
    const SyntheticTraceSourceSet sources(small_spec(), model(), {3, double_buffer});
    ASSERT_EQ(sources.size(), materialized().traces.size());
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE("double_buffer=" + std::to_string(double_buffer) +
                   " threads=" + std::to_string(threads));
      const DatasetAnalysis streamed = analyze_dataset(sources, config(threads));
      expect_identical_analyses(streamed, direct);
      expect_identical_reports(small_spec(), streamed, direct);
    }
  }
}

TEST_F(StreamingTest, PcapFileSourceSetAnalysisEqualsLoadedTraces) {
  const auto dir = std::filesystem::temp_directory_path() / "entrace_streaming_pcaps";
  std::filesystem::create_directories(dir);
  const DatasetSpec spec = small_spec();
  std::vector<std::string> paths;
  for (const Trace& t : generate_dataset(spec, model()).traces) {
    paths.push_back((dir / (t.name + ".pcap")).string());
    t.save(paths.back());
  }
  const std::vector<TracePlan> plans = plan_dataset(spec);
  ASSERT_EQ(paths.size(), plans.size());

  // The in-memory reference: the same files loaded whole (same usec
  // timestamp quantization, same recoverable reader).
  TraceSet loaded;
  loaded.dataset_name = spec.name;
  std::vector<PcapTraceSpec> files;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    loaded.traces.push_back(Trace::load(paths[i], plans[i].name, plans[i].subnet));
    files.push_back({paths[i], plans[i].name, plans[i].subnet});
  }

  const PcapFileSourceSet sources(spec.name, std::move(files));
  const DatasetAnalysis direct = analyze_dataset(loaded, config(1));
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const DatasetAnalysis streamed = analyze_dataset(sources, config(threads));
    expect_identical_analyses(streamed, direct);
    expect_identical_reports(spec, streamed, direct);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace entrace
