// The parallel per-trace pipeline's two guarantees:
//  1. ThreadPool semantics — completion, results, exception propagation,
//     and the 0/1-thread inline mode.
//  2. Determinism — analyze_dataset produces identical results for 1 and 4
//     worker threads (shards fold in trace-index order).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>

#include "core/analyzer.h"
#include "synth/generator.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace entrace {
namespace {

// ---- ThreadPool unit tests --------------------------------------------------

TEST(ThreadPool, CompletesAllTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&count] { ++count; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ReturnsValuesThroughFutures) {
  ThreadPool pool(3);
  auto f1 = pool.submit([] { return 41 + 1; });
  auto f2 = pool.submit([] { return std::string("shard"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "shard");
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ForEachIndexCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.for_each_index(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ForEachIndexRethrowsLowestIndexException) {
  ThreadPool pool(4);
  try {
    pool.for_each_index(16, [](std::size_t i) {
      if (i == 3 || i == 11) throw std::runtime_error("index " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 3");
  }
}

TEST(ThreadPool, ZeroAndOneThreadRunInline) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}}) {
    ThreadPool pool(n);
    EXPECT_EQ(pool.thread_count(), 1u);
    const std::thread::id caller = std::this_thread::get_id();
    auto f = pool.submit([caller] { return std::this_thread::get_id() == caller; });
    EXPECT_TRUE(f.get());  // ran on the submitting thread
    // Exceptions still arrive via the future, not at the submit site.
    auto g = pool.submit([] { throw std::runtime_error("inline"); });
    EXPECT_THROW(g.get(), std::runtime_error);
    int sum = 0;
    pool.for_each_index(5, [&sum](std::size_t i) { sum += static_cast<int>(i); });
    EXPECT_EQ(sum, 10);
  }
}

TEST(ThreadPool, ForEachIndexZeroIsNoop) {
  ThreadPool pool(2);
  pool.for_each_index(0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, EnvThreadCountHonorsOverride) {
  ASSERT_EQ(setenv("ENTRACE_THREADS", "3", 1), 0);
  EXPECT_EQ(ThreadPool::env_thread_count(), 3u);
  ASSERT_EQ(setenv("ENTRACE_THREADS", "garbage", 1), 0);
  EXPECT_GE(ThreadPool::env_thread_count(), 1u);  // falls back
  ASSERT_EQ(unsetenv("ENTRACE_THREADS"), 0);
  EXPECT_GE(ThreadPool::env_thread_count(), 1u);
}

// ---- merge primitives -------------------------------------------------------

// One (source, destination) contact stream, cut into per-trace shards.
// Each shard's detector merges, in shard order, into a fresh one; a serial
// detector observes the whole stream.
struct ScannerCase {
  const char* name;
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> shards;
};

ScannerDetector observe_all(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& contacts) {
  ScannerDetector det;
  for (const auto& [src, dst] : contacts) det.observe(Ipv4Address(src), Ipv4Address(dst));
  return det;
}

void expect_same_observations(const std::vector<ScannerDetector::SourceObservations>& got,
                              const std::vector<ScannerDetector::SourceObservations>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].source, want[i].source) << "source " << i;
    EXPECT_EQ(got[i].order, want[i].order) << "order of source " << want[i].source;
    EXPECT_EQ(got[i].extra_seen, want[i].extra_seen) << "extra_seen of source " << want[i].source;
  }
}

// Export -> import into a fresh detector -> export must be the identity.
void expect_round_trip(const ScannerDetector& det) {
  ScannerDetector copy;
  for (const auto& obs : det.export_observations()) copy.import_source(obs);
  expect_same_observations(copy.export_observations(), det.export_observations());
  EXPECT_EQ(copy.scanners(), det.scanners());
}

std::vector<ScannerCase> scanner_cases() {
  constexpr std::uint32_t kNet = 0x80030000;  // 128.3.0.0
  std::vector<ScannerCase> cases;

  // One source sweeping 128.3.1.1..120 ascending over two shards, and a
  // benign one contacting ten of the same hosts.
  {
    ScannerCase c{"two-shard sweep", {{}, {}}};
    const std::uint32_t scanner = 0x0A000007, benign = 0x0A000008;
    for (std::uint32_t i = 1; i <= 120; ++i) {
      c.shards[i <= 60 ? 0 : 1].push_back({scanner, kNet + 0x100 + i});
      if (i <= 10) c.shards[0].push_back({benign, kNet + 0x100 + i});
    }
    cases.push_back(std::move(c));
  }
  // One source, 5,000 distinct ascending destinations: past the
  // 4,096-entry first-contact cap.
  {
    ScannerCase c{"past the cap, alone", {{}}};
    for (std::uint32_t i = 0; i < 5000; ++i) c.shards[0].push_back({0x0A000001, kNet + i});
    cases.push_back(std::move(c));
  }
  // The same source over three shards: the second repeats half of the
  // first before adding new destinations, and the third (descending from
  // above) passes the cap on its own.
  {
    ScannerCase c{"past the cap, three shards", {{}, {}, {}}};
    for (std::uint32_t i = 0; i < 2000; ++i) c.shards[0].push_back({0x0A000001, kNet + i});
    for (std::uint32_t i = 1000; i < 3000; ++i) c.shards[1].push_back({0x0A000001, kNet + i});
    for (std::uint32_t i = 6000; i-- > 1500;) c.shards[2].push_back({0x0A000001, kNet + i});
    cases.push_back(std::move(c));
  }
  // 2,000 sources, each contacting the same 60 destinations (ascending for
  // even sources, shuffled for odd ones) with repeats, cut into 8 shards.
  {
    ScannerCase c{"2,000 sources over 8 shards", {}};
    std::vector<std::uint32_t> shuffled(60);
    std::iota(shuffled.begin(), shuffled.end(), 0u);
    Rng rng(7);
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.uniform_int(0, i - 1)]);
    }
    std::vector<std::pair<std::uint32_t, std::uint32_t>> stream;
    for (std::uint32_t round = 0; round < 60; ++round) {
      for (std::uint32_t s = 0; s < 2000; ++s) {
        const std::uint32_t src = 0x0A010000 + s;
        const std::uint32_t d = s % 2 == 0 ? round : shuffled[round];
        stream.push_back({src, kNet + 0x200 + d});
        if (round > 0 && s % 3 == 0) stream.push_back({src, kNet + 0x200 + (d + 59) % 60});
      }
    }
    c.shards.resize(8);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      c.shards[i * 8 / stream.size()].push_back(stream[i]);
    }
    cases.push_back(std::move(c));
  }
  // The all-zeros and all-ones pairs: no key value may stand for "empty".
  cases.push_back({"all-zeros and all-ones pairs",
                   {{{0u, 0u}, {0xFFFFFFFFu, 0xFFFFFFFFu}},
                    {{0xFFFFFFFFu, 0xFFFFFFFFu}, {0u, 0xFFFFFFFFu}, {0u, 0u}}}});
  return cases;
}

TEST(MergePrimitives, ScannerDetectorShardedEqualsSerial) {
  // Per-trace detectors merged in trace order must export exactly what one
  // serial detector exports, field for field, and every export must survive
  // an import unchanged.
  for (const ScannerCase& c : scanner_cases()) {
    SCOPED_TRACE(c.name);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> all;
    ScannerDetector merged;
    for (const auto& contacts : c.shards) {
      all.insert(all.end(), contacts.begin(), contacts.end());
      const ScannerDetector shard = observe_all(contacts);
      expect_round_trip(shard);
      merged.merge(shard);
    }
    const ScannerDetector serial = observe_all(all);
    expect_same_observations(merged.export_observations(), serial.export_observations());
    EXPECT_EQ(merged.scanners(), serial.scanners());
    expect_round_trip(serial);
    expect_round_trip(merged);
  }
}

TEST(MergePrimitives, ScannerDetectorCapsFirstContactOrder) {
  const auto cases = scanner_cases();
  const ScannerDetector det = observe_all(cases[1].shards[0]);
  const auto obs = det.export_observations();
  ASSERT_EQ(obs.size(), 1u);
  ASSERT_EQ(obs[0].order.size(), 4096u);
  ASSERT_EQ(obs[0].extra_seen.size(), 904u);
  for (std::uint32_t i = 0; i < 4096; ++i) EXPECT_EQ(obs[0].order[i], 0x80030000 + i);
  for (std::uint32_t i = 0; i < 904; ++i) EXPECT_EQ(obs[0].extra_seen[i], 0x80031000 + i);
  EXPECT_EQ(det.scanners().count(Ipv4Address(0x0A000001)), 1u);

  // The merged two-shard sweep flags its scanner and not the benign source.
  ScannerDetector sweep;
  for (const auto& contacts : cases[0].shards) sweep.merge(observe_all(contacts));
  const std::set<Ipv4Address> flagged = sweep.scanners();
  EXPECT_EQ(flagged.count(Ipv4Address(0x0A000007)), 1u);
  EXPECT_EQ(flagged.count(Ipv4Address(0x0A000008)), 0u);
}

TEST(MergePrimitives, IntervalSeriesMergeSumsBins) {
  IntervalSeries a, b;
  a.add(0.5, 10.0);
  a.add(2.5, 20.0);
  b.add(1.5, 5.0);
  b.add(4.5, 1.0);
  a.merge(b);
  const std::map<std::int64_t, double> expected{{0, 10.0}, {1, 5.0}, {2, 20.0}, {4, 1.0}};
  EXPECT_EQ(a.bins(), expected);
}

// ---- determinism across thread counts ---------------------------------------

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  static DatasetAnalysis run(std::size_t threads) {
    EnterpriseModel model;
    DatasetSpec spec = dataset_d3(0.008);
    spec.monitored_subnets = {4, 5, 15, 16, 20};
    const TraceSet traces = generate_dataset(spec, model);
    AnalyzerConfig config = default_config_for_model(model.site());
    config.threads = threads;
    return analyze_dataset(traces, config);
  }
};

TEST_F(ParallelDeterminismTest, OneAndFourThreadsProduceIdenticalResults) {
  const DatasetAnalysis a = run(1);
  const DatasetAnalysis b = run(4);

  // Packet tallies and breakdowns.
  ASSERT_GT(a.total_packets, 10000u);
  EXPECT_EQ(a.total_packets, b.total_packets);
  EXPECT_EQ(a.total_wire_bytes, b.total_wire_bytes);
  EXPECT_EQ(a.l3.total, b.l3.total);
  EXPECT_EQ(a.l3.ip, b.l3.ip);
  EXPECT_EQ(a.l3.arp, b.l3.arp);
  EXPECT_EQ(a.l3.ipx, b.l3.ipx);
  EXPECT_EQ(a.l3.other, b.l3.other);

  // Host sets.
  EXPECT_EQ(a.monitored_hosts, b.monitored_hosts);
  EXPECT_EQ(a.lbnl_hosts, b.lbnl_hosts);
  EXPECT_EQ(a.remote_hosts, b.remote_hosts);

  // Scanner identification and removal.
  EXPECT_EQ(a.scanners, b.scanners);
  EXPECT_EQ(a.scanner_conns_removed, b.scanner_conns_removed);

  // Connection lists: same size, same order, same content.
  ASSERT_EQ(a.all_connections.size(), b.all_connections.size());
  ASSERT_EQ(a.connections.size(), b.connections.size());
  ASSERT_GT(a.connections.size(), 500u);
  for (std::size_t i = 0; i < a.connections.size(); ++i) {
    const Connection& ca = *a.connections[i];
    const Connection& cb = *b.connections[i];
    ASSERT_EQ(ca.key, cb.key) << "connection " << i;
    EXPECT_EQ(ca.total_bytes(), cb.total_bytes()) << "connection " << i;
    EXPECT_EQ(ca.app_id, cb.app_id) << "connection " << i;
  }

  // Application events: same counts per protocol, same order (spot-check
  // HTTP transactions field by field).
  EXPECT_EQ(a.events.total(), b.events.total());
  EXPECT_EQ(a.events.http.size(), b.events.http.size());
  EXPECT_EQ(a.events.smtp, b.events.smtp);
  EXPECT_EQ(a.events.dns.size(), b.events.dns.size());
  EXPECT_EQ(a.events.nbns.size(), b.events.nbns.size());
  EXPECT_EQ(a.events.nbss.size(), b.events.nbss.size());
  EXPECT_EQ(a.events.cifs.size(), b.events.cifs.size());
  EXPECT_EQ(a.events.dcerpc.size(), b.events.dcerpc.size());
  EXPECT_EQ(a.events.epm, b.events.epm);
  EXPECT_EQ(a.events.nfs.size(), b.events.nfs.size());
  EXPECT_EQ(a.events.ncp.size(), b.events.ncp.size());
  for (std::size_t i = 0; i < a.events.http.size(); ++i) {
    EXPECT_EQ(a.events.http[i].user_agent, b.events.http[i].user_agent);
    EXPECT_EQ(a.events.http[i].status, b.events.http[i].status);
    EXPECT_EQ(a.events.http[i].resp_body_len, b.events.http[i].resp_body_len);
  }

  // Load shards (§6), per trace in order.
  ASSERT_EQ(a.load_raw.size(), b.load_raw.size());
  for (std::size_t i = 0; i < a.load_raw.size(); ++i) {
    EXPECT_EQ(a.load_raw[i].trace_name, b.load_raw[i].trace_name);
    EXPECT_EQ(a.load_raw[i].ent_tcp_pkts, b.load_raw[i].ent_tcp_pkts);
    EXPECT_EQ(a.load_raw[i].ent_retx, b.load_raw[i].ent_retx);
    EXPECT_EQ(a.load_raw[i].wan_tcp_pkts, b.load_raw[i].wan_tcp_pkts);
    EXPECT_EQ(a.load_raw[i].wan_retx, b.load_raw[i].wan_retx);
    EXPECT_EQ(a.load_raw[i].keepalive_excluded, b.load_raw[i].keepalive_excluded);
    EXPECT_EQ(a.load_raw[i].bits_1s.bins(), b.load_raw[i].bits_1s.bins());
  }
}

TEST_F(ParallelDeterminismTest, EnvOverrideIsPickedUpByAutoConfig) {
  ASSERT_EQ(setenv("ENTRACE_THREADS", "2", 1), 0);
  const DatasetAnalysis a = run(0);  // auto: reads ENTRACE_THREADS=2
  ASSERT_EQ(unsetenv("ENTRACE_THREADS"), 0);
  const DatasetAnalysis b = run(1);
  EXPECT_EQ(a.total_packets, b.total_packets);
  EXPECT_EQ(a.connections.size(), b.connections.size());
  EXPECT_EQ(a.events.total(), b.events.total());
  EXPECT_EQ(a.scanners, b.scanners);
}

}  // namespace
}  // namespace entrace
