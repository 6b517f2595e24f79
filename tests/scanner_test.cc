// Tests for the §3 scanner-identification heuristic.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "analysis/scanner.h"
#include "core/analyzer.h"
#include "util/rng.h"

namespace entrace {
namespace {

Ipv4Address addr(std::uint32_t v) { return Ipv4Address(v); }

TEST(Scanner, AscendingSweepDetected) {
  ScannerDetector det;
  const Ipv4Address scanner(0x0A000001);
  for (std::uint32_t i = 0; i < 60; ++i) det.observe(scanner, addr(0x80030000 + i));
  EXPECT_EQ(det.scanners().count(scanner), 1u);
}

TEST(Scanner, DescendingSweepDetected) {
  ScannerDetector det;
  const Ipv4Address scanner(0x0A000002);
  for (std::uint32_t i = 0; i < 60; ++i) det.observe(scanner, addr(0x80030100 - i));
  EXPECT_EQ(det.scanners().count(scanner), 1u);
}

TEST(Scanner, FiftyHostsIsNotEnough) {
  ScannerDetector det;
  const Ipv4Address src(0x0A000003);
  for (std::uint32_t i = 0; i < 50; ++i) det.observe(src, addr(0x80030000 + i));
  // "more than 50 distinct hosts" — exactly 50 must not trigger.
  EXPECT_EQ(det.scanners().count(src), 0u);
}

TEST(Scanner, RandomOrderNotDetected) {
  ScannerDetector det;
  const Ipv4Address src(0x0A000004);
  Rng rng(99);
  for (int i = 0; i < 300; ++i) {
    det.observe(src, addr(0x80030000 + static_cast<std::uint32_t>(rng.uniform_int(0, 5000))));
  }
  EXPECT_EQ(det.scanners().count(src), 0u);
}

TEST(Scanner, BusyServerWithManyClientsNotDetected) {
  ScannerDetector det;
  // A server *receiving* from many hosts should not flag the clients.
  const Ipv4Address server(0x80030202);
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const Ipv4Address client(0x80030000 + static_cast<std::uint32_t>(rng.uniform_int(0, 255) +
                                                                     (rng.uniform_int(0, 20)
                                                                      << 8)));
    det.observe(client, server);
  }
  const auto scanners = det.scanners();
  EXPECT_TRUE(scanners.empty());
}

TEST(Scanner, OrderedRunInterruptedResetsCount) {
  ScannerDetector det;
  const Ipv4Address src(0x0A000005);
  // Runs of 30 ascending, then a reset, never reaching 45 in a row.
  std::uint32_t base = 0x80030000;
  for (int run = 0; run < 5; ++run) {
    for (std::uint32_t i = 0; i < 30; ++i) det.observe(src, addr(base + i));
    base += 0x1000;
    det.observe(src, addr(0x80020000 + static_cast<std::uint32_t>(run)));  // direction break
  }
  EXPECT_EQ(det.scanners().count(src), 0u);
}

// The site's known internal scanners come from the fold's SiteConfig, not
// from any shard: fold_shards flags them even when no trace saw them.
TEST(Scanner, KnownScannersAlwaysIncluded) {
  const Ipv4Address known(0x80030C02);
  AnalyzerConfig config;
  config.site.known_scanners = {known};
  std::vector<TraceShard> shards(2);
  shards[0].detector.observe(Ipv4Address(0x0A000001), Ipv4Address(0x0A000002));
  const DatasetAnalysis folded = fold_shards("known", std::move(shards), config);
  EXPECT_EQ(folded.scanners, std::set<Ipv4Address>{known});
}

TEST(Scanner, DuplicateContactsDoNotInflate) {
  ScannerDetector det;
  const Ipv4Address src(0x0A000006);
  // Contact the same 40 hosts many times, ascending each sweep.
  for (int sweep = 0; sweep < 10; ++sweep) {
    for (std::uint32_t i = 0; i < 40; ++i) det.observe(src, addr(0x80030000 + i));
  }
  EXPECT_EQ(det.scanners().count(src), 0u);  // still only 40 distinct hosts
}

// The paper's thresholds at their boundary: 51 distinct destinations (more
// than 50), of which the first `run` ascend and the rest zigzag below them.
bool sweep_with_run_is_scanner(std::size_t run) {
  ScannerDetector det;
  const Ipv4Address src(0x0A000007);
  const std::uint32_t base = 0x80030000;
  for (std::uint32_t i = 0; i < run; ++i) det.observe(src, addr(base + i));
  // Below the run, alternating down and up: every later run is 2 long.
  for (std::uint32_t i = 0; i < 51 - run; ++i) {
    det.observe(src, addr(base - (i % 2 == 0 ? 100 - i : 50 - i)));
  }
  return det.scanners().count(src) > 0;
}

TEST(Scanner, OrderedRunOf45AmongFiftyOneHostsIsTheThreshold) {
  EXPECT_FALSE(sweep_with_run_is_scanner(44));
  EXPECT_TRUE(sweep_with_run_is_scanner(45));
}

}  // namespace
}  // namespace entrace
