// Tests for breakdowns (Tables 2-3, Figure 1), origins and fan analysis
// (§4, and Figure 3's HTTP fan-out), and host-pair outcome accounting (§5).
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <random>
#include <set>

#include "analysis/breakdown.h"
#include "analysis/host_pair.h"
#include "analysis/http_analysis.h"
#include "analysis/locality.h"
#include "net/headers.h"
#include "proto/registry.h"

namespace entrace {
namespace {

SiteConfig test_site() {
  SiteConfig site;
  site.enterprise_block = Subnet(Ipv4Address(128, 3, 0, 0), 16);
  for (int i = 0; i < 4; ++i)
    site.subnets.push_back(Subnet(Ipv4Address(128, 3, static_cast<std::uint8_t>(i + 1), 0), 24));
  return site;
}

Connection conn(Ipv4Address src, Ipv4Address dst, std::uint8_t proto, std::uint16_t dport,
                std::uint64_t orig_bytes, std::uint64_t resp_bytes,
                AppProtocol app = AppProtocol::kUnknown,
                ConnState state = ConnState::kEstablished) {
  Connection c;
  c.key = {src, dst, 40000, dport, proto};
  c.orig_bytes = orig_bytes;
  c.resp_bytes = resp_bytes;
  c.orig_pkts = 1 + orig_bytes / 1000;
  c.resp_pkts = 1 + resp_bytes / 1000;
  c.state = state;
  c.app_id = static_cast<std::uint16_t>(app);
  c.multicast = dst.is_multicast() || dst.is_broadcast();
  return c;
}

const Ipv4Address kA(128, 3, 1, 10);
const Ipv4Address kB(128, 3, 2, 10);
const Ipv4Address kC(128, 3, 3, 10);
const Ipv4Address kExt(66, 1, 2, 3);

TEST(NetworkLayer, FractionsMatchTable2Semantics) {
  NetworkLayerBreakdown b;
  for (int i = 0; i < 96; ++i) b.add(L3Kind::kIpv4);
  for (int i = 0; i < 3; ++i) b.add(L3Kind::kIpx);
  b.add(L3Kind::kArp);
  EXPECT_DOUBLE_EQ(b.ip_fraction(), 0.96);
  EXPECT_DOUBLE_EQ(b.non_ip_fraction(), 0.04);
  EXPECT_DOUBLE_EQ(b.ipx_of_non_ip(), 0.75);
  EXPECT_DOUBLE_EQ(b.arp_of_non_ip(), 0.25);
  EXPECT_DOUBLE_EQ(b.other_of_non_ip(), 0.0);
}

TEST(Transport, BytesAndConnsFractions) {
  std::vector<Connection> conns;
  conns.push_back(conn(kA, kB, ipproto::kTcp, 80, 1000, 9000));
  conns.push_back(conn(kA, kB, ipproto::kUdp, 53, 50, 150));
  conns.push_back(conn(kA, kB, ipproto::kUdp, 137, 60, 40));
  conns.push_back(conn(kA, kB, ipproto::kIcmp, 0, 56, 56));
  std::vector<const Connection*> ptrs;
  for (auto& c : conns) ptrs.push_back(&c);
  const auto tb = TransportBreakdown::compute(ptrs);
  EXPECT_EQ(tb.conns, 4u);
  EXPECT_DOUBLE_EQ(tb.conn_fraction(ipproto::kUdp), 0.5);
  EXPECT_DOUBLE_EQ(tb.conn_fraction(ipproto::kTcp), 0.25);
  EXPECT_GT(tb.byte_fraction(ipproto::kTcp), 0.9);
}

TEST(AppBreakdown, CategoriesAndLocality) {
  std::vector<Connection> conns;
  conns.push_back(conn(kA, kB, ipproto::kTcp, 80, 500, 5000, AppProtocol::kHttp));   // ent web
  conns.push_back(conn(kA, kExt, ipproto::kTcp, 80, 500, 8000, AppProtocol::kHttp)); // wan web
  conns.push_back(conn(kA, kB, ipproto::kUdp, 53, 60, 120, AppProtocol::kDns));      // ent name
  conns.push_back(conn(kA, kB, ipproto::kTcp, 9999, 10, 10));                        // other-tcp
  conns.push_back(conn(kA, kB, ipproto::kUdp, 8888, 10, 10));                        // other-udp
  conns.push_back(
      conn(kA, Ipv4Address(239, 1, 1, 1), ipproto::kUdp, 5004, 100000, 0, AppProtocol::kIpVideo));
  std::vector<const Connection*> ptrs;
  for (auto& c : conns) ptrs.push_back(&c);
  const SiteConfig site = test_site();
  const auto b = AppCategoryBreakdown::compute(ptrs, site);

  EXPECT_EQ(b.unicast[static_cast<std::size_t>(AppCategory::kWeb)][0].conns, 1u);
  EXPECT_EQ(b.unicast[static_cast<std::size_t>(AppCategory::kWeb)][1].conns, 1u);
  EXPECT_EQ(b.unicast[static_cast<std::size_t>(AppCategory::kName)][0].conns, 1u);
  EXPECT_EQ(b.unicast[static_cast<std::size_t>(AppCategory::kOtherTcp)][0].conns, 1u);
  EXPECT_EQ(b.unicast[static_cast<std::size_t>(AppCategory::kOtherUdp)][0].conns, 1u);
  // Multicast streaming tracked separately and dominates total bytes.
  EXPECT_EQ(b.multicast[static_cast<std::size_t>(AppCategory::kStreaming)].conns, 1u);
  EXPECT_GT(b.multicast_byte_fraction(AppCategory::kStreaming), 0.8);
  EXPECT_EQ(b.total_unicast_conns, 5u);
}

TEST(Origins, ClassesSumToTotal) {
  std::vector<Connection> conns;
  for (int i = 0; i < 75; ++i) conns.push_back(conn(kA, kB, ipproto::kUdp, 53, 1, 1));
  for (int i = 0; i < 3; ++i) conns.push_back(conn(kA, kExt, ipproto::kTcp, 80, 1, 1));
  for (int i = 0; i < 8; ++i) conns.push_back(conn(kExt, kB, ipproto::kTcp, 25, 1, 1));
  for (int i = 0; i < 9; ++i)
    conns.push_back(conn(kA, Ipv4Address(239, 1, 1, 1), ipproto::kUdp, 9875, 1, 0));
  for (int i = 0; i < 5; ++i)
    conns.push_back(conn(kExt, Ipv4Address(239, 1, 1, 2), ipproto::kUdp, 9875, 1, 0));
  std::vector<const Connection*> ptrs;
  for (auto& c : conns) ptrs.push_back(&c);
  const auto ob = OriginBreakdown::compute(ptrs, test_site());
  EXPECT_EQ(ob.total, 100u);
  EXPECT_EQ(ob.ent_to_ent, 75u);
  EXPECT_EQ(ob.ent_to_wan, 3u);
  EXPECT_EQ(ob.wan_to_ent, 8u);
  EXPECT_EQ(ob.multicast_ent_src, 9u);
  EXPECT_EQ(ob.multicast_wan_src, 5u);
  EXPECT_DOUBLE_EQ(ob.fraction(ob.ent_to_ent), 0.75);
}

TEST(Fan, CountsDistinctPeersBySide) {
  std::vector<Connection> conns;
  // kA originates to kB, kC, and an external host (twice — dedup).
  conns.push_back(conn(kA, kB, ipproto::kTcp, 80, 1, 1));
  conns.push_back(conn(kA, kC, ipproto::kTcp, 80, 1, 1));
  conns.push_back(conn(kA, kExt, ipproto::kTcp, 80, 1, 1));
  conns.push_back(conn(kA, kExt, ipproto::kTcp, 443, 1, 1));
  // kB receives from kC.
  conns.push_back(conn(kC, kB, ipproto::kTcp, 22, 1, 1));
  std::vector<const Connection*> ptrs;
  for (auto& c : conns) ptrs.push_back(&c);
  const SiteConfig site = test_site();
  const auto fan =
      compute_fan(ptrs, site, [&site](Ipv4Address h) { return site.is_internal(h); });
  // kA fan-out: 2 internal peers, 1 wan peer.
  EXPECT_EQ(fan.fan_out_ent.count(), 2u);  // kA and kC have internal fan-out
  EXPECT_DOUBLE_EQ(fan.fan_out_ent.max(), 2.0);
  EXPECT_EQ(fan.fan_out_wan.count(), 1u);
  EXPECT_DOUBLE_EQ(fan.fan_out_wan.max(), 1.0);
  // fan-in: kB has 2 internal originators (kA, kC); kC has 1 (kA).
  EXPECT_EQ(fan.fan_in_ent.count(), 2u);  // kB and kC (kExt is not monitored)
  EXPECT_DOUBLE_EQ(fan.fan_in_ent.max(), 2.0);
  // kC's only peers are internal.
  EXPECT_GT(fan.only_internal_fan_out, 0.0);
}

// Figure 3's HTTP fan-out counts distinct servers per client over the
// transactions of normal clients: an automated client's servers and a
// repeated visit do not count.
TEST(Fan, AppFanOutSelectsApp) {
  std::vector<Connection> conns;
  conns.push_back(conn(kA, kB, ipproto::kTcp, 80, 1, 1, AppProtocol::kHttp));
  conns.push_back(conn(kA, kExt, ipproto::kTcp, 80, 1, 1, AppProtocol::kHttp));
  conns.push_back(conn(kA, Ipv4Address(77, 1, 1, 1), ipproto::kTcp, 80, 1, 1,
                       AppProtocol::kHttp));
  conns.push_back(conn(kA, kC, ipproto::kTcp, 80, 1, 1, AppProtocol::kHttp));
  std::vector<HttpTransaction> txns;
  for (const Connection& c : conns) {
    HttpTransaction txn;
    txn.src = c.key.src;
    txn.dst = c.key.dst;
    txn.user_agent = "Mozilla/4.0";
    txns.push_back(txn);
  }
  txns[3].user_agent = "Internal-Scanner/1.0";
  txns.push_back(txns[1]);
  std::vector<const Connection*> ptrs;
  for (auto& c : conns) ptrs.push_back(&c);
  const auto fan = HttpAnalysis::compute(txns, ptrs, test_site()).fanout;
  EXPECT_EQ(fan.ent.count(), 1u);
  EXPECT_DOUBLE_EQ(fan.ent.max(), 1.0);
  EXPECT_EQ(fan.wan.count(), 1u);
  EXPECT_DOUBLE_EQ(fan.wan.max(), 2.0);
}

// ---- sorted-run peer counts against a node-based reference ---------------

// Distinct peers per host and side in std::set, the way Figures 2 and 3
// were first counted.
class ReferencePeers {
 public:
  void add(Ipv4Address host, bool wan, Ipv4Address peer) {
    peers_[host.value()][wan ? 1 : 0].insert(peer.value());
  }
  // Fills the CDFs in host order; returns the only-internal fraction.
  double fill(EmpiricalCdf& ent, EmpiricalCdf& wan) const {
    std::size_t only_internal = 0;
    for (const auto& [host, sides] : peers_) {
      if (!sides[0].empty()) ent.add(static_cast<double>(sides[0].size()));
      if (!sides[1].empty()) wan.add(static_cast<double>(sides[1].size()));
      if (!sides[0].empty() && sides[1].empty()) ++only_internal;
    }
    return peers_.empty() ? 0.0
                          : static_cast<double>(only_internal) /
                                static_cast<double>(peers_.size());
  }

 private:
  std::map<std::uint32_t, std::array<std::set<std::uint32_t>, 2>> peers_;
};

// Seeded random traffic over small address pools, so pairs repeat.  It
// mixes enterprise hosts on two monitored subnets (a connection between
// them is monitored at both ends), enterprise hosts on unmonitored
// subnets, WAN hosts, multicast groups, and enterprise hosts that only
// ever talk to the WAN or only to the enterprise.
std::vector<Connection> random_conns(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&rng](std::uint32_t n) {
    return static_cast<std::uint8_t>(std::uniform_int_distribution<std::uint32_t>(0, n - 1)(rng));
  };
  auto internal = [&]() { return Ipv4Address(128, 3, pick(4) + 1, pick(12) + 1); };
  auto wan = [&]() { return Ipv4Address(66, pick(3), 2, pick(15) + 1); };
  auto wan_only = [&]() { return Ipv4Address(128, 3, pick(2) + 1, pick(4) + 200); };
  auto internal_only = [&]() { return Ipv4Address(128, 3, pick(2) + 1, pick(4) + 100); };
  std::vector<Connection> conns;
  for (int i = 0; i < 2000; ++i) {
    Ipv4Address src;
    Ipv4Address dst;
    switch (pick(8)) {
      case 0: src = internal(); dst = internal(); break;
      case 1: src = internal(); dst = wan(); break;
      case 2: src = wan(); dst = internal(); break;
      case 3: src = internal(); dst = Ipv4Address(239, 1, 1, pick(3)); break;
      case 4: src = wan_only(); dst = wan(); break;
      case 5: src = wan(); dst = wan_only(); break;
      case 6: src = internal_only(); dst = internal(); break;
      default: src = internal(); dst = internal_only(); break;
    }
    conns.push_back(conn(src, dst, ipproto::kTcp, 80, 1, 1, AppProtocol::kHttp));
  }
  return conns;
}

TEST(Fan, SortedRunsMatchNodeBasedReference) {
  const SiteConfig site = test_site();
  // Subnets 1 and 2 are monitored; 3 and 4, and the WAN, are not.
  const auto monitored = [&site](Ipv4Address h) {
    return site.subnets[0].contains(h) || site.subnets[1].contains(h);
  };
  for (const std::uint64_t seed : {1, 2, 3, 4, 5}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const std::vector<Connection> conns = random_conns(seed);
    std::vector<const Connection*> ptrs;
    for (const Connection& c : conns) ptrs.push_back(&c);

    ReferencePeers in;
    ReferencePeers out;
    for (const Connection* c : ptrs) {
      if (c->multicast) continue;
      if (monitored(c->key.src)) out.add(c->key.src, !site.is_internal(c->key.dst), c->key.dst);
      if (monitored(c->key.dst)) in.add(c->key.dst, !site.is_internal(c->key.src), c->key.src);
    }
    FanResult want;
    want.only_internal_fan_in = in.fill(want.fan_in_ent, want.fan_in_wan);
    want.only_internal_fan_out = out.fill(want.fan_out_ent, want.fan_out_wan);

    const FanResult got = compute_fan(ptrs, site, monitored);
    EXPECT_EQ(got.fan_in_ent.sorted(), want.fan_in_ent.sorted());
    EXPECT_EQ(got.fan_in_wan.sorted(), want.fan_in_wan.sorted());
    EXPECT_EQ(got.fan_out_ent.sorted(), want.fan_out_ent.sorted());
    EXPECT_EQ(got.fan_out_wan.sorted(), want.fan_out_wan.sorted());
    EXPECT_EQ(got.only_internal_fan_in, want.only_internal_fan_in);
    EXPECT_EQ(got.only_internal_fan_out, want.only_internal_fan_out);
    // The traffic exercises both sides and the only-internal split.
    EXPECT_GT(want.fan_out_wan.count(), 0u);
    EXPECT_GT(want.only_internal_fan_in, 0.0);
    EXPECT_LT(want.only_internal_fan_in, 1.0);
    EXPECT_GT(want.only_internal_fan_out, 0.0);
    EXPECT_LT(want.only_internal_fan_out, 1.0);
  }
}

TEST(Fan, HttpFanOutMatchesNodeBasedReference) {
  const SiteConfig site = test_site();
  for (const std::uint64_t seed : {11, 12, 13}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const std::vector<Connection> conns = random_conns(seed);
    std::vector<const Connection*> ptrs;
    for (const Connection& c : conns) ptrs.push_back(&c);
    std::mt19937_64 rng(seed);
    std::vector<HttpTransaction> txns;
    ReferencePeers servers;
    for (int i = 0; i < 3000; ++i) {
      HttpTransaction txn;
      const Connection& c = conns[rng() % conns.size()];
      txn.src = c.key.src;
      txn.dst = c.key.dst;
      switch (rng() % 8) {
        case 0: txn.user_agent = "Scanner"; break;
        case 1: txn.user_agent = "Googlebot/2.1"; break;
        default: txn.user_agent = "Mozilla/5.0"; break;
      }
      if (classify_http_client(txn) == HttpClientKind::kNormal) {
        servers.add(txn.src, !site.is_internal(txn.dst), txn.dst);
      }
      txns.push_back(txn);
    }
    FanOutPair want;
    servers.fill(want.ent, want.wan);
    const FanOutPair got = HttpAnalysis::compute(txns, ptrs, site).fanout;
    EXPECT_EQ(got.ent.sorted(), want.ent.sorted());
    EXPECT_EQ(got.wan.sorted(), want.wan.sorted());
    EXPECT_GT(want.ent.count(), 0u);
    EXPECT_GT(want.wan.count(), 0u);
  }
}

TEST(HostPair, DominantOutcomeWins) {
  std::vector<Connection> conns;
  // Pair 1: one success + one reject -> successful (retry worked).
  conns.push_back(conn(kA, kB, ipproto::kTcp, 445, 1, 1, AppProtocol::kCifs,
                       ConnState::kEstablished));
  conns.push_back(
      conn(kA, kB, ipproto::kTcp, 445, 0, 0, AppProtocol::kCifs, ConnState::kRejected));
  // Pair 2: endlessly retried rejects count once.
  for (int i = 0; i < 50; ++i) {
    conns.push_back(
        conn(kA, kC, ipproto::kTcp, 445, 0, 0, AppProtocol::kCifs, ConnState::kRejected));
  }
  // Pair 3: unanswered.
  conns.push_back(
      conn(kB, kC, ipproto::kTcp, 445, 0, 0, AppProtocol::kCifs, ConnState::kUnanswered));
  std::vector<const Connection*> ptrs;
  for (auto& c : conns) ptrs.push_back(&c);
  const auto outcomes =
      HostPairOutcomes::compute(ptrs, [](const Connection&) { return true; });
  EXPECT_EQ(outcomes.pairs, 3u);
  EXPECT_EQ(outcomes.successful, 1u);
  EXPECT_EQ(outcomes.rejected, 1u);
  EXPECT_EQ(outcomes.unanswered, 1u);
  EXPECT_NEAR(outcomes.success_rate(), 1.0 / 3.0, 1e-9);
}

}  // namespace
}  // namespace entrace
