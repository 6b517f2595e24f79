// Tests for application identification and category mapping (Table 4).
#include <gtest/gtest.h>

#include "net/headers.h"
#include "proto/registry.h"

namespace entrace {
namespace {

Connection make_conn(std::uint8_t proto, std::uint16_t sport, std::uint16_t dport) {
  Connection c;
  c.key = {Ipv4Address(128, 3, 1, 10), Ipv4Address(128, 3, 2, 10), sport, dport, proto};
  return c;
}

TEST(Registry, WellKnownPorts) {
  AppRegistry reg;
  EXPECT_EQ(reg.identify(make_conn(ipproto::kTcp, 40000, 80)), AppProtocol::kHttp);
  EXPECT_EQ(reg.identify(make_conn(ipproto::kTcp, 40000, 443)), AppProtocol::kHttps);
  EXPECT_EQ(reg.identify(make_conn(ipproto::kTcp, 40000, 25)), AppProtocol::kSmtp);
  EXPECT_EQ(reg.identify(make_conn(ipproto::kTcp, 40000, 993)), AppProtocol::kImapS);
  EXPECT_EQ(reg.identify(make_conn(ipproto::kUdp, 40000, 53)), AppProtocol::kDns);
  EXPECT_EQ(reg.identify(make_conn(ipproto::kUdp, 40000, 137)), AppProtocol::kNetbiosNs);
  EXPECT_EQ(reg.identify(make_conn(ipproto::kTcp, 40000, 139)), AppProtocol::kNetbiosSsn);
  EXPECT_EQ(reg.identify(make_conn(ipproto::kTcp, 40000, 445)), AppProtocol::kCifs);
  EXPECT_EQ(reg.identify(make_conn(ipproto::kTcp, 40000, 135)), AppProtocol::kEndpointMapper);
  EXPECT_EQ(reg.identify(make_conn(ipproto::kUdp, 40000, 2049)), AppProtocol::kNfs);
  EXPECT_EQ(reg.identify(make_conn(ipproto::kTcp, 40000, 524)), AppProtocol::kNcp);
  EXPECT_EQ(reg.identify(make_conn(ipproto::kTcp, 40000, 497)), AppProtocol::kDantz);
  EXPECT_EQ(reg.identify(make_conn(ipproto::kTcp, 40000, 22)), AppProtocol::kSsh);
  EXPECT_EQ(reg.identify(make_conn(ipproto::kUdp, 40000, 123)), AppProtocol::kNtp);
}

TEST(Registry, SourcePortFallback) {
  AppRegistry reg;
  // FTP data connections originate from port 20.
  EXPECT_EQ(reg.identify(make_conn(ipproto::kTcp, 20, 45000)), AppProtocol::kFtpData);
}

TEST(Registry, UnknownPortsAreUnknown) {
  AppRegistry reg;
  EXPECT_EQ(reg.identify(make_conn(ipproto::kTcp, 40000, 34567)), AppProtocol::kUnknown);
  EXPECT_EQ(reg.identify(make_conn(ipproto::kIcmp, 0, 0)), AppProtocol::kUnknown);
}

TEST(Registry, TcpOnlyPortsNotMatchedOnUdp) {
  AppRegistry reg;
  EXPECT_EQ(reg.identify(make_conn(ipproto::kUdp, 40000, 445)), AppProtocol::kUnknown);
  EXPECT_EQ(reg.identify(make_conn(ipproto::kUdp, 40000, 22)), AppProtocol::kUnknown);
}

TEST(Registry, DynamicDceRpcEndpoints) {
  AppRegistry reg;
  Connection c = make_conn(ipproto::kTcp, 40000, 3456);
  EXPECT_EQ(reg.identify(c), AppProtocol::kUnknown);
  reg.register_dcerpc_endpoint(c.key.dst, 3456);
  EXPECT_EQ(reg.identify(c), AppProtocol::kDceRpc);
  EXPECT_TRUE(reg.is_dcerpc_endpoint(c.key.dst, 3456));
  EXPECT_FALSE(reg.is_dcerpc_endpoint(c.key.dst, 3457));
  EXPECT_EQ(reg.dynamic_endpoint_count(), 1u);

  // The well-known port table is shared by every registry, but each
  // registry's dynamic endpoints are its own: a fresh registry and a copy
  // taken before the registration do not see the endpoint, and a copy
  // taken after does.
  AppRegistry learner;
  Connection other = make_conn(ipproto::kTcp, 40000, 4567);
  learner.register_dcerpc_endpoint(other.key.dst, 4567);
  const AppRegistry copy_before = learner;
  learner.register_dcerpc_endpoint(c.key.dst, 3456);
  const AppRegistry copy_after = learner;
  EXPECT_EQ(AppRegistry().identify(c), AppProtocol::kUnknown);
  EXPECT_EQ(AppRegistry().dynamic_endpoint_count(), 0u);
  EXPECT_EQ(copy_before.identify(c), AppProtocol::kUnknown);
  EXPECT_EQ(copy_before.identify(other), AppProtocol::kDceRpc);
  EXPECT_EQ(copy_after.identify(c), AppProtocol::kDceRpc);
  EXPECT_EQ(copy_after.dynamic_endpoint_count(), 2u);
  EXPECT_EQ(copy_after.identify(make_conn(ipproto::kTcp, 40000, 80)), AppProtocol::kHttp);
}

// The responder's side decides first: a client whose ephemeral port is a
// listed port still reaches a registered DCE/RPC endpoint, and a client
// port decides only when the responder is neither listed nor registered.
TEST(Registry, ResponderEndpointBeforeOriginatorPort) {
  AppRegistry reg;
  const Ipv4Address server(10, 0, 0, 9);
  reg.register_dcerpc_endpoint(server, 2345);
  for (const std::uint16_t client_port : {6000, 7070, 8080, 1433}) {
    Connection c;
    c.key = {Ipv4Address(10, 1, 2, 3), server, client_port, 2345, ipproto::kTcp};
    EXPECT_EQ(reg.identify(c), AppProtocol::kDceRpc) << "client port " << client_port;
  }
  Connection unregistered;
  unregistered.key = {Ipv4Address(10, 1, 2, 3), server, 8080, 2346, ipproto::kTcp};
  EXPECT_EQ(reg.identify(unregistered), AppProtocol::kHttp);
}

TEST(Categories, Table4Grouping) {
  EXPECT_EQ(category_of(AppProtocol::kHttp), AppCategory::kWeb);
  EXPECT_EQ(category_of(AppProtocol::kHttps), AppCategory::kWeb);
  EXPECT_EQ(category_of(AppProtocol::kSmtp), AppCategory::kEmail);
  EXPECT_EQ(category_of(AppProtocol::kLdap), AppCategory::kEmail);  // per Table 4
  EXPECT_EQ(category_of(AppProtocol::kFtp), AppCategory::kBulk);
  EXPECT_EQ(category_of(AppProtocol::kHpss), AppCategory::kBulk);
  EXPECT_EQ(category_of(AppProtocol::kSsh), AppCategory::kInteractive);
  EXPECT_EQ(category_of(AppProtocol::kDns), AppCategory::kName);
  EXPECT_EQ(category_of(AppProtocol::kSrvLoc), AppCategory::kName);
  EXPECT_EQ(category_of(AppProtocol::kNfs), AppCategory::kNetFile);
  EXPECT_EQ(category_of(AppProtocol::kNcp), AppCategory::kNetFile);
  EXPECT_EQ(category_of(AppProtocol::kDhcp), AppCategory::kNetMgnt);
  EXPECT_EQ(category_of(AppProtocol::kSap), AppCategory::kNetMgnt);
  EXPECT_EQ(category_of(AppProtocol::kRtsp), AppCategory::kStreaming);
  EXPECT_EQ(category_of(AppProtocol::kIpVideo), AppCategory::kStreaming);
  EXPECT_EQ(category_of(AppProtocol::kCifs), AppCategory::kWindows);
  EXPECT_EQ(category_of(AppProtocol::kDceRpc), AppCategory::kWindows);
  EXPECT_EQ(category_of(AppProtocol::kNetbiosSsn), AppCategory::kWindows);
  EXPECT_EQ(category_of(AppProtocol::kVeritasData), AppCategory::kBackup);
  EXPECT_EQ(category_of(AppProtocol::kDantz), AppCategory::kBackup);
  EXPECT_EQ(category_of(AppProtocol::kConnectedBackup), AppCategory::kBackup);
  EXPECT_EQ(category_of(AppProtocol::kLpd), AppCategory::kMisc);
  EXPECT_EQ(category_of(AppProtocol::kOracleSql), AppCategory::kMisc);
}

TEST(Categories, NamesAreStable) {
  EXPECT_STREQ(to_string(AppCategory::kNetFile), "net-file");
  EXPECT_STREQ(to_string(AppCategory::kOtherUdp), "other-udp");
  EXPECT_STREQ(to_string(AppProtocol::kCifs), "CIFS/SMB");
  EXPECT_STREQ(to_string(AppProtocol::kImapS), "IMAP/S");
}

}  // namespace
}  // namespace entrace
