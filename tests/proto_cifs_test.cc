// Tests for CIFS/SMB parsing, FID-based pipe tracking, and DCE/RPC.
#include <gtest/gtest.h>

#include "proto/cifs.h"
#include "net/encoder.h"
#include "proto/dcerpc.h"

namespace entrace {
namespace {

class CifsTest : public ::testing::Test {
 protected:
  void client(const std::vector<std::uint8_t>& msg) {
    parser.on_data(conn, Direction::kOrigToResp, ts_ += 0.001, msg);
  }
  void server(const std::vector<std::uint8_t>& msg) {
    parser.on_data(conn, Direction::kRespToOrig, ts_ += 0.001, msg);
  }
  std::size_t count(CifsCategory cat, bool requests_only = true) const {
    std::size_t n = 0;
    for (const auto& c : events.cifs) {
      if (c.category != cat) continue;
      if (requests_only && c.dir != Direction::kOrigToResp) continue;
      ++n;
    }
    return n;
  }

  Connection conn;
  AppEvents events;
  AppRegistry registry;
  CifsParser parser{events, registry, /*netbios_framing=*/false};
  double ts_ = 0.0;
};

TEST_F(CifsTest, BasicCommandsClassified) {
  client(smb_simple(smbcmd::kNegotiate, 1, false, 60));
  server(smb_simple(smbcmd::kNegotiate, 1, true, 80));
  client(smb_simple(smbcmd::kSessionSetup, 2, false, 140));
  server(smb_simple(smbcmd::kSessionSetup, 2, true, 40));
  client(smb_simple(smbcmd::kTreeConnect, 3, false, 48));
  server(smb_simple(smbcmd::kTreeConnect, 3, true, 20));
  EXPECT_EQ(count(CifsCategory::kSmbBasic), 3u);
  EXPECT_EQ(events.cifs.size(), 6u);  // responses recorded too
}

TEST_F(CifsTest, FileReadWriteIsFileSharing) {
  client(smb_ntcreate_request(1, "\\docs\\a.doc"));
  server(smb_ntcreate_response(1, 0x4001));
  client(smb_read_request(2, 0x4001, 8192));
  server(smb_read_response(2, 0x4001, filler_payload(8192)));
  client(smb_write_request(3, 0x4001, filler_payload(4096)));
  server(smb_write_response(3, 0x4001));
  EXPECT_EQ(count(CifsCategory::kSmbBasic), 1u);  // the NT Create
  EXPECT_EQ(count(CifsCategory::kFileSharing), 2u);
  EXPECT_TRUE(events.dcerpc.empty());
}

TEST_F(CifsTest, PipeTrafficIsRpcAndYieldsDceEvents) {
  client(smb_ntcreate_request(1, "\\spoolss"));
  server(smb_ntcreate_response(1, 0x7007));
  client(smb_write_request(2, 0x7007, encode_dce_bind(1, dce_uuid(DceIface::kSpoolss))));
  server(smb_write_response(2, 0x7007));
  client(smb_read_request(3, 0x7007, 4280));
  server(smb_read_response(3, 0x7007, encode_dce_bind_ack(1)));
  client(smb_write_request(4, 0x7007,
                           encode_dce_request(2, spoolss_op::kWritePrinter, 3000)));
  server(smb_write_response(4, 0x7007));
  client(smb_read_request(5, 0x7007, 4280));
  server(smb_read_response(5, 0x7007, encode_dce_response(2, 32)));

  EXPECT_GE(count(CifsCategory::kRpcPipe), 2u);
  ASSERT_GE(events.dcerpc.size(), 2u);
  const auto& req =
      *std::find_if(events.dcerpc.begin(), events.dcerpc.end(),
                    [](const DceRpcCall& c) { return c.is_request; });
  EXPECT_EQ(req.iface, DceIface::kSpoolss);
  EXPECT_EQ(req.opnum, spoolss_op::kWritePrinter);
  EXPECT_TRUE(req.over_pipe);
}

TEST_F(CifsTest, LanmanTransClassified) {
  client(smb_trans(1, false, "\\PIPE\\LANMAN", 60));
  server(smb_trans(1, true, "\\PIPE\\LANMAN", 900));
  EXPECT_EQ(count(CifsCategory::kLanman), 1u);
}

TEST_F(CifsTest, MessagesSplitAcrossSegments) {
  const auto msg = smb_simple(smbcmd::kNegotiate, 1, false, 100);
  const std::size_t half = msg.size() / 2;
  parser.on_data(conn, Direction::kOrigToResp, 0.0,
                 std::span<const std::uint8_t>(msg.data(), half));
  EXPECT_TRUE(events.cifs.empty());
  parser.on_data(conn, Direction::kOrigToResp, 0.001,
                 std::span<const std::uint8_t>(msg.data() + half, msg.size() - half));
  EXPECT_EQ(events.cifs.size(), 1u);
}

TEST_F(CifsTest, NbssHandshakeEventsEmitted) {
  CifsParser nb(events, registry, /*netbios_framing=*/true);
  nb.on_data(conn, Direction::kOrigToResp, 0.0, nbss_session_request("SRV", "CLI"));
  nb.on_data(conn, Direction::kRespToOrig, 0.001, nbss_session_response(true));
  ASSERT_EQ(events.nbss.size(), 2u);
  EXPECT_EQ(events.nbss[0].type, NbssEventType::kRequest);
  EXPECT_EQ(events.nbss[1].type, NbssEventType::kPositiveResponse);

  nb.on_data(conn, Direction::kRespToOrig, 0.002, nbss_session_response(false));
  EXPECT_EQ(events.nbss.back().type, NbssEventType::kNegativeResponse);
}

TEST(PipeNames, KnownPipesMapToIfaces) {
  EXPECT_EQ(pipe_iface("\\spoolss"), DceIface::kSpoolss);
  EXPECT_EQ(pipe_iface("\\NETLOGON"), DceIface::kNetLogon);
  EXPECT_EQ(pipe_iface("\\lsarpc"), DceIface::kLsaRpc);
  EXPECT_FALSE(pipe_iface("\\docs\\file.txt").has_value());
}

TEST(DceRpc, PduRoundTrips) {
  {
    const auto wire = encode_dce_bind(77, dce_uuid(DceIface::kNetLogon));
    const auto pdu = decode_dce_pdu(wire);
    ASSERT_TRUE(pdu.has_value());
    EXPECT_EQ(pdu->ptype, dce_ptype::kBind);
    EXPECT_EQ(pdu->call_id, 77u);
    ASSERT_TRUE(pdu->bind_uuid.has_value());
    EXPECT_EQ(dce_iface_from_uuid(*pdu->bind_uuid), DceIface::kNetLogon);
  }
  {
    const auto wire = encode_dce_request(5, 19, 256);
    const auto pdu = decode_dce_pdu(wire);
    ASSERT_TRUE(pdu.has_value());
    EXPECT_EQ(pdu->ptype, dce_ptype::kRequest);
    EXPECT_EQ(pdu->opnum, 19);
    EXPECT_EQ(pdu->stub.size(), 256u);
    EXPECT_EQ(pdu->frag_len, wire.size());
  }
  {
    const auto wire = encode_dce_response(5, 64);
    const auto pdu = decode_dce_pdu(wire);
    ASSERT_TRUE(pdu.has_value());
    EXPECT_EQ(pdu->ptype, dce_ptype::kResponse);
    EXPECT_EQ(pdu->stub.size(), 64u);
  }
}

TEST(DceRpc, StreamReassemblesFragmentedPdus) {
  std::vector<std::uint8_t> stream;
  auto append = [&stream](const std::vector<std::uint8_t>& v) {
    stream.insert(stream.end(), v.begin(), v.end());
  };
  append(encode_dce_bind(1, dce_uuid(DceIface::kSamr)));
  append(encode_dce_request(2, 7, 100));
  append(encode_dce_request(3, 8, 50));

  DceRpcStream reasm;
  std::vector<DcePdu> pdus;
  // Feed 7 bytes at a time.
  for (std::size_t off = 0; off < stream.size(); off += 7) {
    const std::size_t n = std::min<std::size_t>(7, stream.size() - off);
    reasm.feed(std::span<const std::uint8_t>(stream.data() + off, n), pdus);
  }
  ASSERT_EQ(pdus.size(), 3u);
  EXPECT_EQ(pdus[0].ptype, dce_ptype::kBind);
  EXPECT_EQ(pdus[1].opnum, 7);
  EXPECT_EQ(pdus[2].opnum, 8);
}

TEST(DceRpc, EpmStubRoundTripAndSessionMapping) {
  const auto stub = encode_epm_map_stub(dce_uuid(DceIface::kSpoolss),
                                        Ipv4Address(128, 3, 15, 2), 1234);
  DceUuid uuid;
  Ipv4Address server;
  std::uint16_t port = 0;
  ASSERT_TRUE(decode_epm_map_stub(stub, uuid, server, port));
  EXPECT_EQ(dce_iface_from_uuid(uuid), DceIface::kSpoolss);
  EXPECT_EQ(server, Ipv4Address(128, 3, 15, 2));
  EXPECT_EQ(port, 1234);

  // Run the full EPM exchange through a parser: the decoded mapping is
  // registered and counted.
  Connection conn;
  std::vector<DceRpcCall> calls;
  AppRegistry registry;
  std::uint64_t mappings = 0;
  DceRpcParser parser(calls, registry, mappings);
  parser.on_data(conn, Direction::kOrigToResp, 0.0, encode_dce_bind(1, dce_uuid(DceIface::kEpm)));
  parser.on_data(conn, Direction::kRespToOrig, 0.001, encode_dce_bind_ack(1));
  parser.on_data(conn, Direction::kOrigToResp, 0.002, encode_dce_request_stub(2, 3, stub));
  parser.on_data(conn, Direction::kRespToOrig, 0.003, encode_dce_response_stub(2, stub));
  EXPECT_EQ(mappings, 1u);
  EXPECT_TRUE(registry.is_dcerpc_endpoint(Ipv4Address(128, 3, 15, 2), 1234));
  EXPECT_EQ(registry.dynamic_endpoint_count(), 1u);
  // Response inherits the request's opnum via call-id matching.
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[1].opnum, 3);
  EXPECT_FALSE(calls[1].is_request);
}

TEST(DceRpc, MalformedStreamResyncs) {
  DceRpcStream reasm;
  std::vector<DcePdu> pdus;
  std::vector<std::uint8_t> garbage(10, 0xFF);
  const auto good = encode_dce_request(1, 2, 30);
  garbage.insert(garbage.end(), good.begin(), good.end());
  reasm.feed(garbage, pdus);
  // The garbage is skipped byte-by-byte; the valid PDU is still found.
  ASSERT_EQ(pdus.size(), 1u);
  EXPECT_EQ(pdus[0].opnum, 2);
}

}  // namespace
}  // namespace entrace
