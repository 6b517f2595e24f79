// Tests for the pcap file format implementation and trace containers.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/encoder.h"
#include "pcap/format.h"
#include "pcap/reader.h"
#include "pcap/trace.h"
#include "pcap/writer.h"

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

// Overwrites one little-endian u32 of a written file (a global-header
// field: snaplen at offset 16, link type at 20).
void patch_u32le(const std::string& path, long offset, std::uint32_t v) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr) << path;
  const std::uint8_t b[4] = {static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
                             static_cast<std::uint8_t>(v >> 16), static_cast<std::uint8_t>(v >> 24)};
  std::fseek(f, offset, SEEK_SET);
  std::fwrite(b, 1, 4, f);
  std::fclose(f);
}

TEST(Pcap, WriteReadRoundTrip) {
  const std::string path = temp_path("entrace_roundtrip.pcap");
  {
    PcapWriter writer(path, 1500);
    writer.write(sample_packet(1.5, 100));
    writer.write(sample_packet(2.25, 300));
    EXPECT_EQ(writer.packets_written(), 2u);
  }
  PcapReader reader(path);
  EXPECT_EQ(reader.snaplen(), 1500u);
  EXPECT_EQ(reader.link_type(), pcapfmt::kLinkTypeEthernet);
  auto p1 = reader.next();
  ASSERT_TRUE(p1.has_value());
  EXPECT_NEAR(p1->ts, 1.5, 1e-6);
  EXPECT_EQ(p1->data.size(), sample_packet(0, 100).data.size());
  auto p2 = reader.next();
  ASSERT_TRUE(p2.has_value());
  EXPECT_NEAR(p2->ts, 2.25, 1e-6);
  EXPECT_FALSE(reader.next().has_value());
  std::remove(path.c_str());
}

// The header's snaplen binds the reader, not only the writer: records
// longer than it are clipped on read, and a snaplen of 0 reads as libpcap's
// 262,144 instead of clipping every packet to nothing.
TEST(Pcap, SnaplenTruncatesButKeepsWireLen) {
  const std::string path = temp_path("entrace_snap.pcap");
  const std::size_t frame = sample_packet(0, 1000).data.size();
  struct Case {
    std::uint32_t written;  // the writer's snaplen
    std::uint32_t header;   // then patched into the global header
    std::uint32_t snaplen;  // what the reader reports
    std::size_t captured;   // bytes the reader returns
  };
  const std::vector<Case> cases = {
      {68, 68, 68, 68},             // the writer clipped
      {1500, 68, 68, 68},           // the reader clips
      {1500, 0, 262144, frame},     // 0 is bogus: nothing is clipped
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("written " + std::to_string(c.written) + ", header " + std::to_string(c.header));
    {
      PcapWriter writer(path, c.written);
      writer.write(sample_packet(0.0, 1000));
    }
    patch_u32le(path, 16, c.header);
    PcapReader reader(path);
    EXPECT_EQ(reader.snaplen(), c.snaplen);
    auto p = reader.next();
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->data.size(), c.captured);
    EXPECT_EQ(p->wire_len, frame);
  }
  std::remove(path.c_str());
}

TEST(Pcap, ReaderRejectsBadMagic) {
  const std::string path = temp_path("entrace_bad.pcap");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const char junk[24] = "not a pcap file at all";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  EXPECT_THROW(PcapReader reader(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Pcap, ReaderHandlesSwappedByteOrder) {
  const std::string path = temp_path("entrace_swapped.pcap");
  // Hand-build a big-endian pcap file with one 4-byte record.
  std::FILE* f = std::fopen(path.c_str(), "wb");
  auto be32 = [&f](std::uint32_t v) {
    std::uint8_t b[4] = {static_cast<std::uint8_t>(v >> 24), static_cast<std::uint8_t>(v >> 16),
                         static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
    std::fwrite(b, 1, 4, f);
  };
  auto be16 = [&f](std::uint16_t v) {
    std::uint8_t b[2] = {static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
    std::fwrite(b, 1, 2, f);
  };
  be32(pcapfmt::kMagicUsec);  // written big-endian => appears swapped to LE reader
  be16(2);
  be16(4);
  be32(0);
  be32(0);
  be32(1500);
  be32(1);
  be32(10);  // sec
  be32(500000);  // usec
  be32(4);   // caplen
  be32(4);   // wirelen
  const std::uint8_t payload[4] = {1, 2, 3, 4};
  std::fwrite(payload, 1, 4, f);
  std::fclose(f);

  PcapReader reader(path);
  EXPECT_EQ(reader.snaplen(), 1500u);
  auto p = reader.next();
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(p->ts, 10.5, 1e-6);
  ASSERT_EQ(p->data.size(), 4u);
  EXPECT_EQ(p->data[2], 3);
  std::remove(path.c_str());
}

TEST(Pcap, EmptyFileErrorIsDistinctFromBadMagic) {
  const std::string path = temp_path("entrace_empty.pcap");
  std::fclose(std::fopen(path.c_str(), "wb"));
  try {
    PcapReader reader(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("empty"), std::string::npos) << what;
    EXPECT_EQ(what.find("bad magic"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(Pcap, ShortGlobalHeaderErrorNamesByteCount) {
  const std::string path = temp_path("entrace_shorthdr.pcap");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const std::uint8_t magic[4] = {0xD4, 0xC3, 0xB2, 0xA1};
  std::fwrite(magic, 1, sizeof(magic), f);
  std::fclose(f);
  try {
    PcapReader reader(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("short global header"), std::string::npos) << what;
    EXPECT_NE(what.find("4"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(Pcap, BadMagicErrorNamesOffsetAndObservedValue) {
  const std::string path = temp_path("entrace_badmagic.pcap");
  const auto write_junk = [&path] {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    const char junk[24] = "not a pcap file at all";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  };
  // A valid header whose link type is 802.11 (105), not Ethernet (1).
  const auto write_wifi = [&path] {
    { PcapWriter writer(path, 1500); }
    patch_u32le(path, 20, 105);
  };
  struct Case {
    std::function<void()> write;
    std::vector<std::string> expected;  // substrings of the error message
  };
  const std::vector<Case> cases = {
      // 'n','o','t',' ' read little-endian is 0x20746F6E.
      {write_junk, {"bad magic", "0x20746F6E", "offset 0"}},
      {write_wifi, {"link type 105", "offset 20"}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.expected.front());
    c.write();
    try {
      PcapReader reader(path);
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      for (const std::string& want : c.expected) {
        EXPECT_NE(what.find(want), std::string::npos) << what;
      }
    }
  }
  std::remove(path.c_str());
}

// A capture cut off mid-record (tracer killed, disk full): however the
// file is opened, the reader salvages the bytes it got and classifies the
// damage, so PcapReader, Trace::load and PcapFileSource see the same
// packets.
class PcapTruncationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = temp_path("entrace_midrec.pcap");
    {
      // Scoped: the writer must flush and close before the file is cut.
      PcapWriter writer(path_, 1500);
      writer.write(sample_packet(1.0, 100));  // frame: 14+20+8+100 = 142 bytes
      writer.write(sample_packet(2.0, 300));  // frame: 342 bytes
    }
    // Global header 24 + (16 + 142) + 16 record header + 100 of 342 body.
    std::filesystem::resize_file(path_, 24 + 16 + 142 + 16 + 100);
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(PcapTruncationTest, ThrowingReaderSalvagesPartialTrailingRecord) {
  PcapReader reader(path_);
  auto p1 = reader.next();
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(p1->data.size(), 142u);
  auto p2 = reader.next();
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(p2->data.size(), 100u);
  EXPECT_EQ(p2->wire_len, 342u);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.anomalies()[AnomalyKind::kPcapTruncatedRecord], 1u);
}

TEST_F(PcapTruncationTest, LoadSalvagesAndRecordsFileAnomalies) {
  const Trace trace = Trace::load(path_, "cut", 7);
  ASSERT_EQ(trace.packets.size(), 2u);
  EXPECT_EQ(trace.packets[1].data.size(), 100u);  // the bytes that made it to disk
  EXPECT_EQ(trace.packets[1].wire_len, 342u);     // original length is still known
  EXPECT_EQ(trace.file_anomalies[AnomalyKind::kPcapTruncatedRecord], 1u);
}

TEST(Pcap, LoadThrowsOnUnopenableFile) {
  EXPECT_THROW(Trace::load(temp_path("entrace_does_not_exist.pcap"), "missing", -1),
               std::runtime_error);
}

TEST(Pcap, SwappedByteOrderMultiRecordWithShortTrailer) {
  const std::string path = temp_path("entrace_swapped_multi.pcap");
  // Hand-build a big-endian pcap file: two records plus 8 stray trailing
  // bytes (too short even for a record header).
  std::FILE* f = std::fopen(path.c_str(), "wb");
  auto be32 = [&f](std::uint32_t v) {
    std::uint8_t b[4] = {static_cast<std::uint8_t>(v >> 24), static_cast<std::uint8_t>(v >> 16),
                         static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
    std::fwrite(b, 1, 4, f);
  };
  auto be16 = [&f](std::uint16_t v) {
    std::uint8_t b[2] = {static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
    std::fwrite(b, 1, 2, f);
  };
  be32(pcapfmt::kMagicUsec);
  be16(2);
  be16(4);
  be32(0);
  be32(0);
  be32(1500);
  be32(1);
  const std::uint8_t payload[6] = {1, 2, 3, 4, 5, 6};
  be32(10); be32(250000); be32(4); be32(4);
  std::fwrite(payload, 1, 4, f);
  be32(11); be32(750000); be32(6); be32(6);
  std::fwrite(payload, 1, 6, f);
  be32(99); be32(0);  // 8 orphan bytes: a record header needs 16
  std::fclose(f);

  PcapReader reader(path);
  auto p1 = reader.next();
  ASSERT_TRUE(p1.has_value());
  EXPECT_NEAR(p1->ts, 10.25, 1e-6);
  ASSERT_EQ(p1->data.size(), 4u);
  auto p2 = reader.next();
  ASSERT_TRUE(p2.has_value());
  EXPECT_NEAR(p2->ts, 11.75, 1e-6);
  ASSERT_EQ(p2->data.size(), 6u);
  EXPECT_EQ(p2->data[5], 6);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.anomalies()[AnomalyKind::kPcapShortRecordHeader], 1u);
  std::remove(path.c_str());
}

TEST(Trace, SaveLoadRoundTrip) {
  Trace t;
  t.name = "unit";
  t.snaplen = 1500;
  t.packets.push_back(sample_packet(0.5, 40));
  t.packets.push_back(sample_packet(1.0, 60));
  t.start_ts = 0.5;
  t.duration = 0.5;
  const std::string path = temp_path("entrace_trace.pcap");
  t.save(path);
  const Trace loaded = Trace::load(path, "unit", 3);
  EXPECT_EQ(loaded.packets.size(), 2u);
  EXPECT_EQ(loaded.subnet_id, 3);
  EXPECT_EQ(loaded.snaplen, 1500u);
  EXPECT_EQ(loaded.total_wire_bytes(), t.total_wire_bytes());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace entrace
