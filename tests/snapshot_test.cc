// Snapshot & merge suite (CTest label "snapshot", also run under
// ASan+UBSan via `ctest --preset snapshot-asan`).
//
// The subsystem's contract, pinned down here:
//   1. Round-trip: encode -> decode reproduces every TraceShard field.
//   2. Partition determinism: for ANY split of a dataset's traces into
//      shard files, merging the snapshots folds to a report byte-identical
//      to single-process analyze_dataset.
//   3. Untrusted input: damaged snapshots (bad magic, another version,
//      truncation, flipped bits, missing end marker, out-of-range enum
//      bytes, host runs or scanner observations out of the writer's
//      canonical form) are rejected with a SnapshotError naming the byte
//      offset — never misdecoded or quietly repaired.  A seeded
//      structure-aware mutation loop (section types, lengths and payload
//      fields, CRCs recomputed) holds every decode to "succeed or throw
//      SnapshotError".
//   4. The CRC-32 every section carries is zlib's, pinned on its own: the
//      golden digests are computed with the same function.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <typeinfo>
#include <vector>

#include "core/analyzer.h"
#include "core/report.h"
#include "snapshot/format.h"
#include "snapshot/reader.h"
#include "snapshot/writer.h"
#include "synth/synth_source.h"

namespace entrace {
namespace {

namespace snap = entrace::snapshot;

class SnapshotTest : public ::testing::Test {
 protected:
  static const EnterpriseModel& model() {
    static const EnterpriseModel m;
    return m;
  }
  // D0: the paper's first dataset, small scale so the partition property
  // test can afford to analyze it several times.
  static DatasetSpec spec() { return dataset_by_name("D0", 0.004); }
  static const SyntheticTraceSourceSet& sources() {
    static const SyntheticTraceSourceSet s(spec(), model());
    return s;
  }
  static AnalyzerConfig config() { return default_config_for_model(model().site()); }

  static snap::SnapshotMeta meta() {
    return {spec().name, 0.004, static_cast<std::uint32_t>(sources().size())};
  }

  // Per process: ctest runs these tests concurrently, one process each, and
  // a shared name let one test unlink the file another was still writing.
  static std::string temp_path(const std::string& name) {
    return (std::filesystem::temp_directory_path() / (std::to_string(::getpid()) + "-" + name))
        .string();
  }

  // Analyze traces [lo, hi) and snapshot them to a file, shard-tool style.
  static std::string write_range(const std::string& name, std::size_t lo, std::size_t hi) {
    const std::string path = temp_path(name);
    std::vector<TraceShard> shards = analyze_trace_shards(sources(), config(), lo, hi);
    snap::SnapshotWriter writer(path, meta());
    for (std::size_t i = 0; i < shards.size(); ++i) {
      writer.add_shard(static_cast<std::uint32_t>(lo + i), shards[i]);
    }
    writer.close();
    return path;
  }

  static std::vector<std::uint8_t> file_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }

  // A valid single-trace snapshot image for the fault-injection tests.
  static const std::vector<std::uint8_t>& valid_image() {
    static const std::vector<std::uint8_t> bytes = [] {
      const std::string path = write_range("entrace_snap_valid.esnap", 0, 1);
      std::vector<std::uint8_t> b = file_bytes(path);
      std::filesystem::remove(path);
      return b;
    }();
    return bytes;
  }

  // A one-trace image of `shard`, written like a cluster worker's.
  static std::vector<std::uint8_t> image_of(const TraceShard& shard) {
    std::ostringstream out(std::ios::binary);
    snap::SnapshotWriter writer(out, meta());
    writer.add_shard(0, shard);
    writer.close();
    const std::string image = std::move(out).str();
    return {image.begin(), image.end()};
  }

  static std::uint32_t u32_at(const std::vector<std::uint8_t>& bytes, std::size_t at) {
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < 4 && at + i < bytes.size(); ++i) {
      v |= static_cast<std::uint32_t>(bytes[at + i]) << (8 * i);
    }
    return v;
  }
  static void set_u32(std::vector<std::uint8_t>& bytes, std::size_t at, std::uint32_t v) {
    for (std::size_t i = 0; i < 4; ++i) bytes.at(at + i) = static_cast<std::uint8_t>(v >> (8 * i));
  }
  static void set_u64(std::vector<std::uint8_t>& bytes, std::size_t at, std::uint64_t v) {
    for (std::size_t i = 0; i < 8; ++i) bytes.at(at + i) = static_cast<std::uint8_t>(v >> (8 * i));
  }

  // The payload length the section header at `at` (type u32, length u64)
  // declares.
  static std::uint64_t section_length(const std::vector<std::uint8_t>& bytes, std::size_t at) {
    return u32_at(bytes, at + 4) | static_cast<std::uint64_t>(u32_at(bytes, at + 8)) << 32;
  }

  // The offsets of a valid image's section headers, in file order.
  static std::vector<std::size_t> section_offsets(const std::vector<std::uint8_t>& bytes) {
    std::vector<std::size_t> out;
    for (std::size_t at = snap::kHeaderSize; at + snap::kSectionHeaderSize <= bytes.size();
         at += snap::kSectionHeaderSize + section_length(bytes, at) + snap::kSectionTrailerSize) {
      out.push_back(at);
    }
    return out;
  }

  // The payload offset of the image's first section of `type`.
  static std::size_t payload_offset(const std::vector<std::uint8_t>& bytes,
                                    snap::SectionType type) {
    for (const std::size_t at : section_offsets(bytes)) {
      if (u32_at(bytes, at) == static_cast<std::uint32_t>(type)) {
        return at + snap::kSectionHeaderSize;
      }
    }
    ADD_FAILURE() << "no section " << snap::to_string(type);
    return 0;
  }

  // Recompute the CRC of the image's section of `type` after a patch.
  static void reseal(std::vector<std::uint8_t>& bytes, snap::SectionType type) {
    const std::size_t payload = payload_offset(bytes, type);
    const std::size_t length = u32_at(bytes, payload - 8);
    set_u32(bytes, payload + length,
            snap::crc32(std::span<const std::uint8_t>(bytes.data() + payload, length)));
  }

  static std::string report_of(const DatasetAnalysis& analysis) {
    const DatasetSpec s = spec();
    const report::ReportInput input{&s, &analysis};
    const std::vector<report::ReportInput> inputs{input};
    return report::full_report(inputs);
  }

  // Merge snapshot files exactly like entrace_merge: decode, order by trace
  // index, fold.
  static DatasetAnalysis merge_files(const std::vector<std::string>& paths) {
    std::vector<snap::SnapshotShard> all;
    for (const std::string& p : paths) {
      snap::Snapshot s = snap::read_snapshot(p);
      EXPECT_EQ(s.meta, meta()) << p;
      for (auto& shard : s.shards) all.push_back(std::move(shard));
    }
    std::sort(all.begin(), all.end(),
              [](const snap::SnapshotShard& a, const snap::SnapshotShard& b) {
                return a.trace_index < b.trace_index;
              });
    std::vector<TraceShard> shards;
    shards.reserve(all.size());
    for (auto& s : all) shards.push_back(std::move(s.shard));
    return fold_shards(spec().name, std::move(shards), config());
  }
};

// ---- round trip -------------------------------------------------------------

TEST_F(SnapshotTest, RoundTripReproducesEveryShardField) {
  // Analyze the same trace range twice: shards are move-only, and the
  // pipeline is deterministic, so the second run is the reference.
  const std::size_t n = std::min<std::size_t>(3, sources().size());
  const std::string path = write_range("entrace_snap_roundtrip.esnap", 0, n);
  const snap::Snapshot decoded = snap::read_snapshot(path);
  std::filesystem::remove(path);
  const std::vector<TraceShard> reference = analyze_trace_shards(sources(), config(), 0, n);

  EXPECT_EQ(decoded.meta, meta());
  ASSERT_EQ(decoded.shards.size(), reference.size());
  for (std::size_t t = 0; t < reference.size(); ++t) {
    SCOPED_TRACE("trace " + std::to_string(t));
    const TraceShard& got = decoded.shards[t].shard;
    const TraceShard& want = reference[t];
    EXPECT_EQ(decoded.shards[t].trace_index, t);

    EXPECT_EQ(got.total_packets, want.total_packets);
    EXPECT_EQ(got.total_wire_bytes, want.total_wire_bytes);
    EXPECT_EQ(got.l3.total, want.l3.total);
    EXPECT_EQ(got.l3.ip, want.l3.ip);
    EXPECT_EQ(got.l3.arp, want.l3.arp);
    EXPECT_EQ(got.l3.ipx, want.l3.ipx);
    EXPECT_EQ(got.l3.other, want.l3.other);
    EXPECT_EQ(got.monitored_hosts, want.monitored_hosts);
    EXPECT_EQ(got.lbnl_hosts, want.lbnl_hosts);
    EXPECT_EQ(got.remote_hosts, want.remote_hosts);

    // Scanner observations: same sources, same first-contact order, same
    // overflow set.
    const auto got_obs = got.detector.export_observations();
    const auto want_obs = want.detector.export_observations();
    ASSERT_EQ(got_obs.size(), want_obs.size());
    for (std::size_t i = 0; i < got_obs.size(); ++i) {
      EXPECT_EQ(got_obs[i].source, want_obs[i].source);
      EXPECT_EQ(got_obs[i].order, want_obs[i].order);
      EXPECT_EQ(got_obs[i].extra_seen, want_obs[i].extra_seen);
    }

    // Connections, in open order, every serialized field.
    const auto fields = [](const Connection& c) {
      return std::tie(c.key, c.start_ts, c.last_ts, c.orig_pkts, c.resp_pkts, c.orig_bytes,
                      c.resp_bytes, c.state, c.keepalive_retx, c.app_id, c.multicast,
                      c.open_seq);
    };
    ASSERT_EQ(got.connections.size(), want.connections.size());
    ASSERT_FALSE(want.connections.empty());
    for (std::size_t i = 0; i < got.connections.size(); ++i) {
      EXPECT_TRUE(fields(got.connections[i]) == fields(want.connections[i]))
          << "connection " << i;
    }

    // App events: identical counts, and every event that carries
    // endpoints names the original's originator and responder.
    EXPECT_EQ(got.events.total(), want.events.total());
    EXPECT_EQ(got.events.smtp, want.events.smtp);
    EXPECT_EQ(got.events.epm, want.events.epm);
    EXPECT_EQ(got.events.cifs.size(), want.events.cifs.size());
    EXPECT_EQ(got.events.dcerpc.size(), want.events.dcerpc.size());
    const auto same_endpoints = [](const auto& g, const auto& w, const char* kind) {
      ASSERT_EQ(g.size(), w.size()) << kind;
      for (std::size_t i = 0; i < g.size(); ++i) {
        EXPECT_EQ(g[i].src, w[i].src) << kind << " event " << i;
        EXPECT_EQ(g[i].dst, w[i].dst) << kind << " event " << i;
      }
    };
    same_endpoints(got.events.http, want.events.http, "http");
    same_endpoints(got.events.dns, want.events.dns, "dns");
    same_endpoints(got.events.nbss, want.events.nbss, "nbss");
    same_endpoints(got.events.nfs, want.events.nfs, "nfs");
    same_endpoints(got.events.ncp, want.events.ncp, "ncp");
    ASSERT_EQ(got.events.nbns.size(), want.events.nbns.size());
    for (std::size_t i = 0; i < got.events.nbns.size(); ++i) {
      EXPECT_EQ(got.events.nbns[i].src, want.events.nbns[i].src);
      EXPECT_EQ(got.events.nbns[i].name, want.events.nbns[i].name);
    }
    for (std::size_t i = 0; i < got.events.http.size(); ++i) {
      EXPECT_EQ(got.events.http[i].user_agent, want.events.http[i].user_agent);
      EXPECT_EQ(got.events.http[i].content_type, want.events.http[i].content_type);
      EXPECT_EQ(got.events.http[i].resp_body_len, want.events.http[i].resp_body_len);
    }
    for (std::size_t i = 0; i < got.events.dns.size(); ++i) {
      EXPECT_EQ(got.events.dns[i].qtype, want.events.dns[i].qtype);
      EXPECT_EQ(got.events.dns[i].latency(), want.events.dns[i].latency());
    }

    // §6 load series, bit-exact 1 s bins.
    EXPECT_EQ(got.load.trace_name, want.load.trace_name);
    ASSERT_FALSE(want.load.bits_1s.empty());
    EXPECT_EQ(got.load.bits_1s.bins(), want.load.bits_1s.bins());
    EXPECT_EQ(got.load.ent_tcp_pkts, want.load.ent_tcp_pkts);
    EXPECT_EQ(got.load.ent_retx, want.load.ent_retx);
    EXPECT_EQ(got.load.wan_tcp_pkts, want.load.wan_tcp_pkts);
    EXPECT_EQ(got.load.wan_retx, want.load.wan_retx);
    EXPECT_EQ(got.load.keepalive_excluded, want.load.keepalive_excluded);

    // Capture quality, including every anomaly counter.
    EXPECT_EQ(got.quality, want.quality);
    EXPECT_EQ(got.quality.anomalies.as_map(), want.quality.anomalies.as_map());
  }
}

// ---- partition determinism --------------------------------------------------

TEST_F(SnapshotTest, AnyPartitionMergesToIdenticalReport) {
  const std::size_t n = sources().size();
  ASSERT_GE(n, 4u);
  const DatasetAnalysis direct = analyze_dataset(sources(), config());
  const std::string want = report_of(direct);

  // Partitions: whole dataset, halves, thirds (uneven), one shard per trace.
  const std::vector<std::vector<std::size_t>> partitions = {
      {0, n},
      {0, n / 2, n},
      {0, n / 3, 2 * n / 3, n},
      [n] {
        std::vector<std::size_t> cuts(n + 1);
        for (std::size_t i = 0; i <= n; ++i) cuts[i] = i;
        return cuts;
      }(),
  };
  for (const auto& cuts : partitions) {
    SCOPED_TRACE(std::to_string(cuts.size() - 1) + " shards");
    std::vector<std::string> paths;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      paths.push_back(write_range("entrace_snap_part" + std::to_string(i) + ".esnap", cuts[i],
                                  cuts[i + 1]));
    }
    const DatasetAnalysis merged = merge_files(paths);
    for (const std::string& p : paths) std::filesystem::remove(p);

    // The accounting invariants, then the byte-identical report.
    EXPECT_EQ(merged.total_packets, merged.quality.packets_ok);
    EXPECT_EQ(merged.l3.total, merged.total_packets);
    EXPECT_EQ(merged.total_packets, direct.total_packets);
    EXPECT_EQ(report_of(merged), want);
  }
}

TEST_F(SnapshotTest, MergeIsIndependentOfShardFileOrder) {
  const std::size_t n = sources().size();
  std::vector<std::string> paths = {
      write_range("entrace_snap_ord0.esnap", 0, n / 2),
      write_range("entrace_snap_ord1.esnap", n / 2, n),
  };
  const std::string forward = report_of(merge_files(paths));
  std::swap(paths[0], paths[1]);
  const std::string reversed = report_of(merge_files(paths));
  for (const std::string& p : paths) std::filesystem::remove(p);
  EXPECT_EQ(forward, reversed);
}

// ---- untrusted input --------------------------------------------------------

using snap::SnapshotError;

TEST_F(SnapshotTest, RejectsWrongMagic) {
  std::vector<std::uint8_t> bytes = valid_image();
  bytes[3] ^= 0xFF;
  try {
    snap::decode_snapshot(bytes);
    FAIL() << "decoded a snapshot with corrupted magic";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.offset(), 0u);
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("byte offset 0"), std::string::npos) << e.what();
  }
}

TEST_F(SnapshotTest, RejectsFutureFormatVersion) {
  std::vector<std::uint8_t> bytes = valid_image();
  bytes[snap::kMagicSize] = 99;  // version u32 LE low byte
  try {
    snap::decode_snapshot(bytes);
    FAIL() << "decoded a snapshot with a future format version";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.offset(), snap::kMagicSize);
    EXPECT_EQ(e.kind(), SnapshotError::Kind::kOtherVersion);
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
  }
}

// v5 images carry a subnet id, dynamic endpoints, a known-scanner list,
// SMTP and EPM event records and fields no reader reads; this reader has
// no v5 path and says which version it met.  The frames of a whole file
// walk the same in every version, so the image is another version's, not
// damaged.
TEST_F(SnapshotTest, RejectsFormatVersion5ByName) {
  std::vector<std::uint8_t> bytes = valid_image();
  bytes[snap::kMagicSize] = 5;
  try {
    snap::decode_snapshot(bytes);
    FAIL() << "decoded a snapshot stamped format version 5";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.offset(), snap::kMagicSize);
    EXPECT_EQ(e.kind(), SnapshotError::Kind::kOtherVersion);
    EXPECT_NE(std::string(e.what()).find("format version 5 unsupported"), std::string::npos)
        << e.what();
  }
}

TEST_F(SnapshotTest, RejectsTruncationAtEveryLevel) {
  const std::vector<std::uint8_t>& whole = valid_image();
  // Header-level: too short for magic + version.
  for (const std::size_t cut : {std::size_t{0}, std::size_t{5}, snap::kHeaderSize - 1}) {
    std::vector<std::uint8_t> bytes(whole.begin(), whole.begin() + static_cast<long>(cut));
    EXPECT_THROW(snap::decode_snapshot(bytes), SnapshotError) << "cut at " << cut;
  }
  // Section-level: cut inside a section header, a payload, and the crc; and
  // drop the end marker.  Every prefix must be rejected — a snapshot is
  // only valid whole.
  for (const std::size_t cut :
       {snap::kHeaderSize + 3,    // inside the dataset-meta section header
        whole.size() / 2,         // inside some per-trace payload
        whole.size() - 2,         // inside the end section
        whole.size() - snap::kSectionHeaderSize - snap::kSectionTrailerSize}) {  // no end marker
    std::vector<std::uint8_t> bytes(whole.begin(), whole.begin() + static_cast<long>(cut));
    try {
      snap::decode_snapshot(bytes);
      FAIL() << "decoded a snapshot truncated at byte " << cut;
    } catch (const SnapshotError& e) {
      EXPECT_LE(e.offset(), cut) << e.what();
      EXPECT_NE(std::string(e.what()).find("byte offset"), std::string::npos) << e.what();
    }
  }
}

TEST_F(SnapshotTest, RejectsFlippedPayloadBitViaCrc) {
  std::vector<std::uint8_t> bytes = valid_image();
  // Flip one bit inside the first section's payload (dataset name bytes).
  const std::size_t victim = snap::kHeaderSize + snap::kSectionHeaderSize + 5;
  ASSERT_LT(victim, bytes.size());
  bytes[victim] ^= 0x01;
  try {
    snap::decode_snapshot(bytes);
    FAIL() << "decoded a snapshot with a flipped payload bit";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos) << e.what();
    EXPECT_GT(e.offset(), 0u);
  }
}

TEST_F(SnapshotTest, RejectsUnknownSectionType) {
  std::vector<std::uint8_t> bytes = valid_image();
  // The first section starts right after the header; overwrite its type
  // with an unassigned id.  (CRC covers the payload only, so the type is
  // validated structurally.)
  bytes[snap::kHeaderSize] = 0x6E;
  try {
    snap::decode_snapshot(bytes);
    FAIL() << "decoded a snapshot with an unknown section type";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.offset(), snap::kHeaderSize);
    EXPECT_NE(std::string(e.what()).find("section"), std::string::npos) << e.what();
  }
}

TEST_F(SnapshotTest, RejectsTrailingGarbageAfterEndMarker) {
  std::vector<std::uint8_t> bytes = valid_image();
  bytes.push_back(0x00);
  EXPECT_THROW(snap::decode_snapshot(bytes), SnapshotError);
}

// Every one-byte enum the format carries is range-checked on decode.  A
// byte past the last enumerator would otherwise index past the report's
// per-enumerator tables (Table 14's NCP rows, Table 10's CIFS cells) with
// the CRCs intact.  The writer does not validate, so each bad value goes
// in through an ordinary one-trace shard holding one connection or event.
TEST_F(SnapshotTest, RejectsOutOfRangeEnumFields) {
  struct Case {
    const char* field;
    std::uint8_t one_past_last;
    std::function<void(TraceShard&, std::uint8_t)> plant;
  };
  const std::vector<Case> cases = {
      {"ConnState", 6,
       [](TraceShard& s, std::uint8_t v) {
         Connection c;
         c.state = static_cast<ConnState>(v);
         s.connections.push_back(c);
       }},
      {"NbnsOpcode", 5,
       [](TraceShard& s, std::uint8_t v) {
         s.events.nbns.push_back({});
         s.events.nbns.back().opcode = static_cast<NbnsOpcode>(v);
       }},
      {"NbnsNameType", 4,
       [](TraceShard& s, std::uint8_t v) {
         s.events.nbns.push_back({});
         s.events.nbns.back().name_type = static_cast<NbnsNameType>(v);
       }},
      {"NbssEventType", 3,
       [](TraceShard& s, std::uint8_t v) {
         s.events.nbss.push_back({});
         s.events.nbss.back().type = static_cast<NbssEventType>(v);
       }},
      {"CifsCategory", 5,
       [](TraceShard& s, std::uint8_t v) {
         s.events.cifs.push_back({});
         s.events.cifs.back().category = static_cast<CifsCategory>(v);
       }},
      {"Direction", 2,
       [](TraceShard& s, std::uint8_t v) {
         s.events.cifs.push_back({});
         s.events.cifs.back().dir = static_cast<Direction>(v);
       }},
      {"DceIface", 7,
       [](TraceShard& s, std::uint8_t v) {
         s.events.dcerpc.push_back({});
         s.events.dcerpc.back().iface = static_cast<DceIface>(v);
       }},
      {"NcpFunction", 8,
       [](TraceShard& s, std::uint8_t v) {
         s.events.ncp.push_back({});
         s.events.ncp.back().function = static_cast<NcpFunction>(v);
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.field);
    TraceShard shard;
    c.plant(shard, c.one_past_last);
    const std::vector<std::uint8_t> bytes = image_of(shard);
    try {
      snap::decode_snapshot(bytes);
      ADD_FAILURE() << "decoded " << c.field << " " << int{c.one_past_last};
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.kind(), SnapshotError::Kind::kMalformed) << e.what();
      ASSERT_LT(e.offset(), bytes.size()) << e.what();
      EXPECT_EQ(bytes[e.offset()], c.one_past_last) << "offset does not name the enum byte";
      EXPECT_NE(std::string(e.what()).find("byte offset " + std::to_string(e.offset())),
                std::string::npos)
          << e.what();
    }
  }
}

// The writer emits every host run strictly ascending, so the reader takes
// an unsorted or repeated host as damage instead of sorting and dedup'ing
// it.  Both go in through the writer, which does not validate.
TEST_F(SnapshotTest, RejectsUnsortedOrRepeatedHosts) {
  struct Case {
    const char* name;
    std::vector<std::uint32_t> TraceShard::*hosts;
    std::vector<std::uint32_t> run;
    std::uint32_t bad;  // the host the error must point at
  };
  const std::vector<Case> cases = {
      {"unsorted monitored hosts", &TraceShard::monitored_hosts, {3, 9, 5}, 5},
      {"repeated lbnl host", &TraceShard::lbnl_hosts, {3, 7, 7}, 7},
      {"unsorted remote hosts", &TraceShard::remote_hosts, {0xFFFFFFFFu, 0}, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    TraceShard shard;
    shard.*c.hosts = c.run;
    const std::vector<std::uint8_t> bytes = image_of(shard);
    try {
      snap::decode_snapshot(bytes);
      ADD_FAILURE() << "decoded " << c.name;
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.kind(), SnapshotError::Kind::kMalformed) << e.what();
      EXPECT_EQ(u32_at(bytes, e.offset()), c.bad) << e.what();
      EXPECT_NE(std::string(e.what()).find("host"), std::string::npos) << e.what();
    }
  }
}

// The scanner payload's canonical form: sources strictly ascending,
// extra_seen strictly ascending, and no destination twice within a source.
// Each break is patched into a valid shard section, whose CRC is then
// recomputed, so only the reader's own checks can catch it.
TEST_F(SnapshotTest, RejectsRepeatedScannerSourceOrDestination) {
  // Source 10 -> {20}, source 11 -> {21, 22} in order and {30, 31} beyond it.
  TraceShard shard;
  shard.detector.import_source({10, {20}, {}});
  shard.detector.import_source({11, {21, 22}, {30, 31}});
  const std::vector<std::uint8_t> valid = image_of(shard);
  ASSERT_NO_THROW(snap::decode_snapshot(valid));
  // Scanner payload layout: source count u64, then per source its address,
  // order length, order, extra_seen length and extra_seen (u32s).  It is
  // found inside the shard section by its leading bytes: two sources, the
  // first 10 with one destination, 20.
  const std::uint8_t head[] = {2, 0, 0, 0, 0, 0, 0, 0, 10, 0, 0, 0, 1, 0, 0, 0, 20, 0, 0, 0};
  const auto shard_at = valid.begin() + static_cast<long>(
                                            payload_offset(valid, snap::SectionType::kTraceShard));
  const auto found = std::search(shard_at, valid.end(), std::begin(head), std::end(head));
  ASSERT_NE(found, valid.end());
  ASSERT_EQ(std::search(found + 1, valid.end(), std::begin(head), std::end(head)), valid.end());
  const std::size_t payload = static_cast<std::size_t>(found - valid.begin());
  const std::size_t second_source = payload + 8 + 4 * 4;
  const std::size_t order = second_source + 8;
  const std::size_t extra = order + 2 * 4 + 4;
  ASSERT_EQ(u32_at(valid, second_source), 11u);
  ASSERT_EQ(u32_at(valid, order + 4), 22u);
  ASSERT_EQ(u32_at(valid, extra + 4), 31u);
  struct Case {
    const char* name;
    std::size_t at;
    std::uint32_t value;
    const char* message;
  };
  const std::vector<Case> cases = {
      {"repeated source", second_source, 10, "scanner source 10 not above"},
      {"repeated destination in order", order + 4, 21, "names a destination twice"},
      {"order destination repeated beyond it", extra, 22, "names a destination twice"},
      {"descending extra_seen", extra + 4, 29, "extra_seen 29 not above"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<std::uint8_t> bytes = valid;
    set_u32(bytes, c.at, c.value);
    reseal(bytes, snap::SectionType::kTraceShard);
    try {
      snap::decode_snapshot(bytes);
      ADD_FAILURE() << "decoded " << c.name;
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.kind(), SnapshotError::Kind::kMalformed) << e.what();
      EXPECT_EQ(e.offset(), c.at) << e.what();
      EXPECT_NE(std::string(e.what()).find(c.message), std::string::npos) << e.what();
    }
  }
}

// ---- the CRC and the file layer ------------------------------------------------

// The reflected IEEE polynomial, one bit at a time: the definition the
// sliced snapshot::crc32 must agree with.
std::uint32_t bitwise_crc32(std::span<const std::uint8_t> bytes) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : bytes) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return c ^ 0xFFFFFFFFu;
}

TEST_F(SnapshotTest, Crc32IsZlibsAtEveryLengthAndAlignment) {
  const std::string check = "123456789";
  const std::span<const std::uint8_t> digits(reinterpret_cast<const std::uint8_t*>(check.data()),
                                             check.size());
  EXPECT_EQ(snap::crc32(digits), 0xCBF43926u);
  EXPECT_EQ(snap::crc32({}), 0u);
  EXPECT_EQ(snap::crc32(digits.subspan(4), snap::crc32(digits.first(4))), 0xCBF43926u);

  std::mt19937_64 rng(23);
  std::vector<std::uint8_t> buffer(64 + 8);
  for (std::uint8_t& b : buffer) b = static_cast<std::uint8_t>(rng());
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t length = 0; length <= 64; ++length) {
      const auto bytes = std::span<const std::uint8_t>(buffer).subspan(start, length);
      const std::uint32_t want = bitwise_crc32(bytes);
      ASSERT_EQ(snap::crc32(bytes), want) << "start " << start << ", length " << length;
      for (std::size_t cut = 0; cut <= length; ++cut) {
        ASSERT_EQ(snap::crc32(bytes.subspan(cut), snap::crc32(bytes.first(cut))), want)
            << "start " << start << ", length " << length << ", chained at " << cut;
      }
    }
  }
}

// A directory opens like a file, but its seek offset is no byte count;
// sizing the read buffer from it asked for an impossible allocation.
TEST_F(SnapshotTest, ReadSnapshotRejectsADirectoryByName) {
  const std::string dir = temp_path("entrace_snap_dir");
  std::filesystem::create_directories(dir);
  try {
    snap::read_snapshot(dir);
    ADD_FAILURE() << "read a directory as a snapshot";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(dir), std::string::npos) << e.what();
  }
  std::filesystem::remove(dir);
}

// Seeded structure-aware mutation, a fixed 2,000 iterations over a
// two-trace D3 image (four sections: dataset meta, two trace shards and the
// end marker).  Each iteration picks one section and rewrites its
// type, its length (past the end of the file too) or 1, 4 or 8 payload
// bytes (random, zero, all-ones or a huge count), then recomputes the
// section's CRC, so the damage reaches the field decoders rather than
// stopping at the CRC check.  Decode must succeed or throw SnapshotError:
// any other exception fails here, and a crash or a sanitizer report fails
// the run (`ctest --preset snapshot-asan`).
TEST_F(SnapshotTest, StructureAwareMutationIsDecodedOrRejected) {
  const std::vector<std::uint8_t> image = [] {
    EnterpriseModel m;
    const SyntheticTraceSourceSet d3(dataset_by_name("D3", 0.004), m);
    std::vector<TraceShard> shards =
        analyze_trace_shards(d3, default_config_for_model(m.site()), 0, 2);
    std::ostringstream out(std::ios::binary);
    snap::SnapshotWriter writer(out, {"D3", 0.004, static_cast<std::uint32_t>(d3.size())});
    for (std::size_t i = 0; i < shards.size(); ++i) {
      writer.add_shard(static_cast<std::uint32_t>(i), shards[i]);
    }
    writer.close();
    const std::string bytes = std::move(out).str();
    return std::vector<std::uint8_t>(bytes.begin(), bytes.end());
  }();
  ASSERT_NO_THROW(snap::decode_snapshot(image));

  const std::vector<std::size_t> sections = section_offsets(image);
  ASSERT_EQ(sections.size(), 4u);

  const std::uint64_t extremes[] = {0, ~std::uint64_t{0}, 0xFFFFFFFFu, 0x7FFFFFFFu,
                                    std::uint64_t{1} << 40, 1};
  std::size_t accepted = 0, field_rejects = 0, escapes = 0;
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    std::mt19937_64 rng(seed);
    std::vector<std::uint8_t> bytes = image;
    const std::size_t at = sections[rng() % sections.size()];
    const std::size_t payload = at + snap::kSectionHeaderSize;
    const std::uint64_t old_length = section_length(image, at);
    std::uint64_t length = old_length;
    const char* what = "";
    switch (rng() % 3) {
      case 0: {
        what = "type";
        // Assigned, retired (0x10-0x19) and random types.
        const std::uint32_t types[] = {0x01, 0x10, 0x11, 0x15, 0x19, 0x20, 0x7F,
                                       static_cast<std::uint32_t>(rng())};
        set_u32(bytes, at, types[rng() % std::size(types)]);
        break;
      }
      case 1: {
        what = "length";
        const std::uint64_t lengths[] = {rng() % (2 * old_length + 16),
                                         old_length + 1 - rng() % 3,
                                         bytes.size() - payload + rng() % 8,
                                         bytes.size() + rng() % 4096,
                                         extremes[rng() % std::size(extremes)]};
        length = lengths[rng() % std::size(lengths)];
        set_u64(bytes, at + 4, length);
        break;
      }
      default: {
        what = "payload";
        const std::size_t widths[] = {1, 4, 8};
        const std::size_t w = widths[rng() % std::size(widths)];
        if (old_length < w) continue;
        const std::size_t field = payload + rng() % (old_length - w + 1);
        const std::uint64_t value =
            rng() % 2 == 0 ? rng() : extremes[rng() % std::size(extremes)];
        for (std::size_t i = 0; i < w; ++i) {
          bytes[field + i] = static_cast<std::uint8_t>(value >> (8 * i));
        }
        break;
      }
    }
    // Reseal: the CRC of the (possibly re-lengthed) payload, where the
    // reader will look for it.
    if (length <= bytes.size() - payload && bytes.size() - payload - length >= 4) {
      set_u32(bytes, payload + length,
              snap::crc32(std::span<const std::uint8_t>(bytes.data() + payload, length)));
    }
    try {
      snap::decode_snapshot(bytes);
      ++accepted;
    } catch (const SnapshotError& e) {
      if (std::string(e.what()).find("CRC mismatch") == std::string::npos) ++field_rejects;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "seed " << seed << " (" << what << " of the section at byte " << at
                    << ") escaped as " << typeid(e).name() << ": " << e.what();
      if (++escapes == 10) break;
    }
  }
  // Mutations got past the CRC into the decoders: some decode, and some
  // are caught by a field or framing check rather than by the CRC.
  std::printf("structure-aware mutation: %zu decoded, %zu rejected by a field or framing check\n",
              accepted, field_rejects);
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(field_rejects, 0u);
}

TEST_F(SnapshotTest, WriterRefusesOutOfOrderShards) {
  std::vector<TraceShard> shards = analyze_trace_shards(sources(), config(), 0, 2);
  const std::string path = temp_path("entrace_snap_order.esnap");
  snap::SnapshotWriter writer(path, meta());
  writer.add_shard(1, shards[1]);
  EXPECT_THROW(writer.add_shard(0, shards[0]), std::runtime_error);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace entrace
