#include "snapshot/reader.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <utility>

#include "snapshot/codec.h"
#include "util/net_io.h"

namespace entrace::snapshot {

namespace {

std::string hex_bytes(std::span<const std::uint8_t> bytes) {
  std::string out;
  char buf[4];
  for (const std::uint8_t b : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", b);
    out += buf;
  }
  return out;
}

struct Decoder {
  std::span<const std::uint8_t> bytes;
  std::size_t pos = 0;
  Snapshot out;
  bool saw_meta = false;

  void check_header() {
    if (bytes.size() < kHeaderSize) {
      throw SnapshotError(bytes.size(),
                          "file too short for the " + std::to_string(kHeaderSize) +
                              "-byte header",
                          SnapshotError::Kind::kTruncated);
    }
    if (std::memcmp(bytes.data(), kMagic, kMagicSize) != 0) {
      throw SnapshotError(0, "bad magic " + hex_bytes(bytes.subspan(0, kMagicSize)) +
                                 " (expected " +
                                 hex_bytes({reinterpret_cast<const std::uint8_t*>(kMagic),
                                            kMagicSize}) +
                                 ")");
    }
    ByteReader r(bytes.subspan(kMagicSize, 4), kMagicSize);
    const std::uint32_t version = r.u32();
    pos = kHeaderSize;
    if (version != kFormatVersion) {
      // Only a whole file is another version's: the section framing (type,
      // length, payload, CRC, end marker) is the same in every version so
      // far, so a torn or damaged file fails it here and says so instead.
      while (next_section().first != SectionType::kEnd) {
      }
      throw SnapshotError(kMagicSize,
                          "format version " + std::to_string(version) +
                              " unsupported (this reader knows version " +
                              std::to_string(kFormatVersion) + ")",
                          SnapshotError::Kind::kOtherVersion);
    }
  }

  // Reads one framed section, verifies its CRC, returns (type, payload).
  std::pair<SectionType, std::span<const std::uint8_t>> next_section() {
    if (bytes.size() - pos < kSectionHeaderSize) {
      throw SnapshotError(pos,
                          "file truncated inside a section header (" +
                              std::to_string(bytes.size() - pos) + " of " +
                              std::to_string(kSectionHeaderSize) + " bytes present)",
                          SnapshotError::Kind::kTruncated);
    }
    ByteReader header(bytes.subspan(pos, kSectionHeaderSize), pos);
    const std::uint32_t raw_type = header.u32();
    const std::uint64_t length = header.u64();
    const std::size_t payload_at = pos + kSectionHeaderSize;
    if (length > bytes.size() - payload_at ||
        kSectionTrailerSize > bytes.size() - payload_at - length) {
      throw SnapshotError(payload_at,
                          "file truncated inside the " + std::string(to_string(
                              static_cast<SectionType>(raw_type))) +
                              " section: payload of " + std::to_string(length) +
                              "+4 bytes declared, " + std::to_string(bytes.size() - payload_at) +
                              " bytes remain",
                          SnapshotError::Kind::kTruncated);
    }
    const std::span<const std::uint8_t> payload = bytes.subspan(payload_at, length);
    ByteReader trailer(bytes.subspan(payload_at + length, kSectionTrailerSize),
                       payload_at + length);
    const std::uint32_t stored = trailer.u32();
    const std::uint32_t computed = crc32(payload);
    if (stored != computed) {
      char msg[128];
      std::snprintf(msg, sizeof(msg), "CRC mismatch in the %s section (stored 0x%08x, computed 0x%08x)",
                    to_string(static_cast<SectionType>(raw_type)), stored, computed);
      throw SnapshotError(payload_at + length, msg);
    }
    pos = payload_at + length + kSectionTrailerSize;
    return {static_cast<SectionType>(raw_type), payload};
  }

  void run() {
    check_header();
    while (true) {
      const std::size_t section_at = pos;
      const auto [type, payload] = next_section();
      ByteReader r(payload, section_at + kSectionHeaderSize);
      if (type == SectionType::kEnd) {
        if (!saw_meta) throw SnapshotError(section_at, "end section before dataset-meta");
        r.expect_end("end");
        if (pos != bytes.size()) {
          throw SnapshotError(pos, std::to_string(bytes.size() - pos) +
                                       " trailing bytes after the end section");
        }
        return;
      }
      if (!saw_meta) {
        if (type != SectionType::kDatasetMeta) {
          throw SnapshotError(section_at, "first section is " + std::string(to_string(type)) +
                                              ", expected dataset-meta");
        }
        decode_meta(r, out.meta);
        r.expect_end("dataset-meta");
        saw_meta = true;
        continue;
      }
      if (type != SectionType::kTraceShard) {
        throw SnapshotError(section_at, "section type " + std::to_string(
                                            static_cast<std::uint32_t>(type)) +
                                            " where a trace shard or the end belongs");
      }
      decode_trace_shard(r);
    }
  }

  void decode_trace_shard(ByteReader& r) {
    const std::uint32_t index = r.u32();
    if (!out.shards.empty() && index <= out.shards.back().trace_index) {
      throw SnapshotError(r.offset() - 4,
                          "trace index " + std::to_string(index) + " not ascending (previous " +
                              std::to_string(out.shards.back().trace_index) + ")");
    }
    SnapshotShard& s = out.shards.emplace_back();
    s.trace_index = index;
    decode_shard(r, s.shard);
    r.expect_end("trace-shard");
  }
};

}  // namespace

Snapshot decode_snapshot(std::span<const std::uint8_t> bytes) {
  Decoder decoder;
  decoder.bytes = bytes;
  decoder.run();
  return std::move(decoder.out);
}

std::string describe_range_mismatch(const Snapshot& snap, const SnapshotMeta& expected,
                                    std::size_t lo, std::size_t hi) {
  if (!(snap.meta == expected)) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "snapshot is %s scale %.17g with %u traces, expected %s scale %.17g with %u",
                  snap.meta.dataset.c_str(), snap.meta.scale, snap.meta.trace_count,
                  expected.dataset.c_str(), expected.scale, expected.trace_count);
    return buf;
  }
  if (snap.shards.size() != hi - lo) {
    return "snapshot holds " + std::to_string(snap.shards.size()) + " shards, expected " +
           std::to_string(hi - lo) + " for traces [" + std::to_string(lo) + ", " +
           std::to_string(hi) + ")";
  }
  // The decoder enforces strictly ascending indices, but this helper is the
  // trust boundary for skipping or accepting work — verify contiguity
  // independently instead of assuming the decode path did.
  for (std::size_t i = 0; i < snap.shards.size(); ++i) {
    const std::uint32_t want = static_cast<std::uint32_t>(lo + i);
    if (snap.shards[i].trace_index != want) {
      return "shard " + std::to_string(i) + " is trace " +
             std::to_string(snap.shards[i].trace_index) + ", expected trace " +
             std::to_string(want) + " of [" + std::to_string(lo) + ", " + std::to_string(hi) +
             ")";
    }
  }
  return std::string();
}

Snapshot read_snapshot(const std::string& path) {
  const util::ScopedFd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (!fd.valid()) throw std::runtime_error("snapshot reader: cannot open " + path);
  // A directory opens too, and its size is no byte count: only a regular
  // file is read.
  struct stat st {};
  if (::fstat(fd.get(), &st) != 0) throw std::runtime_error("snapshot reader: cannot stat " + path);
  if (!S_ISREG(st.st_mode)) {
    throw std::runtime_error("snapshot reader: " + path + " is not a regular file");
  }
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(st.st_size));
  std::size_t got = 0;
  while (got < bytes.size()) {
    const ssize_t n = ::read(fd.get(), bytes.data() + got, bytes.size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) throw std::runtime_error("snapshot reader: cannot read " + path);
    if (n == 0) break;  // the file shrank: decode rejects what is missing
    got += static_cast<std::size_t>(n);
  }
  bytes.resize(got);
  return decode_snapshot(bytes);
}

}  // namespace entrace::snapshot
