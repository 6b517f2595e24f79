// The .esnap wire format: framing, versioning, and the byte-level
// encode/decode primitives shared by writer and reader.
//
// A snapshot file persists the per-trace analysis shards (core/analyzer.h
// TraceShard) of a subset of a dataset's traces, so that shard processes on
// different machines can analyze disjoint trace ranges and a merge process
// can fold the snapshots into a DatasetAnalysis bit-identical to a
// single-process run.  Layout:
//
//   file    := magic[8] version:u32 dataset-meta trace-shard* end
//   section := type:u32 length:u64 payload[length] crc32:u32
//
// All integers are little-endian regardless of host byte order; doubles
// travel as the little-endian bytes of their IEEE-754 bit pattern.  The
// CRC-32 (IEEE/zlib polynomial) covers the payload bytes only, so every
// section is independently verifiable.  Section types form a registry
// (SectionType below).  Each trace shard is one section: its global trace
// index (strictly ascending through the file), then the shard's payloads
// in a fixed order.  The payloads are spelled once, in snapshot/codec.h.
//
// Decode treats files as untrusted input: bad magic, unsupported versions,
// truncation (at the file, section, or field level), CRC mismatches,
// unknown section types and out-of-range enum bytes are all rejected with
// a SnapshotError naming the absolute byte offset — never undefined
// behavior.  A version bump is required for any change to section layout;
// readers reject versions they do not know (no silent forward parsing).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace entrace::snapshot {

inline constexpr std::size_t kMagicSize = 8;
inline constexpr char kMagic[kMagicSize] = {'E', 'N', 'T', 'R', 'S', 'N', 'A', 'P'};
// v2: a trace-metrics section (0x19) added to the per-trace run, and the
// anomaly taxonomy gained kTcpTupleReuse (the capture-quality payload
// embeds the kind count, so v1 readers reject v2 files at the version check
// first).
// v3: each encoded connection carries open_seq (u64, per-trace open order),
// the reassembly key the windowed incremental engine uses to merge
// per-window connection deltas back into exact batch deque order.
// v4: an application event carries its connection's two addresses instead
// of a connection index, and ip-proto-counts (0x11, unread) is retired.
// v5: a trace shard is one section (0x20) instead of a run of nine, and its
// load is the 1 s utilization series alone (no bin width, no 10 s and 60 s
// series); a dynamic endpoint is (server, port) without a flag byte.
// v6: a shard carries only what a report line, a metric, a digest or a
// shipped tool reads (DESIGN.md §9): no subnet id, dynamic endpoints or
// known-scanner list; SMTP commands and EPM mappings are u64 counts; the
// event fields nothing reads and the TCP engine's flags, ISNs,
// retransmission count and ICMP type are gone from the records.
inline constexpr std::uint32_t kFormatVersion = 6;
// magic + version: where the first section begins.
inline constexpr std::size_t kHeaderSize = kMagicSize + 4;
// type + length preceding each payload, and the trailing crc.
inline constexpr std::size_t kSectionHeaderSize = 4 + 8;
inline constexpr std::size_t kSectionTrailerSize = 4;

// The section registry: the dataset's metadata first, then one section per
// trace shard, then the end marker.
enum class SectionType : std::uint32_t {
  kDatasetMeta = 0x01,  // dataset name, scale, total trace count
  // 0x10-0x19 were the nine per-trace sections of v1-v4 (0x11,
  // ip-proto-counts, retired in v4), folded into kTraceShard in v5; never
  // reuse them.
  kTraceShard = 0x20,  // trace index, then the shard's payloads (codec.h)
  kEnd = 0x7F,         // zero-length terminator; absence means truncation
};

// Stable name for error messages and tests.
const char* to_string(SectionType type);

// CRC-32 (IEEE 802.3 polynomial, reflected — the zlib crc32) over bytes.
// Like zlib's, it continues a running CRC: crc32(b, crc32(a)) is the CRC
// of a followed by b.  Computed by slicing-by-8: eight bytes per step
// through eight 256-entry tables, then the tail one byte at a time.
std::uint32_t crc32(std::span<const std::uint8_t> bytes, std::uint32_t crc = 0);

// Decode failure; `offset` is the absolute file offset the failure was
// detected at, and what() always names it.  `kind` separates a cut-short
// file (a worker died mid-write; the bytes that exist may be fine), which
// the dispatch coordinator accounts as its own worker fault
// (cluster/fault.h), from a malformed one, and both from a whole file of
// another format version, which daemon recovery keeps (retention.h).
class SnapshotError : public std::runtime_error {
 public:
  enum class Kind : std::uint8_t {
    kMalformed,     // structural damage: bad magic/CRC/enums/framing
    kTruncated,     // the file ends before the declared content does
    kOtherVersion,  // a whole file of a format version not this build's
  };

  SnapshotError(std::size_t offset, const std::string& message, Kind kind = Kind::kMalformed)
      : std::runtime_error("snapshot error at byte offset " + std::to_string(offset) + ": " +
                           message),
        offset_(offset),
        kind_(kind) {}

  std::size_t offset() const { return offset_; }
  Kind kind() const { return kind_; }

 private:
  std::size_t offset_;
  Kind kind_;
};

// ---- little-endian encode ---------------------------------------------------

// Appends little-endian fields to one growing buffer.  The writer frames
// sections in it in place (writer.cc): it appends a section header with a
// placeholder length, the payload after it, then patches the length.  A
// field append is one capacity check and one 8-byte store; the stored bytes
// past the field lie beyond size(), where the next append overwrites them.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { append(v, 1); }
  void u16(std::uint16_t v) { append(v, 2); }
  void u32(std::uint32_t v) { append(v, 4); }
  void u64(std::uint64_t v) { append(v, 8); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    room(s.size());
    std::memcpy(buf_.data() + size_, s.data(), s.size());
    size_ += s.size();
  }

  // Overwrite the u64 at `at`, which an earlier u64() wrote.
  void patch_u64(std::size_t at, std::uint64_t v) { store(at, v); }

  std::span<const std::uint8_t> bytes() const { return {buf_.data(), size_}; }
  std::size_t size() const { return size_; }
  // Empty the buffer and keep its capacity.
  void clear() { size_ = 0; }

 private:
  // At least n writable bytes past size_.
  void room(std::size_t n) {
    if (buf_.size() - size_ < n) buf_.resize(std::max(2 * buf_.size(), size_ + n));
  }
  void store(std::size_t at, std::uint64_t v) {
    if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
    std::memcpy(buf_.data() + at, &v, sizeof(v));
  }
  // The low n bytes of v.
  void append(std::uint64_t v, std::size_t n) {
    room(sizeof(v));
    store(size_, v);
    size_ += n;
  }

  std::vector<std::uint8_t> buf_;  // its size is the capacity
  std::size_t size_ = 0;           // the bytes written
};

// ---- little-endian decode ---------------------------------------------------

// Reads a section payload; `base_offset` is the payload's absolute file
// offset so every underflow error names the exact byte it happened at.
class ByteReader {
 public:
  ByteReader(std::span<const std::uint8_t> bytes, std::size_t base_offset)
      : bytes_(bytes), base_(base_offset) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(take(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(take(4)); }
  std::uint64_t u64() { return take(8); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    need(n, "string body");
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }
  std::size_t offset() const { return base_ + pos_; }

  // Every payload must be consumed exactly; trailing bytes mean the
  // section layout and the format version disagree.
  void expect_end(const char* section_name) {
    if (pos_ != bytes_.size()) {
      throw SnapshotError(offset(), std::string(section_name) + " section has " +
                                        std::to_string(remaining()) +
                                        " undecoded trailing bytes");
    }
  }

 private:
  std::uint64_t take(int n) {
    need(static_cast<std::size_t>(n), "field");
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(bytes_[pos_ + static_cast<std::size_t>(i)]) << (8 * i);
    }
    pos_ += static_cast<std::size_t>(n);
    return v;
  }
  void need(std::size_t n, const char* what) {
    if (bytes_.size() - pos_ < n) {
      throw SnapshotError(offset(), std::string("section payload truncated: need ") +
                                        std::to_string(n) + " more bytes for " + what +
                                        ", payload has " + std::to_string(remaining()));
    }
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t base_;
  std::size_t pos_ = 0;
};

// Dataset-level metadata: enough for entrace_merge to rebuild the
// DatasetSpec (report headers need it) and to check shard compatibility.
struct SnapshotMeta {
  std::string dataset;           // "D0".."D4" (dataset_by_name key)
  double scale = 0.0;            // generation scale, bit-exact
  std::uint32_t trace_count = 0; // traces in the FULL dataset, not this file

  friend bool operator==(const SnapshotMeta&, const SnapshotMeta&) = default;
};

}  // namespace entrace::snapshot
