// Structured anomaly taxonomy for malformed capture input.
//
// Real captures (the paper's LBNL traces included) are full of measurement
// artifacts: snaplen-truncated packets, checksum failures, garbled headers,
// short pcap records.  Instead of silently dropping such input, every layer
// of the pipeline — PcapReader, decode_packet(), the stream parsers — reports
// what it saw into an AnomalyCounts, so a dataset analysis can account for
// every packet: packets_seen == packets_ok + packets_dropped, with the
// anomaly kinds explaining the drops and flags.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>

namespace entrace {

enum class AnomalyKind : std::uint8_t {
  // pcap file layer (counted by PcapReader).
  kPcapShortRecordHeader,  // trailing bytes too short for a 16-byte record header
  kPcapTruncatedRecord,    // record body cut off by EOF (partial bytes salvaged)
  kPcapOversizedRecord,    // caplen exceeds the sanity cap; reader stops

  // Link layer.
  kCaptureEmpty,   // record with zero captured bytes
  kEthTruncated,   // fewer than 14 captured bytes

  // Network layer (IPv4).
  kIpHeaderTruncated,  // capture ends inside the IP header (or its options)
  kIpBadVersion,       // version nibble != 4 on an 0x0800 frame
  kIpBadHeaderLen,     // IHL < 20 bytes
  kIpBadTotalLen,      // total_length shorter than the IP header itself
  kIpChecksumBad,      // header checksum verification failed

  // Transport layer.
  kTcpHeaderTruncated,  // capture ends inside the TCP header/options
  kTcpBadDataOffset,    // data offset < 20 bytes
  kTcpChecksumBad,
  kUdpHeaderTruncated,
  kUdpBadLength,  // UDP length field shorter than the 8-byte header
  kUdpChecksumBad,
  kIcmpTruncated,
  kIcmpChecksumBad,

  // Informational flags on otherwise-decodable packets.
  kSnapTruncated,   // cap_len < wire_len (snaplen clipping)
  kPortZero,        // TCP/UDP with source or destination port 0
  kTcpTupleReuse,   // pure SYN with a new ISN on a live 5-tuple (port reuse)

  // Application layer: a stream parser bailed or resynced on garbage bytes.
  kAppParseError,

  kCount
};

inline constexpr std::size_t kAnomalyKindCount = static_cast<std::size_t>(AnomalyKind::kCount);

// Short stable identifier, e.g. "ip-checksum-bad" (used in reports/tests).
const char* to_string(AnomalyKind kind);

// Flat per-kind counters; mergeable across per-trace shards.
class AnomalyCounts {
 public:
  std::uint64_t& operator[](AnomalyKind k) { return counts_[static_cast<std::size_t>(k)]; }
  std::uint64_t operator[](AnomalyKind k) const { return counts_[static_cast<std::size_t>(k)]; }

  void add(AnomalyKind k, std::uint64_t n = 1) { counts_[static_cast<std::size_t>(k)] += n; }

  void merge(const AnomalyCounts& other) {
    for (std::size_t i = 0; i < kAnomalyKindCount; ++i) counts_[i] += other.counts_[i];
  }

  std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const auto c : counts_) sum += c;
    return sum;
  }
  bool any() const { return total() != 0; }

  // Sparse view for reports and test diffs: only non-zero kinds.
  std::map<std::string, std::uint64_t> as_map() const;

  friend bool operator==(const AnomalyCounts& a, const AnomalyCounts& b) {
    return a.counts_ == b.counts_;
  }

 private:
  std::array<std::uint64_t, kAnomalyKindCount> counts_{};
};

// Per-trace (and merged per-dataset) capture accounting.  The invariant the
// corruption tests assert: packets_seen == packets_ok + packets_dropped.
// "ok" packets may still carry informational anomalies (snap truncation,
// partial L3/L4 decode); "dropped" packets were excluded from analysis
// because not even their addressing could be trusted (empty capture,
// truncated Ethernet header, failed IP/TCP/UDP/ICMP checksum).
struct CaptureQuality {
  std::uint64_t packets_seen = 0;
  std::uint64_t packets_ok = 0;
  std::uint64_t packets_dropped = 0;
  AnomalyCounts anomalies;

  void merge(const CaptureQuality& other) {
    packets_seen += other.packets_seen;
    packets_ok += other.packets_ok;
    packets_dropped += other.packets_dropped;
    anomalies.merge(other.anomalies);
  }

  bool accounted() const { return packets_seen == packets_ok + packets_dropped; }

  friend bool operator==(const CaptureQuality& a, const CaptureQuality& b) {
    return a.packets_seen == b.packets_seen && a.packets_ok == b.packets_ok &&
           a.packets_dropped == b.packets_dropped && a.anomalies == b.anomalies;
  }
};

}  // namespace entrace
