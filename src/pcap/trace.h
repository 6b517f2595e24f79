// Traces and trace sets.
//
// The paper's datasets are collections of per-subnet traces: the tracing
// host rotated through the 18-22 subnets attached to each router, capturing
// each for 10 minutes (D0) or an hour (D1-D4), once or twice per tap.
// A Trace models one such capture (one subnet, one capture window); a
// TraceSet is a whole dataset (D0..D4).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/anomaly.h"
#include "net/packet.h"

namespace entrace {

struct Trace {
  std::string name;        // e.g. "D3-subnet07"
  int subnet_id = -1;      // index of the monitored subnet
  std::uint32_t snaplen = 1500;
  double start_ts = 0.0;   // capture window start (trace epoch seconds)
  double duration = 0.0;   // capture window length
  std::vector<RawPacket> packets;
  // pcap-record-layer anomalies observed while loading this trace from a
  // file (empty for generated traces).
  AnomalyCounts file_anomalies;

  std::uint64_t total_wire_bytes() const;

  // Round-trip through the pcap file format.  load() reads a file as
  // PcapFileSource does: corrupt trailing records are salvaged/skipped and
  // counted in file_anomalies.  It throws std::runtime_error when the file
  // itself cannot be opened or has a malformed global header.
  void save(const std::string& path) const;
  static Trace load(const std::string& path, const std::string& name = "", int subnet_id = -1);
};

struct TraceSet {
  std::string dataset_name;  // "D0".."D4"
  std::vector<Trace> traces;

  std::uint64_t total_packets() const;
  std::uint64_t total_wire_bytes() const;

  // The paper's per-dataset aggregate view (all traces merged into
  // timestamp order) is a streaming k-way merge now: see merged_stream()
  // in pcap/packet_source.h.
};

}  // namespace entrace
