// Network load analysis (§6) — Figure 9 utilization distributions and
// Figure 10 TCP retransmission rates.
//
// The core pipeline fills one TraceLoadRaw per trace (utilization interval
// series at three timescales plus retransmission tallies split by
// locality); LoadAnalysis turns those into the paper's distributions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/stats.h"

namespace entrace {

struct TraceLoadRaw {
  std::string trace_name;
  IntervalSeries bits_1s{1.0};
  IntervalSeries bits_10s{10.0};
  IntervalSeries bits_60s{60.0};

  // TCP data packets (potential retransmissions), keepalives excluded.
  std::uint64_t ent_tcp_pkts = 0;
  std::uint64_t ent_retx = 0;
  std::uint64_t wan_tcp_pkts = 0;
  std::uint64_t wan_retx = 0;
  std::uint64_t keepalive_excluded = 0;

  void add_packet(double ts, std::uint32_t wire_len) {
    const double bits = 8.0 * wire_len;
    bits_1s.add(ts, bits);
    bits_10s.add(ts, bits);
    bits_60s.add(ts, bits);
  }

  // Fold another shard of the same trace (sub-trace parallelism); the
  // utilization bins sum and the retransmission tallies add.
  void merge(const TraceLoadRaw& other) {
    bits_1s.merge(other.bits_1s);
    bits_10s.merge(other.bits_10s);
    bits_60s.merge(other.bits_60s);
    ent_tcp_pkts += other.ent_tcp_pkts;
    ent_retx += other.ent_retx;
    wan_tcp_pkts += other.wan_tcp_pkts;
    wan_retx += other.wan_retx;
    keepalive_excluded += other.keepalive_excluded;
  }
};

struct LoadAnalysis {
  // Figure 9(a): peak utilization per trace (Mbps), three timescales.
  EmpiricalCdf peak_1s, peak_10s, peak_60s;
  // Figure 9(b): per-trace summary statistics over 1-second intervals.
  EmpiricalCdf min_1s, max_1s, avg_1s, p25_1s, median_1s, p75_1s;
  // Figure 10: per-trace retransmission rates (fraction of packets).
  EmpiricalCdf retx_ent, retx_wan;
  std::vector<double> retx_ent_by_trace, retx_wan_by_trace;
  std::vector<std::string> trace_names;
  std::uint64_t keepalives_excluded = 0;

  // min_packets: traces with fewer TCP packets in a locality class are
  // skipped for Figure 10 (the paper requires at least 1000 packets).
  static LoadAnalysis compute(const std::vector<TraceLoadRaw>& traces,
                              std::uint64_t min_packets = 1000);

  // One trace's peak utilization (Mbps) at the series' timescale: its
  // busiest bin's bits over the bin width.
  static double peak_mbps(const IntervalSeries& series);
};

}  // namespace entrace
