#include "analysis/load.h"

#include <algorithm>

namespace entrace {
namespace {

constexpr double kMbps = 1e6;

// Floor division: a negative second belongs to the interval below zero.
std::int64_t interval_of(std::int64_t bin, std::int64_t seconds) {
  const std::int64_t q = bin / seconds;
  return q * seconds > bin ? q - 1 : q;
}

}  // namespace

double LoadAnalysis::peak_mbps(const IntervalSeries& series, std::int64_t seconds) {
  // The bins are in ascending order, so each interval's bins are adjacent.
  const auto width = static_cast<double>(seconds);
  double best = 0.0;
  double sum = 0.0;
  std::int64_t interval = 0;
  for (const auto& [bin, bits] : series.bins()) {
    const std::int64_t i = interval_of(bin, seconds);
    if (i != interval) {
      best = std::max(best, sum / width);
      sum = 0.0;
      interval = i;
    }
    sum += bits;
  }
  return std::max(best, sum / width) / kMbps;
}

LoadAnalysis LoadAnalysis::compute(const std::vector<TraceLoadRaw>& traces,
                                   std::uint64_t min_packets) {
  LoadAnalysis out;
  for (const auto& t : traces) {
    out.trace_names.push_back(t.trace_name);
    out.keepalives_excluded += t.keepalive_excluded;
    if (!t.bits_1s.empty()) {
      const std::vector<double> bits_1s = t.bits_1s.values();
      out.peak_1s.add(peak_mbps(t.bits_1s, 1));
      out.peak_10s.add(peak_mbps(t.bits_1s, 10));
      out.peak_60s.add(peak_mbps(t.bits_1s, 60));

      EmpiricalCdf one_sec;
      for (double bits : bits_1s) one_sec.add(bits / kMbps);
      out.min_1s.add(one_sec.min());
      out.max_1s.add(one_sec.max());
      out.avg_1s.add(one_sec.mean());
      out.p25_1s.add(one_sec.quantile(0.25));
      out.median_1s.add(one_sec.median());
      out.p75_1s.add(one_sec.quantile(0.75));
    }
    if (t.ent_tcp_pkts >= min_packets) {
      const double rate =
          static_cast<double>(t.ent_retx) / static_cast<double>(t.ent_tcp_pkts);
      out.retx_ent.add(rate);
      out.retx_ent_by_trace.push_back(rate);
    } else {
      out.retx_ent_by_trace.push_back(-1.0);
    }
    if (t.wan_tcp_pkts >= min_packets) {
      const double rate =
          static_cast<double>(t.wan_retx) / static_cast<double>(t.wan_tcp_pkts);
      out.retx_wan.add(rate);
      out.retx_wan_by_trace.push_back(rate);
    } else {
      out.retx_wan_by_trace.push_back(-1.0);
    }
  }
  return out;
}

}  // namespace entrace
