#include "analysis/load.h"

#include <algorithm>

namespace entrace {
namespace {

constexpr double kMbps = 1e6;

double peak_of(const std::vector<double>& bits, double bin_width) {
  double best = 0.0;
  for (double b : bits) best = std::max(best, b / bin_width);
  return best / kMbps;
}

}  // namespace

double LoadAnalysis::peak_mbps(const IntervalSeries& series) {
  return peak_of(series.values(), series.bin_width());
}

LoadAnalysis LoadAnalysis::compute(const std::vector<TraceLoadRaw>& traces,
                                   std::uint64_t min_packets) {
  LoadAnalysis out;
  for (const auto& t : traces) {
    out.trace_names.push_back(t.trace_name);
    out.keepalives_excluded += t.keepalive_excluded;
    if (!t.bits_1s.empty()) {
      const std::vector<double> bits_1s = t.bits_1s.values();
      out.peak_1s.add(peak_of(bits_1s, t.bits_1s.bin_width()));
      out.peak_10s.add(peak_mbps(t.bits_10s));
      out.peak_60s.add(peak_mbps(t.bits_60s));

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
