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

// Figure 9(b)'s statistics of one trace: the 1 s utilization (Mbps) of
// every second from the first populated bin to the last, a second without
// a bin counting as zero.  They are EmpiricalCdf's min, max, mean and
// type-7 quantiles over that dense series, computed from the sparse bins
// plus the count of empty seconds, so a far-off timestamp costs nothing:
// in ascending order the empty seconds' zeros sit between the negative
// and the other populated values, and the mean sums in that order (adding
// 0.0 once stands for adding it any number of times).
struct SecondStats {
  double min, max, mean, p25, median, p75;
};

SecondStats one_second_stats(const IntervalSeries& series) {
  const auto& bins = series.bins();
  std::vector<double> values;
  values.reserve(bins.size());
  for (const auto& [bin, bits] : bins) values.push_back(bits / kMbps);
  std::sort(values.begin(), values.end());
  const std::uint64_t n = static_cast<std::uint64_t>(bins.rbegin()->first) -
                          static_cast<std::uint64_t>(bins.begin()->first) + 1;
  const std::uint64_t zeros = n - values.size();
  const auto below = static_cast<std::uint64_t>(
      std::lower_bound(values.begin(), values.end(), 0.0) - values.begin());
  // The i-th smallest of the n seconds.
  const auto at = [&](std::uint64_t i) {
    if (i < below) return values[i];
    if (i - below < zeros) return 0.0;
    return values[i - zeros];
  };
  const auto quantile = [&](double q) {
    const double pos = q * static_cast<double>(n - 1);
    const auto lo = static_cast<std::uint64_t>(pos);
    const std::uint64_t hi = std::min(lo + 1, n - 1);
    const double frac = pos - static_cast<double>(lo);
    return at(lo) * (1.0 - frac) + at(hi) * frac;
  };
  double sum = 0.0;
  for (std::uint64_t i = 0; i < below; ++i) sum += values[i];
  if (zeros > 0) sum += 0.0;
  for (std::uint64_t i = below; i < values.size(); ++i) sum += values[i];
  return {at(0),          at(n - 1),      sum / static_cast<double>(n),
          quantile(0.25), quantile(0.5), quantile(0.75)};
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
    out.keepalives_excluded += t.keepalive_excluded;
    if (!t.bits_1s.empty()) {
      out.peak_1s.add(peak_mbps(t.bits_1s, 1));
      out.peak_10s.add(peak_mbps(t.bits_1s, 10));
      out.peak_60s.add(peak_mbps(t.bits_1s, 60));

      const SecondStats one_sec = one_second_stats(t.bits_1s);
      out.min_1s.add(one_sec.min);
      out.max_1s.add(one_sec.max);
      out.avg_1s.add(one_sec.mean);
      out.p25_1s.add(one_sec.p25);
      out.median_1s.add(one_sec.median);
      out.p75_1s.add(one_sec.p75);
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
