#include "synth/generator.h"

#include <algorithm>
#include <cmath>

#include "synth/apps.h"

namespace entrace {

// ---- GenContext -------------------------------------------------------------

HostRef GenContext::other_internal() {
  int s = subnet_;
  while (s == subnet_) {
    s = static_cast<int>(rng_.uniform_int(0, static_cast<std::uint64_t>(
                                                 EnterpriseModel::kMaxSubnets - 1)));
  }
  return model_.host(s, pick_host_index());
}

HostRef GenContext::external() {
  // Zipf-ish popularity across a large pool.
  return model_.external_host(rng_.zipf(20000, 0.7));
}

std::uint32_t GenContext::pick_host_index() {
  // Mildly skewed host activity: a few busy hosts per subnet, a long tail
  // of quiet ones.
  return static_cast<std::uint32_t>(rng_.zipf(EnterpriseModel::kHostsPerSubnet, 0.45));
}

std::vector<double> GenContext::arrivals(double expected_at_scale1, double headroom) {
  return arrivals_abs(expected_at_scale1 * spec_.scale, headroom);
}

std::vector<double> GenContext::arrivals_abs(double expected, double headroom) {
  const auto whole = static_cast<std::size_t>(expected);
  std::size_t n = whole + (rng_.bernoulli(expected - static_cast<double>(whole)) ? 1 : 0);
  std::vector<double> times;
  times.reserve(n);
  const double span = duration() * (1.0 - headroom);
  for (std::size_t i = 0; i < n; ++i) times.push_back(t0_ + rng_.uniform() * span);
  std::sort(times.begin(), times.end());
  return times;
}

std::size_t GenContext::scaled_count(double expected_at_scale1) {
  const double expected = expected_at_scale1 * spec_.scale;
  const auto whole = static_cast<std::size_t>(expected);
  return whole + (rng_.bernoulli(expected - static_cast<double>(whole)) ? 1 : 0);
}

TcpOptions GenContext::lan_tcp() const {
  TcpOptions opt;
  opt.rtt = 0.0004;
  opt.rate_bps = 90e6;
  opt.loss_rate = 0.0008;  // <1% internal retransmission rates (Figure 10)
  return opt;
}

TcpOptions GenContext::wan_tcp() const {
  TcpOptions opt;
  opt.rtt = 0.025 + 0.05 * (spec_.seed % 3);  // stable per-dataset WAN RTT band
  opt.rate_bps = 6e6;
  opt.loss_rate = 0.004;  // WAN retransmission rates exceed internal ones
  return opt;
}

// ---- dataset generation ---------------------------------------------------------

TracePlan plan_trace(const DatasetSpec& spec, int subnet, int rep, int trace_index) {
  TracePlan plan;
  plan.name = spec.name + "-s" + (subnet < 10 ? "0" : "") + std::to_string(subnet) +
              (spec.traces_per_subnet > 1 ? "-r" + std::to_string(rep) : "");
  plan.subnet = subnet;
  plan.rep = rep;
  plan.trace_index = trace_index;
  // Successive windows model the tap rotation through the subnets.
  plan.start_ts = static_cast<double>(trace_index) * (spec.trace_duration + 30.0);
  plan.duration = spec.trace_duration;
  plan.snaplen = spec.snaplen;
  return plan;
}

std::vector<TracePlan> plan_dataset(const DatasetSpec& spec) {
  std::vector<TracePlan> plans;
  int trace_index = 0;
  for (int rep = 0; rep < spec.traces_per_subnet; ++rep) {
    for (int subnet : spec.monitored_subnets) {
      plans.push_back(plan_trace(spec, subnet, rep, trace_index));
      ++trace_index;
    }
  }
  return plans;
}

void emit_trace(const DatasetSpec& spec, const EnterpriseModel& model, const TracePlan& plan,
                PacketSink& sink) {
  Rng root(spec.seed * 0x1000193 + static_cast<std::uint64_t>(plan.trace_index) * 0x9E37 + 17);
  Rng rng = root.fork(static_cast<std::uint64_t>(plan.subnet) * 131 +
                      static_cast<std::uint64_t>(plan.rep));
  GenContext ctx(sink, rng, model, spec, plan.subnet, plan.start_ts,
                 plan.start_ts + plan.duration);

  gen_web(ctx);
  gen_email(ctx);
  gen_name(ctx);
  gen_windows(ctx);
  gen_netfile(ctx);
  gen_backup(ctx);
  gen_other(ctx);
  gen_background(ctx);
  gen_scanner(ctx);
}

Trace generate_trace(const DatasetSpec& spec, const EnterpriseModel& model,
                     const TracePlan& plan) {
  Trace trace;
  trace.name = plan.name;
  trace.subnet_id = plan.subnet;
  trace.snaplen = plan.snaplen;
  trace.start_ts = plan.start_ts;
  trace.duration = plan.duration;

  PacketSink sink(trace);
  emit_trace(spec, model, plan, sink);

  std::stable_sort(trace.packets.begin(), trace.packets.end(),
                   [](const RawPacket& a, const RawPacket& b) { return a.ts < b.ts; });
  // Drop anything an app emitted past the capture window (the tap moved on).
  while (!trace.packets.empty() && trace.packets.back().ts > trace.start_ts + trace.duration) {
    trace.packets.pop_back();
  }
  return trace;
}

TraceSet generate_dataset(const DatasetSpec& spec, const EnterpriseModel& model) {
  TraceSet set;
  set.dataset_name = spec.name;
  for (const TracePlan& plan : plan_dataset(spec)) {
    set.traces.push_back(generate_trace(spec, model, plan));
  }
  return set;
}

}  // namespace entrace
