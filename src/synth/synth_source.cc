#include "synth/synth_source.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace entrace {

SyntheticTraceSource::SyntheticTraceSource(const DatasetSpec& spec,
                                           const EnterpriseModel& model, TracePlan plan,
                                           SyntheticSourceOptions options)
    : spec_(spec),
      model_(model),
      plan_(std::move(plan)),
      slices_(std::max(1, options.slices)),
      double_buffer_(options.double_buffer) {
  // A window too short to cut meaningfully degenerates to one slice.
  if (plan_.duration <= 0.0) slices_ = 1;
  // With a single slice there is nothing to run ahead of.
  if (slices_ == 1) double_buffer_ = false;
  meta_.name = plan_.name;
  meta_.subnet_id = plan_.subnet;
  meta_.snaplen = plan_.snaplen;
  meta_.start_ts = plan_.start_ts;
  meta_.duration = plan_.duration;
}

SyntheticTraceSource::~SyntheticTraceSource() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
    back_ready_ = false;  // unblock a producer waiting for the swap
  }
  cv_.notify_all();
  if (producer_.joinable()) producer_.join();
}

bool SyntheticTraceSource::generate_slice_into(std::vector<RawPacket>& out) {
  const double slice_len = plan_.duration / static_cast<double>(slices_);
  const double window_end = plan_.start_ts + plan_.duration;
  while (next_slice_ < slices_) {
    const int k = next_slice_++;
    // Slice 0 also catches any stray pre-window emission (the materialized
    // path keeps those at the sorted front); the last slice is open-ended
    // with the over-window tail clipped below, mirroring generate_trace.
    const double lo = k == 0 ? -std::numeric_limits<double>::infinity()
                             : plan_.start_ts + static_cast<double>(k) * slice_len;
    const double hi = k + 1 == slices_
                          ? std::numeric_limits<double>::infinity()
                          : plan_.start_ts + static_cast<double>(k + 1) * slice_len;
    out.clear();
    PacketSink sink(out, plan_.start_ts, plan_.duration, plan_.snaplen);
    sink.restrict_to(lo, hi);
    emit_trace(spec_, model_, plan_, sink);
    std::stable_sort(out.begin(), out.end(),
                     [](const RawPacket& a, const RawPacket& b) { return a.ts < b.ts; });
    while (!out.empty() && out.back().ts > window_end) out.pop_back();
    if (!out.empty()) return true;
  }
  out.clear();
  return false;
}

bool SyntheticTraceSource::fill_next_slice() {
  if (double_buffer_) return swap_in_next_slice();
  pos_ = 0;
  return generate_slice_into(buffer_);
}

void SyntheticTraceSource::producer_loop() {
  std::vector<RawPacket> local;
  for (;;) {
    const bool have = generate_slice_into(local);
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return stop_ || !back_ready_; });
    if (stop_) return;
    back_ = std::move(local);
    back_ready_ = true;
    cv_.notify_all();
    if (!have) return;  // the empty ready buffer is the EOF marker
    local = {};
  }
}

bool SyntheticTraceSource::swap_in_next_slice() {
  if (exhausted_) return false;
  if (!producer_started_) {
    producer_started_ = true;
    producer_ = std::thread([this] { producer_loop(); });
  }
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return back_ready_; });
  buffer_ = std::move(back_);
  back_ready_ = false;
  pos_ = 0;
  cv_.notify_all();
  if (buffer_.empty()) {
    exhausted_ = true;
    return false;
  }
  return true;
}

std::size_t SyntheticTraceSource::pull_batch(PacketView* out, std::size_t n) {
  if (pos_ >= buffer_.size() && !fill_next_slice()) return 0;
  const std::size_t take = std::min(n, buffer_.size() - pos_);
  for (std::size_t i = 0; i < take; ++i) {
    const RawPacket& p = buffer_[pos_ + i];
    out[i] = PacketView{p.ts, p.wire_len, p.data};
  }
  pos_ += take;
  return take;
}

SyntheticTraceSourceSet::SyntheticTraceSourceSet(DatasetSpec spec,
                                                 const EnterpriseModel& model,
                                                 SyntheticSourceOptions options)
    : spec_(std::move(spec)), model_(model), options_(options), plans_(plan_dataset(spec_)) {}

std::unique_ptr<PacketSource> SyntheticTraceSourceSet::open(std::size_t index) const {
  return std::make_unique<SyntheticTraceSource>(spec_, model_, plans_.at(index), options_);
}

}  // namespace entrace
