// Paced trace replay: deliver an existing PacketSource's stream on the
// capture's own timeline, scaled by a speedup factor.
//
// The daemon's continuous mode replays finite traces as if they were live
// interfaces: a batch whose last packet is T seconds into the capture is
// released (speedup x) at T/x wall seconds after the first packet.  Pacing
// sits entirely in front of the inner source — packet contents, order,
// per-view source attribution and the inner source's stats/anomalies are
// untouched, so an analysis of a paced stream is byte-identical to the
// unpaced one.  Time comes from util::Clock: production runs use
// SystemClock; tests use FakeClock, which makes pacing instant while still
// exercising the schedule arithmetic (tests/daemon_test.cc asserts the
// virtual timeline a replay would sleep through).
#pragma once

#include "pcap/packet_source.h"
#include "util/clock.h"

namespace entrace {

class PacedReplaySource final : public PacketSource {
 public:
  // `speedup` > 0 scales capture time to wall time (100 = replay one hour
  // of capture in 36 s); <= 0 disables pacing (pass-through).  `inner` and
  // `clock` must outlive this source.
  PacedReplaySource(PacketSource& inner, util::Clock& clock, double speedup)
      : inner_(&inner), clock_(&clock), speedup_(speedup) {}

  const TraceMeta& meta() const override { return inner_->meta(); }
  const AnomalyCounts& anomalies() const override { return inner_->anomalies(); }

  // Wall seconds spent sleeping to hold the schedule (observability).
  double slept_seconds() const { return slept_; }

 protected:
  std::size_t pull_batch(PacketView* out, std::size_t n) override {
    const std::size_t got = inner_->next_batch(out, n);
    if (got != 0) pace_to(out[got - 1].ts);
    return got;
  }

 private:
  // Block until the wall clock reaches the batch tail's scheduled release
  // time.  The first packet anchors the schedule (capture ts base_ts_ ==
  // wall start_wall_); a replay that falls behind never tries to catch up
  // by bursting faster than the inner source delivers.
  void pace_to(double ts) {
    if (speedup_ <= 0.0) return;
    if (!started_) {
      started_ = true;
      base_ts_ = ts;
      start_wall_ = clock_->now();
      return;
    }
    const double due = start_wall_ + (ts - base_ts_) / speedup_;
    const double wait = due - clock_->now();
    if (wait > 0.0) {
      clock_->sleep(wait);
      slept_ += wait;
    }
  }

  PacketSource* inner_;
  util::Clock* clock_;
  double speedup_;
  bool started_ = false;
  double base_ts_ = 0.0;
  double start_wall_ = 0.0;
  double slept_ = 0.0;
};

}  // namespace entrace
