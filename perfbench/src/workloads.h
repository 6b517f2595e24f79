// The three workloads.  Each one generates its inputs at set-up from the
// benchmark seed, then runs closed-loop iterations (the next one starts
// only after the previous one returned) for Options::seconds, checks every
// iteration's output, and returns the end-to-end metrics — or, in the
// traced run, the per-layer metrics — with the operation tally.
#pragma once

#include "common.h"

namespace perfbench {

RunResult run_batch_headers(const Options& opt, TraceLog& log);
RunResult run_daemon_payload(const Options& opt, TraceLog& log);
RunResult run_cluster_loopback(const Options& opt, TraceLog& log);

// The workload's shaped inputs against its unshaped dataset, at the
// dataset's built-in seed (perfbench --mix).  cluster_loopback has none:
// its workers generate D0 unshaped.
void print_batch_headers_mix(const Options& opt);
void print_daemon_payload_mix(const Options& opt);

// How many closed-loop iterations fit: at least one, and only one in smoke
// mode.
class IterationBudget {
 public:
  IterationBudget(double seconds, bool smoke)
      : seconds_(seconds), smoke_(smoke), start_(Clock::now()) {}
  bool more(std::size_t done) const {
    if (done == 0) return true;
    return !smoke_ && seconds_since(start_) < seconds_;
  }

 private:
  double seconds_;
  bool smoke_;
  Clock::time_point start_;
};

}  // namespace perfbench
