// Worker-fault taxonomy of the dispatch layer.
//
// The cluster coordinator (cluster/coordinator.h) classifies every failed
// job attempt into one WorkerFault, mirroring the per-packet anomaly
// taxonomy (net/anomaly.h) one level up the stack: packets get
// AnomalyKinds, worker attempts get WorkerFaults, and both are counted,
// merged, and reported rather than crashing the run.  Retry budgets,
// per-fault counters and the coverage manifest treat every kind alike, so
// a dead TCP peer and a dead local child are the same event.
#pragma once

#include <array>
#include <cstdint>

#include "snapshot/format.h"

namespace entrace::orchestrate {

// What the coordinator observed about a failed job attempt.
enum class WorkerFault : std::uint8_t {
  kNone = 0,           // attempt succeeded
  kCrash,              // the worker answered ERROR: its analysis died on the job
  kTruncatedSnapshot,  // DONE declares more snapshot bytes than arrived, or the image is cut short
  kSnapshotRejected,   // snapshot failed CRC/structural validation
  kWrongTraceRange,    // snapshot decodes but covers the wrong dataset slice
  kConnectRefused,     // endpoint unreachable: dial failed or timed out
  kDisconnect,         // connection dropped mid-stream before DONE (a crashed child lands here)
  kCorruptFrame,       // frame failed CRC/structural validation
  kHeartbeatTimeout,   // worker stopped sending frames past the deadline
  kCount
};

inline constexpr std::size_t kWorkerFaultCount = static_cast<std::size_t>(WorkerFault::kCount);

const char* to_string(WorkerFault fault);

// Per-attempt fault counters, folded into the run summary like
// AnomalyCounts are folded into CaptureQuality.
struct WorkerFaultCounts {
  std::array<std::uint64_t, kWorkerFaultCount> counts{};

  std::uint64_t& operator[](WorkerFault f) { return counts[static_cast<std::size_t>(f)]; }
  std::uint64_t operator[](WorkerFault f) const { return counts[static_cast<std::size_t>(f)]; }
  std::uint64_t total_faults() const {
    std::uint64_t sum = 0;
    for (std::size_t i = 1; i < kWorkerFaultCount; ++i) sum += counts[i];
    return sum;
  }
};

// Map a snapshot decode failure onto the worker-fault taxonomy.
WorkerFault classify_snapshot_error(const snapshot::SnapshotError& error);

}  // namespace entrace::orchestrate
