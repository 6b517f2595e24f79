// The dispatch layer's two fault taxonomies.
//
// WorkerFault is what the coordinator (cluster/coordinator.h) observed
// about a failed job attempt, mirroring the per-packet anomaly taxonomy
// (net/anomaly.h) one level up the stack: packets get AnomalyKinds, worker
// attempts get WorkerFaults, and both are counted, merged, and reported
// rather than crashing the run.  Retry budgets, per-fault counters and the
// coverage manifest treat every kind alike, so a dead TCP peer and a dead
// local child are the same event.
//
// NetFault is deterministic network-fault injection: the same
// seeded per-(job, attempt) draw on every run regardless of worker count
// or dispatch order, so any schedule in which every range eventually
// succeeds must yield a byte-identical report.
//
// Faults are drawn centrally by the coordinator (never by workers rolling
// their own dice): refuse is executed coordinator-side by dialing a port
// that is known dead, the other three ride to the worker inside the JOB
// message's injected_fault byte and are acted out there — drop the
// connection mid-stream, flip a bit in an outgoing frame, or go silent
// until the coordinator's heartbeat deadline fires.  Remote endpoints and
// local worker children act them out identically.
#pragma once

#include <array>
#include <climits>
#include <cstdint>
#include <string>

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

namespace entrace::cluster {

// The network fault injected into one job attempt.  Values are wire bytes
// (JobMsg::injected_fault); kNetFaultCount bounds validation.
enum class NetFault : std::uint8_t {
  kNoInject = 0,
  kRefuseInject,       // coordinator dials a dead port instead of the worker
  kDisconnectInject,   // worker closes the connection mid-snapshot-stream
  kCorruptFrameInject, // worker flips one bit in an outgoing SNAPSHOT frame
  kHangInject,         // worker goes silent; coordinator's deadline fires
  kNetFaultCount
};

const char* to_string(NetFault fault);

// The WorkerFault the coordinator is expected to classify each injected
// fault as (tests assert the per-fault counters line up with the draws).
orchestrate::WorkerFault expected_fault(NetFault injected);

// Which attempts get which NetFault: the seeded plan behind --inject.
struct NetFaultPlan {
  // Independent per-attempt probabilities, evaluated in this order; the
  // first that fires wins.
  double refuse = 0.0;
  double disconnect = 0.0;
  double corrupt = 0.0;
  double hang = 0.0;
  std::uint64_t seed = 1;
  // Inject only into the first `attempt_limit` attempts of each job; the
  // default never stops injecting.
  int attempt_limit = INT32_MAX;

  bool any() const { return refuse > 0 || disconnect > 0 || corrupt > 0 || hang > 0; }

  // The fault (or none) for attempt `attempt` (1-based) of job `job` —
  // a pure function of (seed, job, attempt).
  NetFault draw(std::uint64_t job, int attempt) const;
};

// Parse "refuse=0.1,disconnect=0.1,corrupt=0.05,hang=0.05" (any subset,
// each probability in [0, 1]).  False with *error set on unknown keys or
// out-of-range values; probabilities not named stay 0.
bool parse_net_inject_spec(const std::string& spec, NetFaultPlan& out, std::string* error);

}  // namespace entrace::cluster
