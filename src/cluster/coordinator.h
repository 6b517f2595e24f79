// Coordinator: the dispatch side of the cluster protocol, and the one
// dispatch engine in the tree — host-level sharding over TCP endpoints and
// process-level sharding over local worker children run the same loop.
//
// The dataset's traces are partitioned into M jobs (lo = n*i/M,
// hi = n*(i+1)/M), and one dispatch thread per endpoint or local slot
// pulls eligible jobs from a shared queue, through the job state machine
// of cluster/result.h.  A failed attempt's range goes back in the
// queue and is picked up by whichever endpoint frees up first; an endpoint
// that genuinely refuses a connection retires (unless it is the last one
// still active), so a dead host cannot burn one attempt of every job in
// turn.  Liveness is judged by the heartbeat deadline: ANY frame from the
// worker (heartbeat, chunk, DONE) refreshes it, so a worker mid-transfer
// is never "hung".
//
// Local slots (ClusterConfig::local_slots) are endpoints whose worker is
// spawned per attempt: `entrace_worker --once --port-file F`, dialled at
// the port it publishes, owned by a util::Subprocess that SIGKILLs and
// reaps it when the attempt ends.  A crashed child therefore surfaces as a
// disconnect, a silent one as a heartbeat timeout, and no child outlives
// its attempt.
//
// Snapshots are validated and decoded incrementally as each DONE arrives
// (no barrier on all N workers); the terminal fold is
// orchestrate::fold_result over the accumulated shards, in trace-index
// order — the call entrace_merge makes too — so for any endpoint count,
// fault schedule, and arrival order in which every range eventually
// succeeds, render_report(run_cluster(...)) is byte-identical to a direct
// single-process run.  Exhausted budgets degrade to the CoverageManifest
// + PARTIAL banner, never a crash or a torn fold.
//
// A worker's bytes are never trusted: DONE means nothing until the
// whole-stream CRC matches, the snapshot decodes (untrusted-input
// reader), and describe_range_mismatch confirms the exact slice.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/fault.h"
#include "cluster/result.h"
#include "obs/metrics.h"
#include "util/retry.h"

namespace entrace::cluster {

struct ClusterConfig {
  std::string dataset = "D0";
  double scale = 0.01;
  // Remote worker endpoints, "host:port".
  std::vector<std::string> endpoints;
  // Local slots, dispatched alongside `endpoints`: each attempt on a slot
  // runs in a fresh `worker_binary --once --port-file F` child.  At least
  // one endpoint or slot is required; worker_binary must exist when
  // local_slots > 0.
  std::size_t local_slots = 0;
  std::string worker_binary;
  // Trace-range partitions.  0 = one job per endpoint or slot.  Clamped to
  // the trace count (a job always covers at least one trace).
  std::size_t jobs = 0;
  // --threads requested from each worker's analysis.
  std::size_t shard_threads = 1;
  // Per-job attempt budget + backoff schedule (seeded, deterministic).
  util::RetryPolicy retry;
  // Heartbeat cadence requested from workers, and how long the coordinator
  // waits without receiving ANY frame (or, from a local child, its port)
  // before declaring the worker hung.
  double heartbeat_interval = 0.1;
  double heartbeat_deadline = 5.0;
  // Deterministic network-fault harness (off by default).
  NetFaultPlan inject;
  // cluster.* telemetry (timing class).  Optional.
  obs::Registry* metrics = nullptr;
  // Per-event progress lines on stderr (local children get --verbose too).
  bool verbose = false;
};

// Split "host:port,host:port,..." into an endpoint list.  False with
// *error set when an entry has no port or the port is not in [1, 65535].
bool parse_endpoints(const std::string& spec, std::vector<std::string>& out, std::string* error);

// Run the dispatch loop to completion.  Throws std::runtime_error only for
// configuration errors (no endpoints or slots, a malformed endpoint, a
// missing worker binary, an empty dataset); network and worker failures
// never throw — they end in the manifest, which orchestrate::render_report
// renders with the complete/PARTIAL semantics.
orchestrate::OrchestrateResult run_cluster(const ClusterConfig& config);

}  // namespace entrace::cluster
