// The outcome of a dispatch run and its report semantics.
//
// cluster::run_cluster (cluster/coordinator.h) partitions a dataset's
// traces into jobs, runs them on remote endpoints or local worker
// children, and returns an OrchestrateResult: one terminal record per
// job, the fault tally, the coverage manifest, and the fold of every
// validated shard.  Job state machine:
//
//   pending ──dispatch──> running ──validated snapshot──> done
//      ^                     │
//      │                     ├─ classified WorkerFault (fault.h)
//      │                     v
//      └──backoff────── retrying ──budget exhausted──> failed
//
// Graceful degradation: a job that exhausts its attempt budget is marked
// failed and the run *completes* — the manifest names exactly the missing
// trace indices, and render_report() brands the output PARTIAL instead of
// letting the whole run die.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/coverage.h"
#include "cluster/fault.h"
#include "core/analyzer.h"
#include "synth/dataset_spec.h"

namespace entrace::orchestrate {

enum class JobState : std::uint8_t { kPending, kRunning, kRetrying, kDone, kFailed };

// Terminal record of one job.
struct JobOutcome {
  std::size_t index = 0;
  std::size_t lo = 0, hi = 0;  // trace range [lo, hi)
  JobState state = JobState::kPending;
  int attempts = 0;                 // dispatches, including the successful one
  std::vector<WorkerFault> faults;  // one entry per failed attempt
};

struct OrchestrateResult {
  // True iff every job reached kDone (the manifest is then empty).
  bool complete = false;
  CoverageManifest manifest;
  std::vector<JobOutcome> jobs;
  WorkerFaultCounts fault_counts;  // across all attempts of all jobs
  std::uint64_t attempts = 0;
  std::uint64_t retries = 0;
  // Folded from every shard that was delivered and validated; covers only
  // the manifest's non-missing traces when the run is partial.
  DatasetAnalysis analysis;
  std::size_t shards_folded = 0;
  DatasetSpec spec;  // report rendering needs the spec the run used
};

// The result over the shards of one dataset, keyed (and so ordered) by
// trace index: its spec, its coverage manifest and complete flag, and the
// fold of every shard.  The fold is the one analyze_dataset runs after its
// per-trace loop, in trace-index order, so a complete set renders the
// bytes of a direct run.  The coordinator builds its result here and adds
// the job records; entrace_merge builds its result here from .esnap files.
OrchestrateResult fold_result(const snapshot::SnapshotMeta& meta,
                              std::map<std::uint32_t, TraceShard> shards);

// The run's report: byte-identical to enterprise_report output when
// complete; prefixed with the PARTIAL banner and the coverage manifest
// when not.
std::string render_report(const OrchestrateResult& result);

}  // namespace entrace::orchestrate
