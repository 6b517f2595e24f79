// Dataset generation: runs every application generator for each monitored
// subnet trace, reproducing the paper's piecemeal tracing methodology (one
// subnet at a time, per-dataset snaplen).
//
// Generation is planned and emitted in two layers so both the materialized
// and the streaming paths share one deterministic core:
//   - plan_dataset() lays out the per-trace capture windows and RNG
//     identities (TracePlan) without generating a single packet;
//   - emit_trace() runs the application generators for one plan into a
//     PacketSink (unsorted emission order, deterministic per plan).
// generate_dataset() materializes every trace; SyntheticTraceSource
// (synth_source.h) re-runs emit_trace() per time slice so a trace never
// exists fully in RAM.
#pragma once

#include "pcap/trace.h"
#include "synth/dataset_spec.h"
#include "synth/model.h"
#include "synth/sink.h"

namespace entrace {

// Everything needed to (re)produce one trace's emission deterministically.
struct TracePlan {
  std::string name;        // e.g. "D3-s07"
  int subnet = 0;
  int rep = 0;
  int trace_index = 0;     // position in the dataset's tap rotation
  double start_ts = 0.0;
  double duration = 0.0;
  std::uint32_t snaplen = 1500;
};

TracePlan plan_trace(const DatasetSpec& spec, int subnet, int rep, int trace_index);
// Plans for every trace of the dataset, in tap-rotation order (the order
// generate_dataset emits them).
std::vector<TracePlan> plan_dataset(const DatasetSpec& spec);

// Runs every application generator for the planned trace into `sink`.
// Packets arrive in emission order (NOT timestamp order); deterministic
// for a given (spec, plan).
void emit_trace(const DatasetSpec& spec, const EnterpriseModel& model, const TracePlan& plan,
                PacketSink& sink);

// Materialize one planned trace: emit, timestamp-sort, clip to the window.
Trace generate_trace(const DatasetSpec& spec, const EnterpriseModel& model,
                     const TracePlan& plan);

TraceSet generate_dataset(const DatasetSpec& spec, const EnterpriseModel& model);

}  // namespace entrace
