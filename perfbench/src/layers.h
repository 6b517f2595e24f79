// Inputs and single-layer probes shared by the workloads.  Everything here
// calls the program's public functions and times them from outside.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "core/analyzer.h"
#include "obs/metrics.h"
#include "pcap/packet_source.h"
#include "snapshot/format.h"
#include "synth/dataset_spec.h"
#include "synth/model.h"

namespace perfbench {

inline constexpr std::size_t kThreads = 4;  // nproc of the reference box
inline constexpr std::size_t kBatch = 256;  // the daemon's default batch
// Window width of a replay is the capture span over this count, so every
// replay rotates at least 256 windows.
inline constexpr double kReplayWindows = 264.0;

// The generator draws bulk volumes (NFS pairs, backups, FTP and HPSS
// transfers) from Pareto tails, and a handful of sessions carry most of
// the packets, so one seed's dataset can be several times another's.  The
// benchmark spreads each such volume over this many times more, smaller
// sessions: the expected traffic mix is unchanged, but every seed yields a
// workload of the same shape.
inline constexpr double kHeavyTailSpread = 16.0;

// Packets kept per connection (direction-free IPv4 5-tuple) when a trace is
// written, as a connection-cutoff recorder keeps them: a few giant sessions
// otherwise eat a tap's packet budget and leave it a fraction of the usual
// connections, and the connection count, retained bytes and report time
// swing with the seed.
inline constexpr std::uint64_t kConnectionCutoff = 1000;

// The dataset with the benchmark seed in place of its built-in generator
// seed, and its heavy-tailed volumes spread (kHeavyTailSpread).
entrace::DatasetSpec seeded(entrace::DatasetSpec spec, std::uint64_t seed);

// Per-trace packets of a dataset, and their sum.
struct TraceSizes {
  std::vector<std::uint64_t> packets;
  std::uint64_t total = 0;
  double largest_share() const;
  // Largest share of the packets in one of `jobs` contiguous trace ranges,
  // partitioned as the cluster coordinator partitions them.
  double largest_job_share(std::size_t jobs) const;
};
TraceSizes trace_sizes(const std::vector<entrace::TraceShard>& shards);

// Packets kept per generated trace.  Even with the tails spread, a trace's
// length swings with the seed; capturing a fixed number of packets per tap,
// as a packet-limited capture does, keeps every seed's workload the same
// size.  One tap, the first trace of `busy_subnet`, may keep more.
struct PacketBudget {
  std::uint64_t per_trace = 0;
  int busy_subnet = -1;  // -1: no busy tap
  std::uint64_t busy = 0;
  std::uint64_t per_connection = kConnectionCutoff;
};

// A dataset written to pcap files at set-up.
struct PcapDataset {
  std::vector<entrace::PcapTraceSpec> files;  // trace-index order
  TraceSizes sizes;
  std::uint64_t input_bytes = 0;
  double span_seconds = 0.0;  // capture window of the merged traces
};

// Generate every trace of `spec` (kThreads at a time) and write its first
// budgeted packets as a pcap file under `dir`, in the dataset's own trace
// order.  The traces are laid back to back, each starting 1 ms after the
// previous one's last packet, so a merged replay has no idle gaps where a
// trace was cut short.
// Runs in a child process, so that generation memory never counts toward
// the measuring process's peak RSS: call it before the process starts any
// thread.  Throws std::runtime_error when the child fails.
PcapDataset write_pcap_dataset(const entrace::DatasetSpec& spec,
                               const entrace::EnterpriseModel& model, const std::string& dir,
                               const PacketBudget& budget);

// Encoded .esnap image of the shards (what checkpointing or shipping them
// costs); shard i is encoded as trace `first + i`.
std::string encode_shards(std::span<const entrace::TraceShard> shards,
                          const entrace::snapshot::SnapshotMeta& meta, std::uint32_t first = 0);

// Wraps a TraceSourceSet so each opened source reports its lifetime and the
// pauses between its next_batch calls.  The analyzer's per-trace job opens
// its source first and drops it last, so the lifetime is the job's
// duration; the time from one next_batch returning to the next call is the
// job's processing of that batch (decode, tally, flow).
class JobTimingSourceSet final : public entrace::TraceSourceSet {
 public:
  using Done = std::function<void(std::size_t index, Clock::time_point open,
                                  Clock::time_point close, const std::vector<double>& batch_s)>;
  JobTimingSourceSet(const entrace::TraceSourceSet& inner, Done done)
      : inner_(inner), done_(std::move(done)) {}

  const std::string& dataset_name() const override { return inner_.dataset_name(); }
  std::size_t size() const override { return inner_.size(); }
  std::unique_ptr<entrace::PacketSource> open(std::size_t index) const override;

 private:
  const entrace::TraceSourceSet& inner_;
  Done done_;
};

// ns per item of a stage recorded by the program (stage.<name>.seconds over
// stage.<name>.items); 0 when the stage is absent.
double stage_ns_per_item(const entrace::obs::Registry& reg, const std::string& stage);
double gauge_value(const entrace::obs::Registry& reg, const std::string& name);
std::uint64_t counter_value(const entrace::obs::Registry& reg, const std::string& name);
// The shards' registries folded into one.
entrace::obs::Registry merged_metrics(const std::vector<entrace::TraceShard>& shards);

// Every pcap file drained in turn on one thread.
double pcap_read_ns_per_pkt(const std::vector<entrace::PcapTraceSpec>& files);
// The dataset's first trace generated and drained on one thread, with the
// default source options (the generator's cost per packet).
double synth_ns_per_pkt(const entrace::DatasetSpec& spec, const entrace::EnterpriseModel& model);

// Flow-stage ns/packet of analyze_trace_shards over the set with payload
// analysis forced on, minus forced off.
double payload_ns_per_pkt(const entrace::TraceSourceSet& set, entrace::AnalyzerConfig config);

// The daemon's ingest path with checkpoints left out: merged replay of the
// pcap files into IncrementalAnalyzer (eviction and reclaim on), windows
// rotated and dropped.  Returns the summed IncrementalAnalyzer::feed time.
double replay_feed_seconds(const std::vector<entrace::PcapTraceSpec>& files,
                           entrace::AnalyzerConfig config, std::size_t threads,
                           double window_seconds);

// The shaping of a workload's inputs measured against its unshaped dataset
// at the dataset's built-in seed: the packets and connections the budgets
// and the connection cutoff keep, and the application mix before and after.
// Prints a Markdown table; `dir` holds the pcap files while it runs.
void print_input_mix(const entrace::DatasetSpec& dataset, const PacketBudget& budget,
                     const entrace::EnterpriseModel& model, const std::string& dir);

}  // namespace perfbench
