// EnterpriseAnalyzer: the end-to-end pipeline of the paper.
//
//   packet traces -> decode -> scanner identification & removal (§3)
//     -> connection summaries (flow table)  -> application parsing
//     -> per-section analyses (§3-§6)
//
// analyze_dataset() consumes one dataset (one of D0-D4) and produces a
// DatasetAnalysis holding connection summaries, application events, load
// statistics and everything the report/benches need.  The primary input is
// a TraceSourceSet — a factory of streaming per-trace PacketSources (pcap
// file, in-memory trace, or incremental synthetic generator), so analysis
// memory is bounded by per-trace buffers plus result state, never by the
// dataset's packet count.  A thin TraceSet overload adapts materialized
// traces through MemoryTraceSource for existing callers.
//
// The datasets are sets of independently captured per-subnet traces, so
// the pipeline shards at trace granularity: each thread-pool job opens its
// own source and runs the whole decode -> tallies -> scanner-observation
// -> flow -> application chain as one fused pass over zero-copy batches
// (a single decode per packet; there is no scalar packet-at-a-time path)
// with private state, and the shards fold on the caller's thread in
// trace-index order through ShardTotals::merge_from, the one merge the
// daemon's window fold shares — results are bit-identical for every thread
// count and for every source kind that yields the same packet stream.
// Scanner *identification* needs the global cross-trace view, so the
// scanner-removal filter runs after the fold.  Dynamic DCE/RPC endpoints
// learned from Endpoint Mapper traffic apply within the trace that
// observed them (EPM mappings and the ephemeral-port connections they
// describe share a subnet trace): they live in the trace's own engine and
// are never part of a shard.
//
// A shard member exists only because a report line, a semantic metric, a
// digest, a shipped tool or an example reads it (DESIGN.md §9 has the
// member -> reader table, and tests/field_audit_test.cc checks it).
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/breakdown.h"
#include "analysis/load.h"
#include "analysis/scanner.h"
#include "analysis/site.h"
#include "flow/flow_table.h"
#include "net/anomaly.h"
#include "obs/metrics.h"
#include "pcap/packet_source.h"
#include "pcap/trace.h"
#include "proto/dispatcher.h"
#include "proto/events.h"
#include "proto/registry.h"

namespace entrace {

// What a run may vary.  The paper fixes the rest: the scanner thresholds
// (ScannerDetector's 50 and 45) and the flow timeouts (flow/flow_table.cc)
// are constants, and scanner traffic is always removed, so every fold runs
// with the settings of the analysis that produced its shards.
struct AnalyzerConfig {
  SiteConfig site;
  // Override the per-trace snaplen-based payload-analysis decision.
  std::optional<bool> payload_analysis;
  // Worker threads for the per-trace analysis jobs.  0 = auto: honour
  // ENTRACE_THREADS, else hardware_concurrency.  Results are bit-identical
  // for every thread count (shards fold in trace-index order).
  std::size_t threads = 0;
  // Runtime telemetry (src/obs): per-layer metrics and per-stage timing
  // scopes recorded into TraceShard::metrics / DatasetAnalysis::metrics.
  // Off disables all collection (no registry lookups, no histogram on the
  // hot loop) — the toggle the bench overhead study flips.
  bool collect_metrics = true;
};

// Packets pulled per next_batch() call by analyze_trace and the daemon's
// ingest loop.  Results depend neither on it nor on where a source cuts a
// short batch: the stage loops only regroup work that is order-independent
// across stages (tallies are additive, flow processing preserves packet
// order).  The golden digests (tests/golden/reports.txt) pin the results.
inline constexpr std::size_t kBatchSize = 256;

// The nine members a DatasetAnalysis and a TraceShard share, declared once.
// A shard's totals cover one trace (or one window of one trace); the
// dataset's are every shard's, folded by merge_from.
struct ShardTotals {
  // ---- packet-level tallies (Tables 1-2) ----------------------------------
  // Accounting rule: every headline tally — total_packets, total_wire_bytes,
  // l3, the host sets and the load series — counts only packets that
  // survived decode and checksum verification, i.e. exactly
  // quality.packets_ok.  Packets dropped for undecodable or demonstrably
  // corrupt headers are accounted solely in `quality`
  // (packets_seen == packets_ok + packets_dropped), so the invariant
  //   total_packets == quality.packets_ok == l3.total
  // holds for every dataset and every source kind (asserted by the
  // corruption and streaming test suites).
  std::uint64_t total_packets = 0;
  std::uint64_t total_wire_bytes = 0;
  NetworkLayerBreakdown l3;
  // Host sets as sorted, duplicate-free address runs: merge_from is a
  // linear set union and membership a binary search.
  std::vector<std::uint32_t> monitored_hosts;  // hosts in monitored subnets
  std::vector<std::uint32_t> lbnl_hosts;
  std::vector<std::uint32_t> remote_hosts;

  // ---- capture quality -------------------------------------------------------
  // Every packet of every trace is accounted for here:
  //   packets_seen == packets_ok + packets_dropped.
  // Dropped packets (empty/Ethernet-truncated captures, checksum failures)
  // are excluded from the tallies above and from flow/application analysis;
  // anomalies classifies both the drops and the informational flags
  // (snaplen clipping, partial L3/L4 decodes, parser bails).
  CaptureQuality quality;

  // ---- application events -----------------------------------------------------
  AppEvents events;

  // ---- runtime telemetry -----------------------------------------------------
  // Semantic-class metrics are deterministic (same dataset => same values
  // at any thread count or shard partition) and travel through snapshots;
  // timing-class metrics describe this particular run.  Render with
  // report::telemetry or obs::render_json / obs::render_prometheus.  Empty
  // when AnalyzerConfig::collect_metrics is off.
  obs::Registry metrics;

  // Fold another trace's (or window's) totals in: counts and metrics sum,
  // host sets union, events append (moved out of `other`).
  // Folding in trace-index or window order reproduces a serial pass.  A new
  // member must be merged here and encoded in snapshot/codec.cc; the build
  // fails until it is.
  void merge_from(ShardTotals&& other);
};

class DatasetAnalysis : public ShardTotals {
 public:
  std::string name;
  SiteConfig site;

  // ---- connections -----------------------------------------------------------
  // Each trace's connections in open order (owns the Connection objects
  // all_connections and connections point into).
  std::vector<std::vector<Connection>> trace_connections;
  std::vector<const Connection*> all_connections;  // scanner traffic included
  std::vector<const Connection*> connections;      // scanner traffic removed
  std::set<Ipv4Address> scanners;
  std::uint64_t scanner_conns_removed = 0;
  double scanner_removed_fraction() const {
    return all_connections.empty()
               ? 0.0
               : static_cast<double>(scanner_conns_removed) /
                     static_cast<double>(all_connections.size());
  }

  // ---- load (§6) -----------------------------------------------------------------
  std::vector<TraceLoadRaw> load_raw;

  bool is_monitored_host(Ipv4Address a) const {
    return std::binary_search(monitored_hosts.begin(), monitored_hosts.end(), a.value());
  }
};

// Everything one per-trace job produces: the shared totals plus three
// members of its own.  A shard is plain data, the per-trace unit of every
// mode: a thread job, one section of a .esnap file (src/snapshot), a
// cluster worker's reply and a daemon window (core/incremental.h), and any
// of them folds to the same DatasetAnalysis as a single-process run.  The
// two folds differ only in the own members: fold_shards keeps each trace's
// connections and load series, while WindowFold::add upserts connections
// by open_seq and sums the load series.
struct TraceShard : ShardTotals {
  ScannerDetector detector;
  std::vector<Connection> connections;  // in open order (open_seq)
  TraceLoadRaw load;
};

// One fused streaming pass over a trace source: batched pull -> decode ->
// tallies -> scanner observation -> flow table -> protocol dispatch, with a
// single decode per packet.  Fills `shard` (which must be fresh).
void analyze_trace(PacketSource& source, const AnalyzerConfig& config, TraceShard& shard);

// Analyze traces [begin, end) of the set — one shard per trace, in trace-
// index order, computed in parallel per config.threads.  This is the
// sharding half of analyze_dataset, exposed so a shard process can analyze
// its slice of a dataset and snapshot the result (tools/entrace_shard).
// When `process_metrics` is non-null (and collect_metrics on), thread-pool
// scheduling telemetry (`pool.*`, timing class) is recorded into it.
std::vector<TraceShard> analyze_trace_shards(const TraceSourceSet& sources,
                                             const AnalyzerConfig& config,
                                             std::size_t begin, std::size_t end,
                                             obs::Registry* process_metrics = nullptr);

// Deterministic fold: consumes one shard per trace of the dataset, in
// trace-index order, and produces the final DatasetAnalysis (global scanner
// identification and removal run post-fold).  Whether the shards came from
// this process's analyze_trace_shards or were decoded from snapshot files,
// the result is bit-identical.
DatasetAnalysis fold_shards(std::string dataset_name, std::vector<TraceShard>&& shards,
                            const AnalyzerConfig& config);

// Streaming entry point: each per-trace job opens its own PacketSource
// from the set, so whole traces are never materialized by the analyzer.
DatasetAnalysis analyze_dataset(const TraceSourceSet& sources, const AnalyzerConfig& config);

// Materialized adapter: analyzes an in-memory TraceSet through
// MemoryTraceSource, bit-identical to the streaming path.
DatasetAnalysis analyze_dataset(const TraceSet& traces, const AnalyzerConfig& config);

// Convenience: the AnalyzerConfig matching the synthetic EnterpriseModel.
AnalyzerConfig default_config_for_model(const SiteConfig& site);

}  // namespace entrace
