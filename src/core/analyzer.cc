#include "core/analyzer.h"

#include <algorithm>
#include <chrono>
#include <iterator>

#include "core/incremental.h"
#include "obs/stage_timer.h"
#include "util/thread_pool.h"

namespace entrace {

namespace {

// Thread-pool scheduling telemetry (timing class: queue depth and task
// latency depend on the thread count and the OS scheduler).
void record_pool_metrics(const ThreadPool& pool, obs::Registry& reg) {
  using obs::MetricClass;
  const ThreadPool::Stats ps = pool.stats();
  reg.gauge("pool.threads", MetricClass::kTiming, "worker threads executing trace jobs")
      ->set(static_cast<double>(pool.thread_count()));
  reg.counter("pool.tasks", MetricClass::kTiming, "trace jobs completed")->add(ps.tasks);
  reg.gauge("pool.max_queue_depth", MetricClass::kTiming, "high-water mark of queued jobs")
      ->set(static_cast<double>(ps.max_queue_depth));
  reg.gauge("pool.busy_seconds", MetricClass::kTiming, "summed job execution wall-clock")
      ->add(ps.busy_seconds);
  reg.gauge("pool.max_task_seconds", MetricClass::kTiming, "slowest single trace job")
      ->set(ps.max_task_seconds);
}

// Union of two sorted, duplicate-free host runs, into `into`.
void unite_hosts(std::vector<std::uint32_t>& into, std::vector<std::uint32_t>&& from) {
  if (from.empty()) return;
  if (into.empty()) {
    into = std::move(from);
    return;
  }
  std::vector<std::uint32_t> out;
  out.reserve(into.size() + from.size());
  std::set_union(into.begin(), into.end(), from.begin(), from.end(), std::back_inserter(out));
  into = std::move(out);
}

}  // namespace

void ShardTotals::merge_from(ShardTotals&& other) {
  // Binding every member by name compiles only while ShardTotals has
  // exactly these nine.  A new member must be added to the declaration
  // (core/analyzer.h), merged here, encoded in snapshot/codec.cc and given
  // a row in tests/field_audit_test.cc.
  auto& [packets, wire_bytes, l3_counts, monitored, lbnl, remote, quality_in, events_in,
         metrics_in] = other;
  total_packets += packets;
  total_wire_bytes += wire_bytes;
  l3.merge(l3_counts);
  unite_hosts(monitored_hosts, std::move(monitored));
  unite_hosts(lbnl_hosts, std::move(lbnl));
  unite_hosts(remote_hosts, std::move(remote));
  quality.merge(quality_in);
  events.merge(std::move(events_in));
  metrics.merge(metrics_in);
}

AnalyzerConfig default_config_for_model(const SiteConfig& site) {
  AnalyzerConfig config;
  config.site = site;
  return config;
}

// One fused streaming pass over a trace source: batched pull -> decode ->
// tallies -> scanner observation -> flow table -> protocol dispatch, with a
// single decode per packet and only the source's own buffer (one batch of
// records for files, one slice for synthetic regeneration, zero copies for
// in-memory traces) between disk and results.
void analyze_trace(PacketSource& source, const AnalyzerConfig& config, TraceShard& shard) {
  // The engine itself lives in core/incremental.h: one TraceStream fed to
  // exhaustion is exactly the historical fused pass, and finish_batch moves
  // its state into the shard without the windowed copy step — so the batch
  // and windowed pipelines share one implementation and cannot drift.
  TraceStream stream(source.meta(), config);

  obs::Registry* reg = config.collect_metrics ? &shard.metrics : nullptr;
  obs::StageScope stage(reg, "trace");

  // One virtual next_batch call amortized over up to kBatchSize packets;
  // the stream runs the staged decode -> tally -> flow loops over the
  // views, which stay valid until the next call.
  double source_s = 0.0;
  std::uint64_t batches = 0;
  std::vector<PacketView> views(kBatchSize);
  using clock = std::chrono::steady_clock;
  const bool timed = reg != nullptr;
  for (;;) {
    const auto t0 = timed ? clock::now() : clock::time_point{};
    const std::size_t got = source.next_batch(views.data(), views.size());
    if (timed) source_s += std::chrono::duration<double>(clock::now() - t0).count();
    if (got == 0) break;
    ++batches;
    stream.feed(views.data(), got);
  }
  stream.finish_batch(source, shard, source_s, batches);
  if (reg != nullptr) stage.add_items(shard.quality.packets_seen);
  // stage (stage.trace) records into shard.metrics on scope exit, after
  // finish_batch has moved the stream's registry in — same final order as
  // the historical single-function pass.
}

std::vector<TraceShard> analyze_trace_shards(const TraceSourceSet& sources,
                                             const AnalyzerConfig& config,
                                             std::size_t begin, std::size_t end,
                                             obs::Registry* process_metrics) {
  // Each job opens its own source, so streams never share state across
  // threads and a trace's packets live only inside its job.
  end = std::min(end, sources.size());
  const std::size_t n = end > begin ? end - begin : 0;
  std::vector<TraceShard> shards(n);

  const std::size_t threads =
      config.threads != 0 ? config.threads : ThreadPool::env_thread_count();
  ThreadPool pool(std::min(threads, n > 0 ? n : std::size_t{1}));
  pool.for_each_index(n, [&](std::size_t i) {
    const std::unique_ptr<PacketSource> source = sources.open(begin + i);
    analyze_trace(*source, config, shards[i]);
  });
  if (config.collect_metrics && process_metrics != nullptr) {
    record_pool_metrics(pool, *process_metrics);
  }
  return shards;
}

DatasetAnalysis fold_shards(std::string dataset_name, std::vector<TraceShard>&& shards,
                            const AnalyzerConfig& config) {
  DatasetAnalysis out;
  out.name = std::move(dataset_name);
  out.site = config.site;

  const auto fold_start = std::chrono::steady_clock::now();

  // ---- deterministic fold, in trace-index order ----------------------------
  // Across traces the detector merges into a fold-local one, and each
  // trace keeps its own connections and load series.
  ScannerDetector detector;
  out.trace_connections.reserve(shards.size());
  for (TraceShard& shard : shards) {
    detector.merge(shard.detector);
    out.load_raw.push_back(std::move(shard.load));
    out.trace_connections.push_back(std::move(shard.connections));
    out.merge_from(std::move(shard));
  }
  // Scanner identification is global: only the merged detector has seen a
  // source's contacts across all traces, so the removal filter runs here,
  // post-merge, exactly as in the serial two-pass pipeline.  The site's
  // known internal scanners are removed whatever they did.
  out.scanners = detector.scanners();
  out.scanners.insert(config.site.known_scanners.begin(), config.site.known_scanners.end());

  // ---- assemble connection lists, remove scanner traffic ---------------------
  for (const std::vector<Connection>& conns : out.trace_connections) {
    for (const Connection& conn : conns) {
      out.all_connections.push_back(&conn);
      if (out.scanners.count(conn.key.src) > 0) {
        ++out.scanner_conns_removed;
      } else {
        out.connections.push_back(&conn);
      }
    }
  }
  // Post-fold semantic facts: only the global view knows these, and they
  // are identical for any shard partition (the fold runs exactly once).
  if (config.collect_metrics) {
    using obs::MetricClass;
    out.metrics.counter("scanner.sources_identified", MetricClass::kSemantic,
                        "scanner source addresses identified post-fold")
        ->add(out.scanners.size());
    out.metrics.counter("scanner.connections_removed", MetricClass::kSemantic,
                        "connections removed as scanner traffic")
        ->add(out.scanner_conns_removed);
    out.metrics.counter("fold.connections_total", MetricClass::kSemantic,
                        "connections across all traces before scanner removal")
        ->add(out.all_connections.size());
    out.metrics.counter("fold.shards", MetricClass::kSemantic, "trace shards folded")
        ->add(shards.size());
    obs::record_stage(
        &out.metrics, "fold",
        std::chrono::duration<double>(std::chrono::steady_clock::now() - fold_start).count(),
        out.load_raw.size());
  }
  return out;
}

DatasetAnalysis analyze_dataset(const TraceSourceSet& sources, const AnalyzerConfig& config) {
  obs::Registry process_metrics;
  std::vector<TraceShard> shards =
      analyze_trace_shards(sources, config, 0, sources.size(),
                           config.collect_metrics ? &process_metrics : nullptr);
  DatasetAnalysis out = fold_shards(sources.dataset_name(), std::move(shards), config);
  out.metrics.merge(process_metrics);
  return out;
}

DatasetAnalysis analyze_dataset(const TraceSet& traces, const AnalyzerConfig& config) {
  return analyze_dataset(MemoryTraceSourceSet(traces), config);
}

}  // namespace entrace
