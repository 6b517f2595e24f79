// The pipeline's performance harness: one ordered table of studies
// (kStudies, near the end), each returning rows of named values that one
// writer prints as a table and stores under the study's key in
// BENCH_pipeline.json, in the current directory.
//
//   bench_micro_pipeline [--study a,b] [--benchmark_...]   every study, or the named ones
//   bench_micro_pipeline --smoke                           harness self-check; writes nothing
//
// ENTRACE_SCALE (default 0.02) scales every study's dataset by the study's
// fixed multiple, and ENTRACE_BENCH_REPS (default 3) is every study's rep
// count.  The configurations a study compares run interleaved rep by rep,
// so drift over the run does not land on one of them, and every timed
// value records its median, min and max.  A run rewrites only the keys of
// the studies it ran, keeps every other study's key byte for byte, and
// drops keys no study owns.  Each key carries the run's context.  A
// configuration that fails is stored as a row with "ok": false, and the
// run then exits 1.
#include <benchmark/benchmark.h>

#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/worker.h"
#include "core/analyzer.h"
#include "core/incremental.h"
#include "core/report.h"
#include "flow/flow_table.h"
#include "net/decoder.h"
#include "pcap/reader.h"
#include "pcap/writer.h"
#include "proto/dns.h"
#include "proto/http.h"
#include "snapshot/reader.h"
#include "snapshot/retention.h"
#include "snapshot/window.h"
#include "snapshot/writer.h"
#include "synth/generator.h"
#include "synth/synth_source.h"
#include "util/cli.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace entrace {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- micro-benchmarks: the pipeline's hot components ------------------------

// D3 at ENTRACE_SCALE, one monitored subnet.
Trace make_sample_trace() {
  EnterpriseModel model;
  DatasetSpec spec = dataset_d3(cli::env_scale());
  spec.monitored_subnets = {16};
  TraceSet set = generate_dataset(spec, model);
  return std::move(set.traces.front());
}

const Trace& sample_trace() {
  static const Trace trace = make_sample_trace();
  return trace;
}

void BM_DecodePacket(benchmark::State& state) {
  const Trace& trace = sample_trace();
  std::size_t i = 0;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const RawPacket& pkt = trace.packets[i];
    auto d = decode_packet(pkt);
    benchmark::DoNotOptimize(d);
    bytes += pkt.data.size();
    if (++i == trace.packets.size()) i = 0;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DecodePacket);

void BM_FlowTableProcess(benchmark::State& state) {
  const Trace& trace = sample_trace();
  std::vector<DecodedPacket> decoded;
  decoded.reserve(trace.packets.size());
  for (const auto& pkt : trace.packets) {
    if (auto d = decode_packet(pkt)) decoded.push_back(*d);
  }
  for (auto _ : state) {
    FlowTable table;
    for (const auto& d : decoded) benchmark::DoNotOptimize(table.process(d));
    table.drain_all();
    benchmark::DoNotOptimize(table.connections().size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(decoded.size()));
}
BENCHMARK(BM_FlowTableProcess);

void BM_FullAnalysisPipeline(benchmark::State& state) {
  EnterpriseModel model;
  DatasetSpec spec = dataset_d3(cli::env_scale() / 2);
  spec.monitored_subnets = {15, 16};
  const TraceSet set = generate_dataset(spec, model);
  const AnalyzerConfig config = default_config_for_model(model.site());
  for (auto _ : state) {
    DatasetAnalysis analysis = analyze_dataset(set, config);
    benchmark::DoNotOptimize(analysis.connections.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(set.total_packets()));
}
BENCHMARK(BM_FullAnalysisPipeline);

// The render layer alone: D3 analyzed once, then every section of
// report::full_report per iteration.
void BM_FullReport(benchmark::State& state) {
  EnterpriseModel model;
  const DatasetSpec spec = dataset_d3(cli::env_scale());
  const SyntheticTraceSourceSet sources(spec, model);
  const DatasetAnalysis analysis =
      analyze_dataset(sources, default_config_for_model(model.site()));
  const report::ReportInput input{&spec, &analysis};
  for (auto _ : state) {
    const std::string text = report::full_report({&input, 1});
    benchmark::DoNotOptimize(text.size());
  }
}
BENCHMARK(BM_FullReport)->Unit(benchmark::kMillisecond);

void BM_GenerateTrace(benchmark::State& state) {
  EnterpriseModel model;
  DatasetSpec spec = dataset_d3(cli::env_scale() / 2);
  spec.monitored_subnets = {16};
  std::uint64_t packets = 0;
  for (auto _ : state) {
    const TraceSet set = generate_dataset(spec, model);
    packets += set.total_packets();
    benchmark::DoNotOptimize(set.total_packets());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(packets));
}
BENCHMARK(BM_GenerateTrace);

void BM_PcapWriteRead(benchmark::State& state) {
  const Trace& trace = sample_trace();
  const std::string path =
      (std::filesystem::temp_directory_path() / "entrace_bench.pcap").string();
  for (auto _ : state) {
    {
      PcapWriter writer(path, trace.snaplen);
      for (const auto& pkt : trace.packets) writer.write(pkt);
    }
    PcapReader reader(path);
    std::size_t n = 0;
    while (auto pkt = reader.next()) ++n;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.packets.size()));
  std::filesystem::remove(path);
}
BENCHMARK(BM_PcapWriteRead);

void BM_HttpParse(benchmark::State& state) {
  Connection conn;
  const std::string req =
      "GET /index.html HTTP/1.1\r\nHost: www\r\nUser-Agent: bench\r\n\r\n";
  const std::string resp =
      "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 512\r\n\r\n" +
      std::string(512, 'x');
  const std::span<const std::uint8_t> req_b(
      reinterpret_cast<const std::uint8_t*>(req.data()), req.size());
  const std::span<const std::uint8_t> resp_b(
      reinterpret_cast<const std::uint8_t*>(resp.data()), resp.size());
  for (auto _ : state) {
    std::vector<HttpTransaction> out;
    HttpParser parser(out);
    for (int i = 0; i < 50; ++i) {
      parser.on_data(conn, Direction::kOrigToResp, 1.0, req_b);
      parser.on_data(conn, Direction::kRespToOrig, 1.1, resp_b);
    }
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * 50);
}
BENCHMARK(BM_HttpParse);

void BM_DnsEncodeDecode(benchmark::State& state) {
  DnsMessage q;
  q.id = 7;
  q.qname = "host1234.lbl.example";
  q.qtype = dnstype::kA;
  for (auto _ : state) {
    const auto wire = encode_dns(q);
    auto d = decode_dns(wire);
    benchmark::DoNotOptimize(d);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DnsEncodeDecode);

// ---- rows: what every study returns -----------------------------------------

// One value that one rep of a configuration measured.  A timed value is
// summarized by its median, min and max over the reps; a count (packets,
// bytes, attempts) is the same every rep and is stored once.
struct Value {
  std::string name;
  double value = 0.0;
  bool timed = true;
};
using Sample = std::vector<Value>;

Value count(std::string name, std::uint64_t n) {
  return {std::move(name), static_cast<double>(n), false};
}

struct Stat {
  std::string name;
  bool timed = true;
  double median = 0.0, min = 0.0, max = 0.0;
};

// One configuration of a study; a non-empty error marks it failed.
struct Row {
  std::string config;
  std::vector<Stat> stats;
  std::string error;

  bool ok() const { return error.empty(); }
  const Stat* find(const std::string& name) const {
    const auto it = std::find_if(stats.begin(), stats.end(),
                                 [&name](const Stat& s) { return s.name == name; });
    return it == stats.end() ? nullptr : &*it;
  }
};
using Rows = std::vector<Row>;

// Folds one configuration's samples, which name the same values in the
// same order every rep, into its row.
Row fold_samples(std::string config, const std::vector<Sample>& samples) {
  Row row{std::move(config), {}, {}};
  for (std::size_t k = 0; !samples.empty() && k < samples.front().size(); ++k) {
    std::vector<double> xs;
    for (const Sample& s : samples) xs.push_back(s.at(k).value);
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    const double median = n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
    row.stats.push_back(
        {samples.front()[k].name, samples.front()[k].timed, median, xs.front(), xs.back()});
  }
  return row;
}

// Measures every configuration `reps` times, interleaved (c0 c1 .. c0 c1
// ..).  measure(i) returns configuration i's sample, or throws to fail it;
// a failed configuration skips its remaining reps.
template <typename Fn>
Rows repeat(const std::vector<std::string>& configs, int reps, const Fn& measure) {
  std::vector<std::vector<Sample>> samples(configs.size());
  std::vector<std::string> errors(configs.size());
  for (int r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      if (!errors[i].empty()) continue;
      try {
        samples[i].push_back(measure(i));
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    }
  }
  Rows rows;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    rows.push_back(errors[i].empty() ? fold_samples(configs[i], samples[i])
                                     : Row{configs[i], {}, errors[i]});
  }
  return rows;
}

// Adds `name` = f(row's median of `value`, the base row's median) to every
// row that measured `value`.
template <typename F>
void derive(Rows& rows, std::size_t base, const std::string& value, const char* name, F f) {
  const Stat* b = rows.at(base).find(value);
  if (b == nullptr) return;
  const double base_median = b->median;
  for (Row& row : rows) {
    if (const Stat* s = row.find(value)) {
      const double v = f(s->median, base_median);
      row.stats.push_back({name, false, v, v, v});
    }
  }
}

// One timed analyze_dataset; the timing includes destroying the analysis.
template <typename Source>
Sample time_analysis(const Source& source, const AnalyzerConfig& config) {
  const Clock::time_point start = Clock::now();
  const std::uint64_t packets = analyze_dataset(source, config).quality.packets_seen;
  const double seconds = since(start);
  return {count("packets", packets),
          {"seconds", seconds},
          {"pps", static_cast<double>(packets) / seconds}};
}

// ---- fork()ed children -------------------------------------------------------

// What a child reports: body's result and its own wall time (written into
// memory shared with the parent), and its peak resident set (from wait4).
struct ChildResult {
  std::uint64_t value = 0;
  double seconds = 0.0;
  std::uint64_t peak_rss_kb = 0;
};

// Runs body(i) for i in [0, n), each in its own fork()ed child, all at
// once, and waits for every child it started, whatever happens.  Throws
// when a fork fails or a child does not exit 0.  fork() without exec is
// only safe while this process has started no thread, which is why the
// studies that call this run first.
template <typename Fn>
std::vector<ChildResult> run_children(std::size_t n, const Fn& body) {
  void* map = ::mmap(nullptr, n * sizeof(ChildResult), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (map == MAP_FAILED) throw std::runtime_error(std::string("mmap: ") + std::strerror(errno));
  auto* shared = static_cast<ChildResult*>(map);
  std::vector<pid_t> pids;
  for (std::size_t i = 0; i < n; ++i) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      try {
        const Clock::time_point start = Clock::now();
        shared[i].value = body(i);
        shared[i].seconds = since(start);
        ::_exit(0);
      } catch (...) {
        ::_exit(1);
      }
    }
    if (pid < 0) break;
    pids.push_back(pid);
  }
  bool ok = pids.size() == n;
  for (std::size_t i = 0; i < pids.size(); ++i) {
    int status = 0;
    struct rusage usage {};
    ok = ::wait4(pids[i], &status, 0, &usage) == pids[i] && WIFEXITED(status) &&
         WEXITSTATUS(status) == 0 && ok;
    shared[i].peak_rss_kb = static_cast<std::uint64_t>(usage.ru_maxrss);  // KB on Linux
  }
  const std::vector<ChildResult> results(shared, shared + pids.size());
  ::munmap(map, n * sizeof(ChildResult));
  if (!ok) {
    throw std::runtime_error(std::to_string(pids.size()) + " of " + std::to_string(n) +
                             " children forked, and not every one exited 0");
  }
  return results;
}

// ---- the studies -------------------------------------------------------------

// Materialized vs streaming peak RSS on D1 (68-byte snaplen: the paper's
// biggest dataset by packet count).  Materialized generates the whole
// TraceSet, then analyzes it, as the seed pipeline did; streaming holds
// at most one regeneration slice per analysis thread.  Each rep runs in
// its own child, because ru_maxrss is a process-lifetime high-water mark.
Rows run_memory(const DatasetSpec& spec, int reps) {
  Rows rows = repeat({"materialized", "streaming"}, reps, [&](std::size_t c) -> Sample {
    const ChildResult r = run_children(1, [&](std::size_t) -> std::uint64_t {
      EnterpriseModel model;
      const AnalyzerConfig config = default_config_for_model(model.site());
      const DatasetAnalysis analysis =
          c == 0 ? analyze_dataset(generate_dataset(spec, model), config)
                 : analyze_dataset(SyntheticTraceSourceSet(spec, model), config);
      return analysis.quality.packets_seen;
    }).front();
    return {count("packets", r.value),
            {"seconds", r.seconds},
            {"peak_rss_kb", static_cast<double>(r.peak_rss_kb)}};
  });
  derive(rows, 0, "peak_rss_kb", "rss_reduction", [](double x, double b) { return b / x; });
  return rows;
}

// Shards [lo, lo + shards.size()) of a dataset into one .esnap; its bytes.
std::uint64_t write_esnap(const std::string& path, const snapshot::SnapshotMeta& meta,
                          const std::vector<TraceShard>& shards, std::size_t lo) {
  snapshot::SnapshotWriter writer(path, meta);
  for (std::size_t i = 0; i < shards.size(); ++i) {
    writer.add_shard(static_cast<std::uint32_t>(lo + i), shards[i]);
  }
  writer.close();
  return writer.bytes_written();
}

// The entrace_shard | entrace_merge pipeline as one measurement: D1
// analyzed by 1/2/4/8 children, each writing its trace range as a .esnap,
// then decoded and folded here.  Children analyze with threads = 1
// (ThreadPool's inline mode starts no thread), so every fork happens in a
// single-threaded process.  The "encode" row times SnapshotWriter alone,
// over shards analyzed once up front.
Rows run_snapshot(const DatasetSpec& spec, int reps) {
  EnterpriseModel model;
  AnalyzerConfig config = default_config_for_model(model.site());
  config.threads = 1;
  const SyntheticTraceSourceSet sources(spec, model);
  const std::size_t n = sources.size();
  const snapshot::SnapshotMeta meta{spec.name, spec.scale, static_cast<std::uint32_t>(n)};
  const std::vector<TraceShard> analyzed = analyze_trace_shards(sources, config, 0, n);
  const std::string dir = (std::filesystem::temp_directory_path() / "entrace_bench_esnap").string();
  std::filesystem::create_directories(dir);
  const auto path = [&dir](std::size_t s) { return dir + "/shard" + std::to_string(s) + ".esnap"; };
  const std::size_t counts[] = {1, 2, 4, 8};

  Rows rows = repeat(
      {"encode", "1 shard", "2 shards", "4 shards", "8 shards"}, reps,
      [&](std::size_t c) -> Sample {
        const Clock::time_point start = Clock::now();
        if (c == 0) {
          const std::uint64_t bytes = write_esnap(path(0), meta, analyzed, 0);
          const double seconds = since(start);
          return {count("bytes", bytes), {"encode_s", seconds},
                  {"encode_mb_per_s", static_cast<double>(bytes) / 1e6 / seconds}};
        }
        const std::size_t shards = counts[c - 1];
        run_children(shards, [&](std::size_t s) -> std::uint64_t {
          const std::size_t lo = n * s / shards, hi = n * (s + 1) / shards;
          return write_esnap(path(s), meta, analyze_trace_shards(sources, config, lo, hi), lo);
        });
        const double shard_s = since(start);

        const Clock::time_point decode_start = Clock::now();
        std::vector<TraceShard> decoded;
        std::uint64_t bytes = 0;
        for (std::size_t s = 0; s < shards; ++s) {
          snapshot::Snapshot snap = snapshot::read_snapshot(path(s));
          bytes += std::filesystem::file_size(path(s));
          for (auto& shard : snap.shards) decoded.push_back(std::move(shard.shard));
        }
        const double decode_s = since(decode_start);

        const Clock::time_point merge_start = Clock::now();
        const DatasetAnalysis folded = fold_shards(spec.name, std::move(decoded), config);
        const double merge_s = since(merge_start);
        return {count("packets", folded.quality.packets_seen),
                count("bytes", bytes),
                {"shard_s", shard_s},
                {"decode_s", decode_s},
                {"merge_s", merge_s},
                {"total_s", shard_s + decode_s + merge_s}};
      });
  std::filesystem::remove_all(dir);
  derive(rows, 1, "total_s", "speedup_vs_1", [](double x, double b) { return b / x; });
  return rows;
}

// The obs metrics layer's cost: analyze_dataset on D1 with collect_metrics
// off vs on, on one thread so idle cores cannot hide a per-packet cost.
// Budget: overhead <= 2% (EXPERIMENTS.md).
Rows run_telemetry(const DatasetSpec& spec, int reps) {
  EnterpriseModel model;
  const SyntheticTraceSourceSet sources(spec, model);
  AnalyzerConfig config = default_config_for_model(model.site());
  config.threads = 1;
  Rows rows = repeat({"metrics off", "metrics on"}, reps, [&](std::size_t c) {
    config.collect_metrics = c == 1;
    return time_analysis(sources, config);
  });
  derive(rows, 0, "seconds", "overhead_pct",
         [](double x, double b) { return (x - b) / b * 100.0; });
  return rows;
}

// The one dispatch engine, cluster::run_cluster, against one in-process
// direct analysis (analyze_dataset on one thread): 4
// local slots (entrace_orchestrate --workers: a fresh entrace_worker child
// per attempt) and 1/2/4 loopback workers (in-process WorkerServer threads
// on real TCP sockets), each at 0/10/20% per-attempt injected faults split
// evenly across refuse, disconnect, corrupt and hang.  The 0% rows price
// dispatch itself; the others add what recovery costs.  8 jobs give each
// run more fault draws, and 10 attempts let every job succeed in the end.
Rows run_dispatch(const DatasetSpec& spec, int reps) {
  EnterpriseModel model;
  AnalyzerConfig config = default_config_for_model(model.site());
  config.threads = 1;
  const SyntheticTraceSourceSet sources(spec, model);

  // Four loopback workers; the n-worker configurations dial the first n.
  std::vector<std::unique_ptr<cluster::WorkerServer>> servers;
  std::vector<std::string> endpoints;
  std::string bind_error;
  try {
    for (int i = 0; i < 4; ++i) {
      cluster::WorkerConfig wc;
      wc.name = "bench-w" + std::to_string(i);
      servers.push_back(std::make_unique<cluster::WorkerServer>(wc));
      endpoints.push_back("127.0.0.1:" + std::to_string(servers.back()->port()));
    }
  } catch (const std::exception& e) {
    bind_error = e.what();
  }

  std::vector<std::string> configs{"direct"};
  for (const char* setup : {"4 local slots", "1 worker", "2 workers", "4 workers"}) {
    for (const int pct : {0, 10, 20}) {
      configs.push_back(std::string(setup) + ", " + std::to_string(pct) + "% faults");
    }
  }
  std::vector<std::thread> threads;
  for (auto& server : servers) threads.emplace_back([&server] { server->serve(); });
  Rows rows = repeat(configs, reps, [&](std::size_t c) -> Sample {
    if (c == 0) return time_analysis(sources, config);
    const std::size_t setup = (c - 1) / 3;
    const double rate = 0.1 * static_cast<double>((c - 1) % 3);
    cluster::ClusterConfig cc;
    cc.dataset = spec.name;
    cc.scale = spec.scale;
    if (setup == 0) {
      cc.local_slots = 4;
      cc.worker_binary = ENTRACE_WORKER_BIN;
    } else if (!bind_error.empty()) {
      throw std::runtime_error("cannot bind loopback workers: " + bind_error);
    } else {
      cc.endpoints.assign(endpoints.begin(), endpoints.begin() + (1 << (setup - 1)));
    }
    cc.jobs = 8;
    cc.retry.max_attempts = 10;
    cc.retry.base_delay = 0.02;
    cc.retry.max_delay = 0.5;
    cc.heartbeat_interval = 0.05;
    cc.heartbeat_deadline = 2.0;  // each injected hang costs this much
    cc.inject.refuse = cc.inject.disconnect = cc.inject.corrupt = cc.inject.hang = rate / 4.0;
    cc.inject.seed = 17;
    const Clock::time_point start = Clock::now();
    const orchestrate::OrchestrateResult result = cluster::run_cluster(cc);
    const double seconds = since(start);
    if (!result.complete) {
      throw std::runtime_error("incomplete: traces " + result.manifest.missing_ranges() +
                               " missing");
    }
    return {count("attempts", result.attempts), count("retries", result.retries),
            count("faults", result.fault_counts.total_faults()), {"seconds", seconds}};
  });
  for (auto& server : servers) server->stop();
  for (std::thread& thread : threads) thread.join();
  derive(rows, 0, "seconds", "vs_direct", [](double x, double b) { return x / b; });
  return rows;
}

std::uint64_t sample_rss_kb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t pages_total = 0, pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return pages_resident * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE)) / 1024;
}

// The windowed engine (core/incremental.h) in the daemon's own loop shape:
// merged time-ordered replay -> feed -> rotate at window boundaries ->
// .esnap checkpoint -> tiered retention at the daemon's defaults (keep 4,
// K 8; sketch folds on the fold thread), with flow eviction and slot
// reclaim on, at 8/32/128 windows over the dataset's span.  One thread, so
// idle workers cannot hide the rotation stall: the wall pause one rotate +
// checkpoint + age cycle puts on ingest.  The resident set is sampled at
// each rotation.
Rows run_daemon(const DatasetSpec& spec, int reps) {
  EnterpriseModel model;
  const TraceSet set = generate_dataset(spec, model);
  const double packets = static_cast<double>(set.total_packets());
  AnalyzerConfig config = default_config_for_model(model.site());
  config.threads = 1;
  const double span = merged_stream(set).meta().duration;
  const double window_counts[] = {8, 32, 128};
  const std::string dir = (std::filesystem::temp_directory_path() / "entrace_bench_daemon").string();

  Rows rows = repeat({"windows@8", "windows@32", "windows@128"}, reps, [&](std::size_t c) -> Sample {
    if (span <= 0) throw std::runtime_error("the dataset spans no time");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    MergedPacketStream stream = merged_stream(set);
    std::vector<TraceMeta> metas;
    for (std::size_t s = 0; s < stream.source_count(); ++s) metas.push_back(stream.source(s).meta());
    IncrementalAnalyzer analyzer(
        std::move(metas), config,
        {.window_seconds = span / window_counts[c], .evict = true, .reclaim = true});
    const snapshot::SnapshotMeta meta{spec.name, spec.scale,
                                      static_cast<std::uint32_t>(set.traces.size())};
    snapshot::RetentionManager retention(dir, snapshot::RetentionOptions{4, 8}, config, meta);

    double stall_total = 0.0, stall_max = 0.0;
    std::uint64_t rss_peak = 0;
    const auto checkpoint = [&](WindowShard&& w) {
      const Clock::time_point s0 = Clock::now();
      const std::string path = dir + "/" + snapshot::window_file_name(w.index);
      snapshot::WindowSummary summary = snapshot::summarize_window(w);
      summary.snapshot_bytes = snapshot::write_window_snapshot(path, meta, w);
      retention.add_window(summary, path);
      const double stall = since(s0);
      stall_total += stall;
      stall_max = std::max(stall_max, stall);
      rss_peak = std::max(rss_peak, sample_rss_kb());
    };

    std::vector<PacketView> views(kBatchSize);
    const Clock::time_point start = Clock::now();
    for (;;) {
      const std::size_t got = stream.next_batch(views.data(), views.size());
      if (got == 0) break;
      analyzer.feed(views.data(), got);
      while (analyzer.window_complete()) checkpoint(analyzer.rotate());
    }
    checkpoint(analyzer.finish(&stream));
    const double seconds = since(start);
    retention.report_paths();  // settle trailing background folds before the next rep
    const double windows = static_cast<double>(analyzer.windows_rotated());
    return {{"windows", windows, false},
            count("evicted", analyzer.evicted_total()),
            count("drained", analyzer.drained_total()),
            {"seconds", seconds},
            {"pps", packets / seconds},
            {"stall_max_s", stall_max},
            {"stall_mean_s", windows > 0 ? stall_total / windows : 0.0},
            {"peak_rss_kb", static_cast<double>(rss_peak)}};
  });
  std::filesystem::remove_all(dir);
  return rows;
}

// analyze_dataset over the materialized D3 at 1, 2, 4 and ENTRACE_THREADS
// (default: every hardware thread) threads, one job per trace, timed as its
// three layers: the parallel shard phase (analyze_trace_shards), the serial
// fold (fold_shards) and the teardown (destroying the analysis and the
// moved-from shards).  `seconds` is their sum.
Rows run_scaling(const DatasetSpec& spec, int reps) {
  EnterpriseModel model;
  const TraceSet set = generate_dataset(spec, model);
  const MemoryTraceSourceSet sources(set);
  AnalyzerConfig config = default_config_for_model(model.site());
  const std::set<std::size_t> unique = {1, 2, 4, ThreadPool::env_thread_count()};
  const std::vector<std::size_t> counts(unique.begin(), unique.end());
  std::vector<std::string> configs;
  for (const std::size_t t : counts) configs.push_back("fused@" + std::to_string(t));
  Rows rows = repeat(configs, reps, [&](std::size_t c) -> Sample {
    config.threads = counts[c];
    // The steps of analyze_dataset, with a clock between them.
    const Clock::time_point start = Clock::now();
    obs::Registry process_metrics;
    std::vector<TraceShard> shards =
        analyze_trace_shards(sources, config, 0, sources.size(), &process_metrics);
    const double shards_s = since(start);
    const Clock::time_point fold_start = Clock::now();
    auto analysis = std::make_unique<DatasetAnalysis>(
        fold_shards(sources.dataset_name(), std::move(shards), config));
    analysis->metrics.merge(process_metrics);
    const double fold_s = since(fold_start);
    const std::uint64_t packets = analysis->quality.packets_seen;
    const Clock::time_point teardown_start = Clock::now();
    analysis.reset();
    shards.clear();
    const double teardown_s = since(teardown_start);
    const double seconds = shards_s + fold_s + teardown_s;
    return {count("packets", packets),
            {"seconds", seconds},
            {"shards_s", shards_s},
            {"fold_s", fold_s},
            {"teardown_s", teardown_s},
            {"pps", static_cast<double>(packets) / seconds}};
  });
  derive(rows, 0, "pps", "speedup_vs_1t", [](double x, double b) { return x / b; });
  return rows;
}

// Folds each benchmark's repetitions, which google-benchmark reports
// together, into its row.
class RowReporter final : public benchmark::BenchmarkReporter {
 public:
  bool ReportContext(const Context&) override { return true; }
  void ReportRuns(const std::vector<Run>& runs) override {
    std::vector<Sample> samples;
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration) continue;
      samples.push_back({{"ns_per_iter", run.GetAdjustedRealTime() * 1e9 /
                                             benchmark::GetTimeUnitMultiplier(run.time_unit)}});
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) samples.back().push_back({"items_per_s", items->second.value});
    }
    if (!samples.empty()) rows.push_back(fold_samples(runs.front().benchmark_name(), samples));
  }
  Rows rows;
};

// The google-benchmark suite above; main has passed it its flags and one
// repetition per rep.
Rows run_micro(const DatasetSpec&, int) {
  RowReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return reporter.rows;
}

// --smoke (CTest label "bench-smoke") keeps the harness from rotting: one
// tiny analyze_dataset over D3 that checks the packet count and the stage
// timers (stage.batch.{source,decode,tally,flow}), without writing
// BENCH_pipeline.json.
bool run_smoke() {
  EnterpriseModel model;
  const TraceSet set = generate_dataset(dataset_by_name("D3", 0.002), model);
  const DatasetAnalysis a = analyze_dataset(set, default_config_for_model(model.site()));
  const auto counter = [&a](const std::string& name) -> std::uint64_t {
    const obs::Metric* m = a.metrics.find(name);
    return m != nullptr && m->kind == obs::MetricKind::kCounter ? m->counter.value() : 0;
  };
  const std::uint64_t packets = set.total_packets();
  bool ok = packets > 0 && a.quality.packets_seen == packets &&
            counter("stage.batch.decode.items") == packets;
  for (const char* stage : {"source", "decode", "tally", "flow"}) {
    ok = ok && counter(std::string("stage.batch.") + stage + ".runs") > 0;
  }
  std::printf("smoke %s: %llu packets, %llu analyzed, %llu decoded in timed batches\n",
              ok ? "ok" : "FAILED", static_cast<unsigned long long>(packets),
              static_cast<unsigned long long>(a.quality.packets_seen),
              static_cast<unsigned long long>(counter("stage.batch.decode.items")));
  return ok;
}

// ---- the study table and its one writer --------------------------------------

// The studies in run order.  memory and snapshot fork() without exec, which
// is only safe before this process starts a thread, so they run first.  A
// study's dataset scale is ENTRACE_SCALE times its multiple.
struct Study {
  const char* key;
  const char* dataset;
  double scale_multiple;
  const char* what;
  Rows (*run)(const DatasetSpec& spec, int reps);
};

constexpr Study kStudies[] = {
    {"memory", "D1", 2.5, "peak RSS, materialized vs streaming", run_memory},
    {"snapshot", "D1", 1.0, "multi-process shard + merge over .esnap", run_snapshot},
    {"telemetry", "D1", 1.0, "collect_metrics off vs on, 1 thread (budget 2%)", run_telemetry},
    {"dispatch", "D0", 0.5, "run_cluster vs direct, 8 jobs, injected faults", run_dispatch},
    {"daemon", "D3", 1.0, "daemon steady state, tiered retention 4/8, 1 thread", run_daemon},
    {"scaling", "D3", 1.0, "analyze_dataset thread scaling", run_scaling},
    {"micro", "D3", 1.0, "google-benchmark suite", run_micro},
};

constexpr const char* kBenchFile = "BENCH_pipeline.json";

// %.4g, or the rounded integer from 1000 up; JSON has no inf or nan.
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), std::fabs(v) >= 1000 ? "%.0f" : "%.4g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

// The machine and build a run's rows came from.
std::string context_json(double scale, int reps) {
  std::string commit;
  if (FILE* git = ::popen("git -C '" ENTRACE_SOURCE_DIR "' describe --always --dirty 2>/dev/null", "r")) {
    char line[128] = {};
    if (std::fgets(line, sizeof(line), git) != nullptr) commit.assign(line, std::strcspn(line, "\n"));
    ::pclose(git);
  }
  return "{\"hardware_threads\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": " + quoted(ENTRACE_COMPILER) +
         ", \"build_type\": " + quoted(ENTRACE_BUILD_TYPE) +
         ", \"git_sha\": " + quoted(commit.empty() ? "unknown" : commit) +
         ", \"scale\": " + number(scale) + ", \"reps\": " + std::to_string(reps) + "}";
}

// Prints a study's rows as a table, one column per value name; a timed
// value reads "median (min..max)".
void print_rows(const std::string& title, const Rows& rows) {
  std::vector<std::string> header{"config"};
  for (const Row& row : rows) {
    for (const Stat& s : row.stats) {
      if (std::find(header.begin(), header.end(), s.name) == header.end()) header.push_back(s.name);
    }
  }
  TextTable table(title);
  for (const Row& row : rows) {
    std::vector<std::string> cells{row.config};
    if (!row.ok()) cells.push_back("FAILED: " + row.error);
    for (std::size_t c = 1; row.ok() && c < header.size(); ++c) {
      const Stat* s = row.find(header[c]);
      if (s == nullptr) {
        cells.emplace_back();
      } else if (s->timed) {
        cells.push_back(number(s->median) + " (" + number(s->min) + ".." + number(s->max) + ")");
      } else {
        cells.push_back(number(s->median));
      }
    }
    table.add_row(std::move(cells));
  }
  table.set_header(std::move(header));
  std::fputs(table.render().c_str(), stdout);
  std::fflush(stdout);
}

// A study's key: the run's context, the study's dataset, one object per row.
std::string study_json(const std::string& context, const DatasetSpec& spec, const Rows& rows) {
  std::string out = "{\n    \"context\": " + context + ",\n    \"dataset\": " + quoted(spec.name) +
                    ",\n    \"dataset_scale\": " + number(spec.scale) + ",\n    \"rows\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    out += std::string(i == 0 ? "\n" : ",\n") + "      {\"config\": " + quoted(row.config) +
           ", \"ok\": " + (row.ok() ? "true" : "false");
    if (!row.ok()) out += ", \"error\": " + quoted(row.error);
    for (const Stat& s : row.stats) {
      out += ", " + quoted(s.name) + ": ";
      out += s.timed ? "{\"median\": " + number(s.median) + ", \"min\": " + number(s.min) +
                           ", \"max\": " + number(s.max) + "}"
                     : number(s.median);
    }
    out += "}";
  }
  return out + "\n    ]\n  }";
}

// BENCH_pipeline.json's members, each value as its exact text.  The file is
// this harness's own: "{", one member per line that starts with two spaces
// and a quote (its value runs to the next such line; deeper lines are
// indented further), "}".  False for any other text.
bool split_members(const std::string& s, std::map<std::string, std::string>& out) {
  if (s.rfind("{\n", 0) != 0 || s.size() < 4 || s.compare(s.size() - 3, 3, "\n}\n") != 0) {
    return false;
  }
  const std::size_t end = s.size() - 3;  // the "\n}\n"
  if (end > 1 && s.compare(1, 4, "\n  \"") != 0) return false;
  for (std::size_t at = 1; at < end;) {
    const std::size_t next = std::min(s.find("\n  \"", at + 1), end);
    const std::size_t colon = s.find("\": ", at + 4);
    if (colon >= next) return false;
    std::string value = s.substr(colon + 3, next - colon - 3);
    if (next < end) {
      if (value.empty() || value.back() != ',') return false;
      value.pop_back();
    }
    out[s.substr(at + 4, colon - at - 4)] = value;
    at = next;
  }
  return true;
}

// Writes every key present, in study-table order, through a temp file.
bool write_bench_file(const std::map<std::string, std::string>& keys) {
  std::string text = "{";
  for (const Study& study : kStudies) {
    const auto it = keys.find(study.key);
    if (it == keys.end()) continue;
    text += std::string(text.size() > 1 ? ",\n  " : "\n  ") + quoted(study.key) + ": " + it->second;
  }
  text += "\n}\n";
  const std::string tmp = std::string(kBenchFile) + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    if (!(out << text)) return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, kBenchFile, ec);
  return !ec;
}

int usage() {
  std::string names;
  for (const Study& study : kStudies) names += std::string(names.empty() ? "" : ",") + study.key;
  std::fprintf(stderr,
               "usage: bench_micro_pipeline [--smoke] [--study %s] [--benchmark_...]\n",
               names.c_str());
  return 2;
}

}  // namespace
}  // namespace entrace

int main(int argc, char** argv) {
  using namespace entrace;
  // google-benchmark takes its --benchmark_* flags out of the arguments,
  // after one repetition per rep.
  const int reps = cli::env_int("ENTRACE_BENCH_REPS", 3);
  std::string repetitions = "--benchmark_repetitions=" + std::to_string(reps);
  std::vector<char*> args{argv[0], repetitions.data()};
  args.insert(args.end(), argv + 1, argv + argc);
  int nargs = static_cast<int>(args.size());
  benchmark::Initialize(&nargs, args.data());
  std::set<std::string> chosen;
  for (int i = 1; i < nargs; ++i) {
    const std::string arg = args[i];
    if (arg == "--smoke") return run_smoke() ? 0 : 1;
    if (arg != "--study" || i + 1 == nargs) return usage();
    for (const std::string_view name : split(args[++i], ',')) {
      const bool known = std::any_of(std::begin(kStudies), std::end(kStudies),
                                     [&](const Study& s) { return name == s.key; });
      if (!known) return usage();
      chosen.emplace(name);
    }
    if (chosen.empty()) return usage();
  }

  // Study key -> its value's text, from the last run of each study.
  std::map<std::string, std::string> keys, old;
  std::ifstream in{kBenchFile};
  if (in && !split_members({std::istreambuf_iterator<char>(in), {}}, old)) {
    std::fprintf(stderr, "%s is not in this harness's layout; move it away first\n", kBenchFile);
    return 1;
  }
  for (const Study& study : kStudies) {
    if (old.count(study.key) != 0) keys[study.key] = old[study.key];
  }

  const double scale = cli::env_scale();
  const std::string context = context_json(scale, reps);
  bool ok = true;
  for (const Study& study : kStudies) {
    if (!chosen.empty() && chosen.count(study.key) == 0) continue;
    const DatasetSpec spec = dataset_by_name(study.dataset, scale * study.scale_multiple);
    Rows rows;
    try {
      rows = study.run(spec, reps);
    } catch (const std::exception& e) {
      rows = {Row{"study", {}, e.what()}};
    }
    char title[160];
    std::snprintf(title, sizeof(title), "---- %s: %s (%s @ %s, median (min..max) of %d) ----",
                  study.key, study.what, study.dataset, number(spec.scale).c_str(), reps);
    print_rows(title, rows);
    keys[study.key] = study_json(context, spec, rows);
    if (!write_bench_file(keys)) {
      std::fprintf(stderr, "cannot write %s\n", kBenchFile);
      ok = false;
    }
    for (const Row& row : rows) ok = ok && row.ok();
  }
  return ok ? 0 : 1;
}
