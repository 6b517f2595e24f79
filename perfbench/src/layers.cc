#include "layers.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "core/incremental.h"
#include "pcap/writer.h"
#include "snapshot/writer.h"
#include "synth/synth_source.h"
#include "util/thread_pool.h"

namespace perfbench {

using namespace entrace;

DatasetSpec seeded(DatasetSpec spec, std::uint64_t seed) {
  spec.seed = seed;
  // Same expected volume, kHeavyTailSpread times as many sessions.
  constexpr double f = kHeavyTailSpread;
  spec.netfile.nfs_pairs *= f;
  spec.netfile.nfs_requests_mean /= f;
  spec.backup.veritas_data_conns *= f;
  spec.backup.veritas_data_mb /= f;
  spec.backup.dantz_conns *= f;
  spec.backup.dantz_mb /= f;
  spec.backup.connected_conns *= f;
  spec.backup.connected_mb /= f;
  spec.other.ftp_sessions *= f;
  spec.other.ftp_mb /= f;
  spec.other.hpss_sessions *= f;
  spec.other.hpss_mb /= f;
  return spec;
}

namespace {

// Copies up to `limit` packets of `source` into a new pcap file, with every
// timestamp moved by `shift`; returns the packets written and the first
// and last timestamp written.
struct Copied {
  std::uint64_t packets = 0;
  double first_ts = 0.0, last_ts = 0.0;
};
// Direction-free IPv4 5-tuple of an Ethernet frame; 0 for anything else.
std::uint64_t connection_key(std::span<const std::uint8_t> f) {
  if (f.size() < 34 || f[12] != 0x08 || f[13] != 0x00) return 0;
  const std::size_t l4 = 14 + 4 * static_cast<std::size_t>(f[14] & 0x0f);
  const std::uint8_t proto = f[23];
  std::uint64_t a = (std::uint64_t{f[26]} << 24) | (f[27] << 16) | (f[28] << 8) | f[29];
  std::uint64_t b = (std::uint64_t{f[30]} << 24) | (f[31] << 16) | (f[32] << 8) | f[33];
  if ((proto == 6 || proto == 17) && f.size() >= l4 + 4) {
    a = (a << 16) | (f[l4] << 8) | f[l4 + 1];
    b = (b << 16) | (f[l4 + 2] << 8) | f[l4 + 3];
  }
  if (a > b) std::swap(a, b);
  return (a * 0x9E3779B97F4A7C15ull) ^ (b + 0x632BE59BD9B4E019ull + (a << 6)) ^ proto;
}

Copied copy_packets(PacketSource& source, const std::string& path, std::uint32_t snaplen,
                    std::uint64_t limit, double shift, std::uint64_t cutoff = UINT64_MAX) {
  PcapWriter writer(path, snaplen);
  std::vector<PacketView> views(kBatch);
  std::unordered_map<std::uint64_t, std::uint64_t> per_connection;
  RawPacket pkt;
  Copied out;
  while (out.packets < limit) {
    const std::uint64_t want = std::min<std::uint64_t>(kBatch, limit - out.packets);
    const std::size_t got = source.next_batch(views.data(), static_cast<std::size_t>(want));
    if (got == 0) break;
    for (std::size_t k = 0; k < got; ++k) {
      if (cutoff != UINT64_MAX) {
        const std::uint64_t key = connection_key(views[k].data);
        if (key != 0 && ++per_connection[key] > cutoff) continue;
      }
      pkt.ts = views[k].ts + shift;
      pkt.wire_len = views[k].wire_len;
      pkt.data.assign(views[k].data.begin(), views[k].data.end());
      writer.write(pkt);
      if (out.packets++ == 0) out.first_ts = pkt.ts;
      out.last_ts = pkt.ts;
    }
  }
  writer.flush();
  return out;
}

PcapDataset write_in_process(const DatasetSpec& spec, const EnterpriseModel& model,
                             const std::string& dir, const PacketBudget& budget) {
  std::filesystem::create_directories(dir);
  // Eight time slices and no producer thread: a trace's first packets cost
  // only the slices they fall in, memory stays at one slice per trace, and
  // at most kThreads threads run.
  const SyntheticTraceSourceSet sources(spec, model, SyntheticSourceOptions{8, false});
  const std::size_t n = sources.size();
  PcapDataset out;
  out.files.resize(n);
  std::size_t busy = n;
  for (std::size_t i = 0; i < n; ++i) {
    const std::unique_ptr<PacketSource> source = sources.open(i);  // plans only
    PcapTraceSpec& file = out.files[i];
    file.name = source->meta().name;
    file.subnet_id = source->meta().subnet_id;
    file.path = dir + "/" + file.name + ".pcap";
    if (busy == n && file.subnet_id == budget.busy_subnet) busy = i;
  }
  std::vector<Copied> kept(n);
  ThreadPool pool(kThreads);
  pool.for_each_index(n, [&](std::size_t i) {
    const std::unique_ptr<PacketSource> source = sources.open(i);
    kept[i] = copy_packets(*source, out.files[i].path + ".tmp", spec.snaplen,
                           i == busy ? budget.busy : budget.per_trace, 0.0,
                           budget.per_connection);
  });
  // Each trace is rewritten to start 1 ms after the previous one's last
  // packet.
  double cursor = n != 0 ? kept[0].first_ts : 0.0;
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < n; ++i) {
    const PcapTraceSpec& file = out.files[i];
    PcapFileSource unshifted(file.path + ".tmp", file.name, file.subnet_id);
    const Copied moved = copy_packets(unshifted, file.path, spec.snaplen, kept[i].packets,
                                      cursor - kept[i].first_ts);
    std::filesystem::remove(file.path + ".tmp");
    out.sizes.packets.push_back(moved.packets);
    out.sizes.total += moved.packets;
    if (moved.packets != 0) cursor = moved.last_ts + 1e-3;
    paths.push_back(file.path);
  }
  out.input_bytes = total_file_bytes(paths);
  out.span_seconds = n != 0 ? cursor - kept[0].first_ts : 0.0;
  return out;
}

}  // namespace

PcapDataset write_pcap_dataset(const DatasetSpec& spec, const EnterpriseModel& model,
                               const std::string& dir, const PacketBudget& budget) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    ::close(fds[0]);
    int code = 1;
    try {
      const PcapDataset d = write_in_process(spec, model, dir, budget);
      std::ostringstream out;
      out.precision(17);
      out << d.files.size() << ' ' << d.input_bytes << ' ' << d.span_seconds << '\n';
      for (std::size_t i = 0; i < d.files.size(); ++i) {
        out << d.sizes.packets[i] << ' ' << d.files[i].subnet_id << ' ' << d.files[i].name << '\n';
      }
      const std::string text = out.str();
      code = ::write(fds[1], text.data(), text.size()) == static_cast<ssize_t>(text.size()) ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
    }
    ::_exit(code);
  }
  ::close(fds[1]);
  std::string text;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) text.append(buf, static_cast<std::size_t>(n));
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("pcap set-up child failed");
  }
  std::istringstream in(text);
  PcapDataset d;
  std::size_t count = 0;
  in >> count >> d.input_bytes >> d.span_seconds;
  d.files.resize(count);
  for (PcapTraceSpec& f : d.files) {
    std::uint64_t packets = 0;
    in >> packets >> f.subnet_id >> f.name;
    f.path = dir + "/" + f.name + ".pcap";
    d.sizes.packets.push_back(packets);
    d.sizes.total += packets;
  }
  if (!in) throw std::runtime_error("pcap set-up child sent a malformed manifest");
  return d;
}

double TraceSizes::largest_share() const {
  if (total == 0 || packets.empty()) return 0.0;
  return static_cast<double>(*std::max_element(packets.begin(), packets.end())) /
         static_cast<double>(total);
}

double TraceSizes::largest_job_share(std::size_t jobs) const {
  const std::size_t n = packets.size();
  jobs = std::clamp<std::size_t>(jobs, 1, std::max<std::size_t>(n, 1));
  std::uint64_t largest = 0;
  for (std::size_t j = 0; j < jobs; ++j) {
    std::uint64_t sum = 0;
    for (std::size_t t = n * j / jobs; t < n * (j + 1) / jobs; ++t) sum += packets[t];
    largest = std::max(largest, sum);
  }
  return total == 0 ? 0.0 : static_cast<double>(largest) / static_cast<double>(total);
}

TraceSizes trace_sizes(const std::vector<TraceShard>& shards) {
  TraceSizes sizes;
  for (const TraceShard& s : shards) {
    sizes.packets.push_back(s.quality.packets_seen);
    sizes.total += s.quality.packets_seen;
  }
  return sizes;
}

std::string encode_shards(std::span<const TraceShard> shards, const snapshot::SnapshotMeta& meta,
                          std::uint32_t first) {
  std::ostringstream out(std::ios::binary);
  snapshot::SnapshotWriter writer(out, meta);
  for (std::size_t i = 0; i < shards.size(); ++i) {
    writer.add_shard(first + static_cast<std::uint32_t>(i), shards[i]);
  }
  writer.close();
  return std::move(out).str();
}

namespace {

// A source that reports its lifetime and batch pauses when dropped.
class TimedSource final : public PacketSource {
 public:
  TimedSource(std::unique_ptr<PacketSource> inner, std::size_t index,
              const JobTimingSourceSet::Done& done)
      : inner_(std::move(inner)), index_(index), done_(done), open_(Clock::now()) {}
  ~TimedSource() override { done_(index_, open_, Clock::now(), batch_s_); }

  const TraceMeta& meta() const override { return inner_->meta(); }
  const AnomalyCounts& anomalies() const override { return inner_->anomalies(); }

 protected:
  const RawPacket* pull() override { return inner_->next(); }
  std::size_t pull_batch(PacketView* out, std::size_t n) override {
    if (returned_ != Clock::time_point{}) batch_s_.push_back(seconds_since(returned_));
    const std::size_t got = inner_->next_batch(out, n);
    returned_ = Clock::now();
    return got;
  }

 private:
  std::unique_ptr<PacketSource> inner_;
  std::size_t index_;
  const JobTimingSourceSet::Done& done_;
  Clock::time_point open_;
  Clock::time_point returned_;  // when next_batch last returned
  std::vector<double> batch_s_;
};

}  // namespace

std::unique_ptr<PacketSource> JobTimingSourceSet::open(std::size_t index) const {
  return std::make_unique<TimedSource>(inner_.open(index), index, done_);
}

double gauge_value(const obs::Registry& reg, const std::string& name) {
  const obs::Metric* m = reg.find(name);
  return m == nullptr ? 0.0 : m->gauge.value();
}

std::uint64_t counter_value(const obs::Registry& reg, const std::string& name) {
  const obs::Metric* m = reg.find(name);
  return m == nullptr ? 0 : m->counter.value();
}

double stage_ns_per_item(const obs::Registry& reg, const std::string& stage) {
  const std::uint64_t items = counter_value(reg, "stage." + stage + ".items");
  if (items == 0) return 0.0;
  return gauge_value(reg, "stage." + stage + ".seconds") * 1e9 / static_cast<double>(items);
}

obs::Registry merged_metrics(const std::vector<TraceShard>& shards) {
  obs::Registry reg;
  for (const TraceShard& s : shards) reg.merge(s.metrics);
  return reg;
}

double pcap_read_ns_per_pkt(const std::vector<PcapTraceSpec>& files) {
  std::vector<PacketView> views(kBatch);
  std::uint64_t packets = 0;
  double seconds = 0.0;
  for (const PcapTraceSpec& f : files) {
    const auto t0 = Clock::now();
    PcapFileSource source(f.path, f.name, f.subnet_id);
    while (const std::size_t got = source.next_batch(views.data(), views.size())) packets += got;
    seconds += seconds_since(t0);
  }
  return packets == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(packets);
}

double synth_ns_per_pkt(const DatasetSpec& spec, const EnterpriseModel& model) {
  const SyntheticTraceSourceSet sources(spec, model);
  std::vector<PacketView> views(kBatch);
  std::uint64_t packets = 0;
  const auto t0 = Clock::now();
  const std::unique_ptr<PacketSource> source = sources.open(0);
  while (const std::size_t got = source->next_batch(views.data(), views.size())) packets += got;
  const double s = seconds_since(t0);
  return packets == 0 ? 0.0 : s * 1e9 / static_cast<double>(packets);
}

double payload_ns_per_pkt(const TraceSourceSet& set, AnalyzerConfig config) {
  config.threads = kThreads;
  double flow_ns[2] = {0.0, 0.0};
  for (const bool payload : {true, false}) {
    config.payload_analysis = payload;
    const std::vector<TraceShard> shards = analyze_trace_shards(set, config, 0, set.size());
    flow_ns[payload ? 0 : 1] = stage_ns_per_item(merged_metrics(shards), "batch.flow");
  }
  return flow_ns[0] - flow_ns[1];
}

double replay_feed_seconds(const std::vector<PcapTraceSpec>& files, AnalyzerConfig config,
                           std::size_t threads, double window_seconds) {
  std::vector<std::unique_ptr<PacketSource>> opened;
  for (const PcapTraceSpec& f : files) {
    opened.push_back(std::make_unique<PcapFileSource>(f.path, f.name, f.subnet_id));
  }
  MergedPacketStream stream(std::move(opened));
  std::vector<TraceMeta> metas;
  for (std::size_t i = 0; i < stream.source_count(); ++i) metas.push_back(stream.source(i).meta());
  config.threads = threads;
  IncrementalAnalyzer analyzer(std::move(metas), config,
                               IncrementalOptions{window_seconds, true, true});
  std::vector<PacketView> views(kBatch);
  double feed = 0.0;
  while (const std::size_t got = stream.next_batch(views.data(), views.size())) {
    const auto t0 = Clock::now();
    analyzer.feed(views.data(), got);
    feed += seconds_since(t0);
    while (analyzer.window_complete()) analyzer.rotate();
  }
  analyzer.finish(&stream);
  return feed;
}

}  // namespace perfbench
