#include "pcap/packet_source.h"

#include <algorithm>
#include <utility>

#include "pcap/reader.h"

namespace entrace {

PacketSource::~PacketSource() = default;
TraceSourceSet::~TraceSourceSet() = default;

// ---- MemoryTraceSource ------------------------------------------------------

MemoryTraceSource::MemoryTraceSource(const Trace& trace) : trace_(&trace) {
  meta_.name = trace.name;
  meta_.subnet_id = trace.subnet_id;
  meta_.snaplen = trace.snaplen;
  meta_.start_ts = trace.start_ts;
  meta_.duration = trace.duration;
}

std::unique_ptr<PacketSource> MemoryTraceSourceSet::open(std::size_t index) const {
  return std::make_unique<MemoryTraceSource>(traces_->traces.at(index));
}

// ---- PcapFileSource ---------------------------------------------------------

PcapFileSource::PcapFileSource(const std::string& path, std::string name, int subnet_id)
    : reader_(std::make_unique<PcapReader>(path)) {
  meta_.name = name.empty() ? path : std::move(name);
  meta_.subnet_id = subnet_id;
  meta_.snaplen = reader_->snaplen();
}

PcapFileSource::~PcapFileSource() = default;

std::size_t PcapFileSource::pull_batch(PacketView* out, std::size_t n) {
  batch_.clear();
  batch_.reserve(n);
  while (batch_.size() < n) {
    auto pkt = reader_->next();
    if (!pkt) break;
    batch_.push_back(std::move(*pkt));
  }
  for (std::size_t i = 0; i < batch_.size(); ++i) {
    out[i] = PacketView{batch_[i].ts, batch_[i].wire_len, batch_[i].data};
  }
  return batch_.size();
}

const AnomalyCounts& PcapFileSource::anomalies() const { return reader_->anomalies(); }

std::unique_ptr<PacketSource> PcapFileSourceSet::open(std::size_t index) const {
  const PcapTraceSpec& spec = files_.at(index);
  return std::make_unique<PcapFileSource>(spec.path, spec.name, spec.subnet_id);
}

// ---- MergedPacketStream -----------------------------------------------------

MergedPacketStream::MergedPacketStream(std::vector<std::unique_ptr<PacketSource>> sources)
    : sources_(std::move(sources)), bufs_(sources_.size()) {
  meta_.name = "merged";
  meta_.subnet_id = -1;
  meta_.snaplen = 0;
  double start = 0.0, end = 0.0;
  bool have_window = false;
  for (const auto& src : sources_) {
    const TraceMeta& m = src->meta();
    meta_.snaplen = std::max(meta_.snaplen, m.snaplen);
    if (m.duration > 0.0) {
      if (!have_window || m.start_ts < start) start = m.start_ts;
      if (!have_window || m.start_ts + m.duration > end) end = m.start_ts + m.duration;
      have_window = true;
    }
  }
  if (have_window) {
    meta_.start_ts = start;
    meta_.duration = end - start;
  }
}

MergedPacketStream::~MergedPacketStream() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

const AnomalyCounts& MergedPacketStream::anomalies() const {
  pause();
  merged_anomalies_ = AnomalyCounts{};
  for (const auto& src : sources_) merged_anomalies_.merge(src->anomalies());
  return merged_anomalies_;
}

std::size_t MergedPacketStream::merge_batch(PacketView* out, std::size_t n) {
  constexpr std::size_t kHeadBatch = 64;
  // Refill exhausted buffers only on entry: the batch before this one has
  // been copied out, so its views may die now.
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    SourceBuf& b = bufs_[i];
    if (b.eof || b.pos < b.views.size()) continue;
    b.views.resize(kHeadBatch);
    const std::size_t got = sources_[i]->next_batch(b.views.data(), kHeadBatch);
    b.views.resize(got);
    b.pos = 0;
    if (got == 0) b.eof = true;
    // Stamp attribution once per refill; consumers demux on view.source.
    for (PacketView& v : b.views) v.source = static_cast<std::uint32_t>(i);
  }
  std::size_t k = 0;
  while (k < n) {
    // The minimum head by (ts, source index) and the runner-up: the strict
    // < keeps the lowest index on ties.  Source counts are small (one per
    // trace), so a linear scan beats heap maintenance here.
    std::size_t best = SIZE_MAX, next = SIZE_MAX;
    for (std::size_t i = 0; i < bufs_.size(); ++i) {
      const SourceBuf& b = bufs_[i];
      if (b.pos >= b.views.size()) continue;
      const double ts = b.views[b.pos].ts;
      if (best == SIZE_MAX || ts < bufs_[best].views[bufs_[best].pos].ts) {
        next = best;
        best = i;
      } else if (next == SIZE_MAX || ts < bufs_[next].views[bufs_[next].pos].ts) {
        next = i;
      }
    }
    if (best == SIZE_MAX) break;  // every buffer empty: drained
    // A run: the minimum source's heads go out while they stay below the
    // runner-up's head (or tie it from the lower index), the order a rescan
    // per packet would give.
    SourceBuf& b = bufs_[best];
    const bool alone = next == SIZE_MAX;
    const double bound = alone ? 0.0 : bufs_[next].views[bufs_[next].pos].ts;
    const bool wins_ties = best < next;
    do {
      out[k++] = b.views[b.pos++];
    } while (k < n && b.pos < b.views.size() &&
             (alone || b.views[b.pos].ts < bound ||
              (wins_ties && b.views[b.pos].ts == bound)));
    if (b.pos >= b.views.size() && !b.eof) break;  // short batch; refill next call
  }
  return k;
}

void MergedPacketStream::fill(Chunk& c) {
  constexpr std::size_t kChunkBytes = 256 * 1024;
  c.bytes.clear();
  c.packets.clear();
  c.batch_ends.clear();
  c.last = false;
  c.error = nullptr;
  try {
    while (c.bytes.size() + c.packets.size() * sizeof(Chunk::Packet) < kChunkBytes) {
      const std::size_t n = want_.load(std::memory_order_relaxed);
      merged_.resize(n);
      const std::size_t got = merge_batch(merged_.data(), n);
      if (got == 0) {
        c.last = true;
        return;
      }
      for (std::size_t i = 0; i < got; ++i) {
        const PacketView& v = merged_[i];
        c.packets.push_back({v.ts, v.wire_len, v.source, c.bytes.size(), v.data.size()});
        c.bytes.insert(c.bytes.end(), v.data.begin(), v.data.end());
      }
      c.batch_ends.push_back(c.packets.size());
    }
  } catch (...) {
    // The batches already recorded are whole; the caller gets them first.
    c.error = std::current_exception();
    c.last = true;
  }
}

void MergedPacketStream::read_ahead() {
  for (;;) {
    Chunk* c;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] { return stop_ || (!pause_ && tail_ - head_ < kAhead); });
      if (stop_) return;
      filling_ = true;
      c = &ring_[tail_ % ring_.size()];
    }
    fill(*c);
    const bool last = c->last;  // the slot is the caller's once tail_ passes it
    {
      std::lock_guard<std::mutex> lk(mu_);
      filling_ = false;
      ++tail_;
    }
    cv_.notify_all();
    if (last) return;
  }
}

void MergedPacketStream::take_chunk() {
  if (!thread_.joinable()) thread_ = std::thread([this] { read_ahead(); });
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (pause_) {  // the caller is done with the sub-sources
      pause_ = false;
      cv_.notify_all();
    }
    cv_.wait(lk, [&] { return tail_ != head_; });
    cur_ = head_ % ring_.size();
    ++head_;  // frees the slot served until now
  }
  cv_.notify_all();
  pos_ = 0;
  batch_ = 0;
}

void MergedPacketStream::pause() const {
  if (!thread_.joinable()) return;  // no pull yet: the caller is alone
  std::unique_lock<std::mutex> lk(mu_);
  pause_ = true;
  cv_.wait(lk, [&] { return !filling_; });
}

std::size_t MergedPacketStream::pull_batch(PacketView* out, std::size_t n) {
  if (n == 0) return 0;
  want_.store(n, std::memory_order_relaxed);
  while (batch_ == ring_[cur_].batch_ends.size()) {
    const Chunk& c = ring_[cur_];
    if (c.last) {
      if (c.error) std::rethrow_exception(c.error);
      return 0;
    }
    take_chunk();
  }
  const Chunk& c = ring_[cur_];
  const std::size_t end = c.batch_ends[batch_];
  const std::size_t take = std::min(n, end - pos_);
  const std::uint8_t* bytes = c.bytes.data();
  for (std::size_t i = 0; i < take; ++i) {
    const Chunk::Packet& p = c.packets[pos_ + i];
    out[i] = PacketView{p.ts, p.wire_len, {bytes + p.offset, p.size}, p.source};
  }
  pos_ += take;
  if (pos_ == end) ++batch_;
  return take;
}

MergedPacketStream merged_stream(const TraceSet& traces) {
  std::vector<std::unique_ptr<PacketSource>> sources;
  sources.reserve(traces.traces.size());
  for (const Trace& t : traces.traces) sources.push_back(std::make_unique<MemoryTraceSource>(t));
  return MergedPacketStream(std::move(sources));
}

}  // namespace entrace
