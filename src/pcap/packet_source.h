// Pull-based packet sources: the streaming ingest layer of the pipeline.
//
// The paper's datasets are 17-65M packets each; materializing a whole
// TraceSet before analysis caps dataset size by RAM instead of disk/CPU.
// A PacketSource yields zero-copy batches of packet views plus the trace
// metadata the analyzer needs up front (name, subnet, snaplen, capture
// window) and the source-layer anomalies accumulated while reading, so the
// analyzer can run the fused single-decode pass without ever holding a
// trace in memory.  There is one packet path: every implementation fills
// batches through pull_batch(), and next() is a one-packet copying adapter
// on top of it for tools and tests.  Three implementations exist:
//
//   - MemoryTraceSource    adapts an in-memory Trace (zero-copy; keeps
//                          every existing TraceSet caller working),
//   - PcapFileSource       streams straight off disk through PcapReader,
//                          with record-level anomaly accounting (the
//                          reader clips to the snaplen),
//   - SyntheticTraceSource (src/synth/synth_source.h) regenerates the
//                          trace in bounded time slices.
//
// A TraceSourceSet is the per-dataset factory: analyze_dataset's thread-
// pool jobs each open() their own source, so per-trace streams never share
// state and results stay bit-identical for every thread count.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/anomaly.h"
#include "net/packet.h"
#include "pcap/trace.h"

namespace entrace {

// Zero-copy view of one captured packet — the unit of batched ingest.
// `data` aliases storage owned by the source and stays valid only until
// the next next_batch()/next() call on that source.
struct PacketView {
  double ts = 0.0;
  std::uint32_t wire_len = 0;
  std::span<const std::uint8_t> data;
  // Originating sub-source for multi-trace streams: MergedPacketStream sets
  // it to the merged source's index so a consumer (the incremental
  // analyzer's per-trace demux) can attribute each packet without a side
  // channel.  Single-trace sources leave it 0.
  std::uint32_t source = 0;
};

// Trace-level metadata a source knows before the first packet is pulled.
// File-backed sources that cannot know the capture window up front leave
// start_ts/duration at 0.
struct TraceMeta {
  std::string name;
  int subnet_id = -1;
  std::uint32_t snaplen = 1500;
  double start_ts = 0.0;
  double duration = 0.0;
};

// Ingest volume of one trace — the telemetry ground truth for `source.*`
// metrics, counted by the consumer as it decodes (TraceStream::feed).
struct SourceStats {
  std::uint64_t packets = 0;
  std::uint64_t captured_bytes = 0;  // sum of data.size() after snaplen clip
  std::uint64_t wire_bytes = 0;      // sum of original on-the-wire lengths
};

class PacketSource {
 public:
  virtual ~PacketSource();

  virtual const TraceMeta& meta() const = 0;

  // Batched ingest: fill up to n views, returning the count (0 = end of
  // stream).  Views stay valid until the next next_batch()/next() call on
  // this source.  Sources may return short batches at internal buffer
  // boundaries (slice refills, merged-stream head exhaustion) — a short
  // batch is NOT end-of-stream; only 0 is.  This is the packet path: one
  // virtual dispatch per batch.
  std::size_t next_batch(PacketView* out, std::size_t n) { return pull_batch(out, n); }

  // One-packet adapter for tools and tests (trace_inspector): the next
  // packet as an owned RawPacket, or nullptr at end of stream.  The pointee
  // stays valid only until the next next()/next_batch() call.
  const RawPacket* next() { return pull(); }

  // Source-layer anomalies (pcap record damage, salvaged truncations)
  // accumulated so far; complete once the stream is drained.
  virtual const AnomalyCounts& anomalies() const = 0;

 protected:
  // The implementation hook, with next_batch()'s contract.
  virtual std::size_t pull_batch(PacketView* out, std::size_t n) = 0;

  // next()'s hook: copies one pull_batch() view into an owned packet.
  // Virtual only so a wrapper can forward next() to its inner source
  // (perfbench's TimedSource does).
  virtual const RawPacket* pull() {
    PacketView view;
    if (pull_batch(&view, 1) == 0) return nullptr;
    one_.ts = view.ts;
    one_.wire_len = view.wire_len;
    one_.data.assign(view.data.begin(), view.data.end());
    return &one_;
  }

 private:
  RawPacket one_;
};

// Factory of per-trace sources for one dataset.  open() may be called
// concurrently from different threads for different indices (each
// analyze_dataset job opens its own trace), so implementations must not
// mutate shared state in open().
class TraceSourceSet {
 public:
  virtual ~TraceSourceSet();

  virtual const std::string& dataset_name() const = 0;
  virtual std::size_t size() const = 0;
  virtual std::unique_ptr<PacketSource> open(std::size_t index) const = 0;
};

// ---- in-memory adapters -----------------------------------------------------

// Streams an existing Trace without copying packets; the Trace must outlive
// the source.
class MemoryTraceSource final : public PacketSource {
 public:
  explicit MemoryTraceSource(const Trace& trace);

  const TraceMeta& meta() const override { return meta_; }
  const AnomalyCounts& anomalies() const override { return trace_->file_anomalies; }

 protected:
  // Views alias the Trace's own packet storage.
  std::size_t pull_batch(PacketView* out, std::size_t n) override {
    const std::vector<RawPacket>& pkts = trace_->packets;
    std::size_t i = 0;
    for (; i < n && pos_ < pkts.size(); ++i, ++pos_) {
      const RawPacket& p = pkts[pos_];
      out[i] = PacketView{p.ts, p.wire_len, p.data};
    }
    return i;
  }

 private:
  const Trace* trace_;
  TraceMeta meta_;
  std::size_t pos_ = 0;
};

// Adapts a materialized TraceSet; the TraceSet must outlive the set and
// every source opened from it.
class MemoryTraceSourceSet final : public TraceSourceSet {
 public:
  explicit MemoryTraceSourceSet(const TraceSet& traces) : traces_(&traces) {}

  const std::string& dataset_name() const override { return traces_->dataset_name; }
  std::size_t size() const override { return traces_->traces.size(); }
  std::unique_ptr<PacketSource> open(std::size_t index) const override;

 private:
  const TraceSet* traces_;
};

// ---- pcap files -------------------------------------------------------------

// Streams a capture file through PcapReader: corrupt trailing records are
// salvaged/skipped and counted in anomalies(), and
// the reader clips captured bytes to the file's snaplen.  Throws
// std::runtime_error when the file cannot be opened or its global header
// is malformed (same message as PcapReader).
class PcapFileSource final : public PacketSource {
 public:
  explicit PcapFileSource(const std::string& path, std::string name = "",
                          int subnet_id = -1);
  ~PcapFileSource() override;

  const TraceMeta& meta() const override { return meta_; }
  const AnomalyCounts& anomalies() const override;

 protected:
  // Reads up to n records into an owned per-batch buffer (one read loop,
  // no per-packet virtual dispatch from the analyzer side).
  std::size_t pull_batch(PacketView* out, std::size_t n) override;

 private:
  std::unique_ptr<class PcapReader> reader_;
  TraceMeta meta_;
  std::vector<RawPacket> batch_;
};

// One file of a pcap-backed dataset.
struct PcapTraceSpec {
  std::string path;
  std::string name;     // defaults to path when empty
  int subnet_id = -1;
};

class PcapFileSourceSet final : public TraceSourceSet {
 public:
  PcapFileSourceSet(std::string dataset_name, std::vector<PcapTraceSpec> files)
      : dataset_name_(std::move(dataset_name)), files_(std::move(files)) {}

  const std::string& dataset_name() const override { return dataset_name_; }
  std::size_t size() const override { return files_.size(); }
  std::unique_ptr<PacketSource> open(std::size_t index) const override;

 private:
  std::string dataset_name_;
  std::vector<PcapTraceSpec> files_;
};

// ---- k-way timestamp merge --------------------------------------------------

// Streams the union of several PacketSources in global timestamp order
// (ties broken by source index, matching the old TraceSet::merged()
// stable sort) while holding one buffered batch per source and a ring of
// four chunks of merged packets.  Precondition: each source yields
// nondecreasing timestamps, which holds for generated traces (sorted at
// emission) and normal captures.
//
// A PacketSource itself, so it composes with any source consumer — the
// paced replay wrapper (pcap/replay.h) and the daemon's ingest loop run on
// the same next_batch() contract as single-trace analysis.  Each view's
// `source` field carries the originating sub-source index so a demuxing
// consumer can attribute packets per trace.  next()'s RawPackets carry no
// attribution.
//
// The merge runs on a thread of its own, up to three chunks of about
// 256 KiB ahead of the caller, so a consumer's feed and window checkpoints
// overlap the next batches' merge (one chunk ahead left the merge idle
// through most of each checkpoint):
//   - the thread starts on the first pull (construction stays thread-free
//     and fork-safe) and merges batches of the caller's last batch size n,
//     copying each packet's bytes into the chunk so the sub-sources may
//     refill; the chunk records where each batch ends, so a caller with a
//     constant n gets exactly the batches of a synchronous merge, and one
//     that varies n gets the same packets in the same order;
//   - chunks are handed over whole, in order; views alias the chunk being
//     served and stay valid until the next next_batch()/next() call, as
//     for every source;
//   - an exception thrown by a sub-source rethrows from next_batch() on
//     the caller's thread, after the packets merged before it (and from
//     every later call);
//   - source(i) and anomalies() pause the read-ahead (wait for the chunk
//     in progress, and start no other until the caller needs one) before
//     touching a sub-source, so no sub-source is used by two threads; the
//     stream has one caller thread;
//   - destroying the stream, drained or not, stops and joins the thread.
class MergedPacketStream final : public PacketSource {
 public:
  explicit MergedPacketStream(std::vector<std::unique_ptr<PacketSource>> sources);
  ~MergedPacketStream() override;

  MergedPacketStream(const MergedPacketStream&) = delete;
  MergedPacketStream& operator=(const MergedPacketStream&) = delete;

  // Synthesized metadata: name "merged", snaplen = max over sub-sources,
  // start_ts = min, duration spanning all sub-source windows.
  const TraceMeta& meta() const override { return meta_; }

  // Aggregated source-layer anomalies across every sub-source (recomputed
  // per call; complete once the stream is drained).
  const AnomalyCounts& anomalies() const override;

  // Sub-source access for per-trace accounting (stats / anomalies of one
  // constituent trace).  The reference may be used until the next pull.
  std::size_t source_count() const { return sources_.size(); }
  const PacketSource& source(std::size_t i) const {
    pause();
    return *sources_[i];
  }

 protected:
  // Serves the current chunk's batches, taking the next chunk from the
  // merge thread when this one is drained; 0 means fully drained.
  std::size_t pull_batch(PacketView* out, std::size_t n) override;

 private:
  // Merged batches with their packets' bytes, handed from the merge
  // thread to the caller whole.
  struct Chunk {
    struct Packet {
      double ts;
      std::uint32_t wire_len;
      std::uint32_t source;
      std::size_t offset;  // into bytes
      std::size_t size;
    };
    std::vector<std::uint8_t> bytes;
    std::vector<Packet> packets;
    std::vector<std::size_t> batch_ends;  // one past each batch's last packet
    bool last = false;         // the merge drained or threw after these batches
    std::exception_ptr error;  // what it threw
  };

  // The k-way merge of one batch into `out` (merge thread): each source
  // keeps a buffered batch of heads, and runs are taken from the minimum
  // head while it stays below the runner-up.  When a source's buffer runs
  // dry mid-batch the batch ends short, as it did when the caller's views
  // aliased the heads: a windowed consumer rotates between batches, so
  // batch boundaries decide its windows.  0 means fully drained.
  std::size_t merge_batch(PacketView* out, std::size_t n);
  // Fills `c` with whole batches until it holds about 256 KiB.
  void fill(Chunk& c);
  void read_ahead();  // the merge thread
  // Caller side: waits for the next merged chunk and serves it.
  void take_chunk();
  // Returns once the merge thread is not touching any sub-source.
  void pause() const;

  std::vector<std::unique_ptr<PacketSource>> sources_;

  // ---- merge thread ----------------------------------------------------------
  // One buffered batch of views per source.
  struct SourceBuf {
    std::vector<PacketView> views;
    std::size_t pos = 0;
    bool eof = false;
  };
  std::vector<SourceBuf> bufs_;
  std::vector<PacketView> merged_;  // the batch being copied into a chunk

  // ---- caller thread ---------------------------------------------------------
  TraceMeta meta_;
  mutable AnomalyCounts merged_anomalies_;
  std::size_t cur_ = kAhead;  // ring_ slot being served (the last one, empty, at first)
  std::size_t pos_ = 0;       // its next packet
  std::size_t batch_ = 0;     // its batch that holds pos_

  // ---- handoff -----------------------------------------------------------------
  // Chunks [head_, tail_) of the ring are merged and wait for the caller,
  // slot (head_ - 1) is the caller's, and the merge thread fills slot tail_
  // while fewer than kAhead wait and no pause holds.
  static constexpr std::size_t kAhead = 3;
  std::array<Chunk, kAhead + 1> ring_;
  std::uint64_t head_ = 0;
  std::uint64_t tail_ = 0;
  bool filling_ = false;        // the merge thread is using the sub-sources
  mutable bool pause_ = false;  // no fill may start until the caller takes a chunk
  bool stop_ = false;
  std::atomic<std::size_t> want_{0};  // the caller's last batch size
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::thread thread_;  // started by the first pull, joined by the destructor
};

// Convenience: a merged stream over the traces of an in-memory TraceSet
// (each trace wrapped in a MemoryTraceSource; the set must outlive it).
MergedPacketStream merged_stream(const TraceSet& traces);

}  // namespace entrace
