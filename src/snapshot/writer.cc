#include "snapshot/writer.h"

#include <cstdio>
#include <stdexcept>

#include "snapshot/codec.h"

namespace entrace::snapshot {

SnapshotWriter::SnapshotWriter(const std::string& path, const SnapshotMeta& meta)
    : path_(path),
      tmp_path_(path + ".tmp"),
      out_(tmp_path_, std::ios::binary | std::ios::trunc),
      sink_(&out_) {
  if (!out_) throw std::runtime_error("snapshot writer: cannot create " + tmp_path_);
  write_header(meta);
}

SnapshotWriter::SnapshotWriter(std::ostream& sink, const SnapshotMeta& meta) : sink_(&sink) {
  write_header(meta);
}

SnapshotWriter::~SnapshotWriter() {
  // Abandoned without close() (exception unwind): nothing was ever renamed
  // onto the destination, so just drop the partial .tmp.  A hard-killed
  // process skips this too, which is fine — the .tmp is not the
  // destination name and the next attempt truncates it.  Stream-sink mode
  // has nothing to clean up; the caller owns the (now end-marker-less,
  // reader-rejected) bytes.
  if (!closed_ && !tmp_path_.empty()) {
    out_.close();
    std::remove(tmp_path_.c_str());
  }
}

void SnapshotWriter::write_header(const SnapshotMeta& meta) {
  sink_->write(kMagic, kMagicSize);
  ByteWriter version;
  version.u32(kFormatVersion);
  sink_->write(reinterpret_cast<const char*>(version.bytes().data()),
               static_cast<std::streamsize>(version.bytes().size()));
  offset_ = kHeaderSize;

  ByteWriter w;
  encode_meta(meta, w);
  write_section(SectionType::kDatasetMeta, w);
}

void SnapshotWriter::write_section(SectionType type, const ByteWriter& payload) {
  const std::vector<std::uint8_t>& bytes = payload.bytes();
  ByteWriter frame;
  frame.u32(static_cast<std::uint32_t>(type));
  frame.u64(bytes.size());
  sink_->write(reinterpret_cast<const char*>(frame.bytes().data()),
               static_cast<std::streamsize>(frame.bytes().size()));
  sink_->write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
  ByteWriter trailer;
  trailer.u32(crc32(bytes));
  sink_->write(reinterpret_cast<const char*>(trailer.bytes().data()),
               static_cast<std::streamsize>(trailer.bytes().size()));
  if (!*sink_) throw std::runtime_error("snapshot writer: write failed on " + path_);
  offset_ += kSectionHeaderSize + bytes.size() + kSectionTrailerSize;
}

void SnapshotWriter::add_shard(std::uint32_t trace_index, const TraceShard& shard) {
  if (static_cast<std::int64_t>(trace_index) <= last_index_) {
    throw std::runtime_error("snapshot writer: trace index " + std::to_string(trace_index) +
                             " not ascending (previous " + std::to_string(last_index_) + ")");
  }
  last_index_ = static_cast<std::int64_t>(trace_index);
  for (const SectionType type : kShardRun) {
    ByteWriter w;
    w.u32(trace_index);
    encode_section(type, shard, w);
    write_section(type, w);
  }
}

void SnapshotWriter::close() {
  if (closed_) return;
  write_section(SectionType::kEnd, ByteWriter());
  sink_->flush();
  if (!*sink_) throw std::runtime_error("snapshot writer: flush failed on " + tmp_path_);
  if (tmp_path_.empty()) {
    closed_ = true;
    return;
  }
  out_.close();
  // The rename is the commit point: only a byte-complete snapshot (end
  // marker flushed) ever appears under the destination name.
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    std::remove(tmp_path_.c_str());
    throw std::runtime_error("snapshot writer: cannot rename " + tmp_path_ + " to " + path_);
  }
  closed_ = true;
}

}  // namespace entrace::snapshot
