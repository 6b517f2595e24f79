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
  for (const char c : kMagic) buf_.u8(static_cast<std::uint8_t>(c));
  buf_.u32(kFormatVersion);
  const std::size_t at = begin_section(SectionType::kDatasetMeta);
  encode_meta(meta, buf_);
  end_section(at);
  flush_buffer();
}

std::size_t SnapshotWriter::begin_section(SectionType type) {
  const std::size_t at = buf_.size();
  buf_.u32(static_cast<std::uint32_t>(type));
  buf_.u64(0);
  return at;
}

void SnapshotWriter::end_section(std::size_t at) {
  const std::size_t payload_at = at + kSectionHeaderSize;
  buf_.patch_u64(at + 4, buf_.size() - payload_at);
  buf_.u32(crc32(buf_.bytes().subspan(payload_at)));
}

void SnapshotWriter::flush_buffer() {
  const std::span<const std::uint8_t> bytes = buf_.bytes();
  sink_->write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
  if (!*sink_) throw std::runtime_error("snapshot writer: write failed on " + path_);
  offset_ += bytes.size();
  buf_.clear();
}

void SnapshotWriter::add_shard(std::uint32_t trace_index, const TraceShard& shard) {
  if (static_cast<std::int64_t>(trace_index) <= last_index_) {
    throw std::runtime_error("snapshot writer: trace index " + std::to_string(trace_index) +
                             " not ascending (previous " + std::to_string(last_index_) + ")");
  }
  last_index_ = static_cast<std::int64_t>(trace_index);
  const std::size_t at = begin_section(SectionType::kTraceShard);
  buf_.u32(trace_index);
  encode_shard(shard, buf_);
  end_section(at);
  flush_buffer();
}

void SnapshotWriter::close() {
  if (closed_) return;
  end_section(begin_section(SectionType::kEnd));
  flush_buffer();
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
