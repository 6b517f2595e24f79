#include "cluster/protocol.h"

#include <cstring>

namespace entrace::cluster {

namespace {

using snapshot::ByteReader;
using snapshot::ByteWriter;
using snapshot::crc32;

std::uint32_t read_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

bool known_type(std::uint32_t raw) {
  return raw >= static_cast<std::uint32_t>(MsgType::kHello) &&
         raw <= static_cast<std::uint32_t>(MsgType::kError);
}

// Payload decode shares snapshot::ByteReader, whose underrun/overrun errors
// are SnapshotErrors with payload-relative offsets; remap them onto the
// protocol's error type so callers classify frame damage uniformly.
template <typename Fn>
auto decode_payload(const Frame& frame, MsgType want, Fn fn) {
  if (frame.type != want) {
    throw ProtocolError(0, std::string("expected ") + to_string(want) + " frame, got " +
                               to_string(frame.type));
  }
  ByteReader reader(frame.payload, 0);
  try {
    auto msg = fn(reader);
    reader.expect_end(to_string(want));
    return msg;
  } catch (const snapshot::SnapshotError& e) {
    throw ProtocolError(e.offset(), std::string(to_string(want)) + " payload: " + e.what());
  }
}

}  // namespace

const char* to_string(MsgType type) {
  switch (type) {
    case MsgType::kHello:
      return "HELLO";
    case MsgType::kJob:
      return "JOB";
    case MsgType::kHeartbeat:
      return "HEARTBEAT";
    case MsgType::kSnapshotChunk:
      return "SNAPSHOT";
    case MsgType::kDone:
      return "DONE";
    case MsgType::kError:
      return "ERROR";
  }
  return "?";
}

std::vector<std::uint8_t> encode_frame(MsgType type, std::span<const std::uint8_t> payload) {
  ByteWriter w;
  for (char c : kFrameMagic) w.u8(static_cast<std::uint8_t>(c));
  w.u32(static_cast<std::uint32_t>(type));
  w.u32(static_cast<std::uint32_t>(payload.size()));
  std::vector<std::uint8_t> out(w.bytes().begin(), w.bytes().end());
  out.insert(out.end(), payload.begin(), payload.end());
  const std::uint32_t crc = crc32(payload);
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  return out;
}

void FrameDecoder::feed(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + len);
}

std::optional<Frame> FrameDecoder::next() {
  if (buffered() < kFrameHeaderSize) return std::nullopt;
  const std::uint8_t* p = buf_.data() + head_;
  if (std::memcmp(p, kFrameMagic, kFrameMagicSize) != 0) {
    throw ProtocolError(consumed_, "bad frame magic");
  }
  const std::uint32_t raw_type = read_le32(p + kFrameMagicSize);
  const std::uint32_t length = read_le32(p + kFrameMagicSize + 4);
  if (!known_type(raw_type)) {
    throw ProtocolError(consumed_ + kFrameMagicSize,
                        "unknown frame type " + std::to_string(raw_type));
  }
  if (length > kMaxFramePayload) {
    throw ProtocolError(consumed_ + kFrameMagicSize + 4,
                        "frame payload length " + std::to_string(length) + " exceeds cap " +
                            std::to_string(kMaxFramePayload));
  }
  const std::size_t total = kFrameHeaderSize + length + kFrameTrailerSize;
  if (buffered() < total) return std::nullopt;

  const std::span<const std::uint8_t> payload(p + kFrameHeaderSize, length);
  const std::uint32_t want_crc = read_le32(p + kFrameHeaderSize + length);
  if (snapshot::crc32(payload) != want_crc) {
    throw ProtocolError(consumed_ + kFrameHeaderSize + length,
                        std::string("frame CRC mismatch on ") +
                            to_string(static_cast<MsgType>(raw_type)) + " payload");
  }

  Frame frame;
  frame.type = static_cast<MsgType>(raw_type);
  frame.payload.assign(payload.begin(), payload.end());
  head_ += total;
  consumed_ += total;
  // Compact once the consumed prefix dominates, so long snapshot streams
  // do not accrete the whole transfer in memory.
  if (head_ > (64u << 10) && head_ * 2 >= buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  return frame;
}

// ---- messages ---------------------------------------------------------------

std::vector<std::uint8_t> HelloMsg::encode() const {
  ByteWriter w;
  w.u32(protocol_version);
  w.str(worker_name);
  return encode_frame(MsgType::kHello, w.bytes());
}

HelloMsg HelloMsg::decode(const Frame& frame) {
  return decode_payload(frame, MsgType::kHello, [](ByteReader& r) {
    HelloMsg msg;
    msg.protocol_version = r.u32();
    msg.worker_name = r.str();
    return msg;
  });
}

std::vector<std::uint8_t> JobMsg::encode() const {
  ByteWriter w;
  w.u64(job_id);
  w.u32(attempt);
  w.str(dataset);
  w.f64(scale);
  w.u32(trace_count);
  w.u32(lo);
  w.u32(hi);
  w.u32(threads);
  w.u32(heartbeat_interval_ms);
  w.u8(injected_fault);
  return encode_frame(MsgType::kJob, w.bytes());
}

JobMsg JobMsg::decode(const Frame& frame) {
  return decode_payload(frame, MsgType::kJob, [](ByteReader& r) {
    JobMsg msg;
    msg.job_id = r.u64();
    msg.attempt = r.u32();
    msg.dataset = r.str();
    msg.scale = r.f64();
    msg.trace_count = r.u32();
    msg.lo = r.u32();
    msg.hi = r.u32();
    msg.threads = r.u32();
    msg.heartbeat_interval_ms = r.u32();
    msg.injected_fault = r.u8();
    return msg;
  });
}

std::vector<std::uint8_t> HeartbeatMsg::encode() const {
  ByteWriter w;
  w.u64(job_id);
  return encode_frame(MsgType::kHeartbeat, w.bytes());
}

HeartbeatMsg HeartbeatMsg::decode(const Frame& frame) {
  return decode_payload(frame, MsgType::kHeartbeat, [](ByteReader& r) {
    HeartbeatMsg msg;
    msg.job_id = r.u64();
    return msg;
  });
}

std::vector<std::uint8_t> SnapshotChunkMsg::encode() const {
  ByteWriter w;
  w.u64(job_id);
  w.u64(offset);
  w.u32(static_cast<std::uint32_t>(bytes.size()));
  std::vector<std::uint8_t> payload(w.bytes().begin(), w.bytes().end());
  payload.insert(payload.end(), bytes.begin(), bytes.end());
  return encode_frame(MsgType::kSnapshotChunk, payload);
}

SnapshotChunkMsg SnapshotChunkMsg::decode(const Frame& frame) {
  // Bypasses the decode_payload helper: the trailing chunk bytes are taken
  // in bulk (not field-by-field), so the remainder check is done by hand.
  if (frame.type != MsgType::kSnapshotChunk) {
    throw ProtocolError(0, std::string("expected SNAPSHOT frame, got ") + to_string(frame.type));
  }
  SnapshotChunkMsg msg;
  std::uint32_t n = 0;
  ByteReader r(frame.payload, 0);
  try {
    msg.job_id = r.u64();
    msg.offset = r.u64();
    n = r.u32();
  } catch (const snapshot::SnapshotError& e) {
    throw ProtocolError(e.offset(), std::string("SNAPSHOT payload: ") + e.what());
  }
  if (n != r.remaining()) {
    throw ProtocolError(r.offset(), "chunk byte count " + std::to_string(n) +
                                        " disagrees with payload remainder " +
                                        std::to_string(r.remaining()));
  }
  msg.bytes.assign(frame.payload.end() - static_cast<std::ptrdiff_t>(n), frame.payload.end());
  return msg;
}

std::vector<std::uint8_t> DoneMsg::encode() const {
  ByteWriter w;
  w.u64(job_id);
  w.u64(total_bytes);
  w.u32(snapshot_crc);
  return encode_frame(MsgType::kDone, w.bytes());
}

DoneMsg DoneMsg::decode(const Frame& frame) {
  return decode_payload(frame, MsgType::kDone, [](ByteReader& r) {
    DoneMsg msg;
    msg.job_id = r.u64();
    msg.total_bytes = r.u64();
    msg.snapshot_crc = r.u32();
    return msg;
  });
}

std::vector<std::uint8_t> ErrorMsg::encode() const {
  ByteWriter w;
  w.u64(job_id);
  w.str(message);
  return encode_frame(MsgType::kError, w.bytes());
}

ErrorMsg ErrorMsg::decode(const Frame& frame) {
  return decode_payload(frame, MsgType::kError, [](ByteReader& r) {
    ErrorMsg msg;
    msg.job_id = r.u64();
    msg.message = r.str();
    return msg;
  });
}

}  // namespace entrace::cluster
