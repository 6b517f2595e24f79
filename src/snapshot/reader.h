// Snapshot decode: reconstruct per-trace TraceShards from a .esnap file.
//
// Snapshot files are untrusted input, exactly like capture files (PR 2's
// decode-path hardening): the reader validates magic, format version,
// section framing, and per-section CRCs before interpreting a byte, and
// every structural field read is bounds-checked.  Any damage — truncation
// at file/section/field level, a flipped bit, an unknown section, a future
// format version — raises SnapshotError naming the absolute byte offset.
// A file whose end marker is missing was written by a process that died
// mid-shard; rejecting it is what lets a restarted run trust the snapshot
// files that do decode.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "snapshot/format.h"

namespace entrace::snapshot {

struct SnapshotShard {
  std::uint32_t trace_index = 0;
  TraceShard shard;
};

struct Snapshot {
  SnapshotMeta meta;
  std::vector<SnapshotShard> shards;  // in file order (ascending trace index)
};

// Decode a whole snapshot file.  Throws SnapshotError on any malformed
// input and std::runtime_error when the file cannot be opened.
Snapshot read_snapshot(const std::string& path);

// Decode from an in-memory image (the file layer of read_snapshot; exposed
// for the fault-injection tests, mirroring PcapReader's corrupted-header
// coverage).
Snapshot decode_snapshot(std::span<const std::uint8_t> bytes);

// Does `snap` hold exactly traces [lo, hi) of the dataset described by
// `expected`?  Returns the empty string when it does, else a one-line
// description of the first mismatch (different dataset/scale/trace-count
// metadata, wrong shard count, wrong first/last index, or a gap in the
// index sequence).  A snapshot that merely *decodes* is not enough to skip
// work or to accept a worker's result: entrace_shard --resume and the
// cluster coordinator both require the snapshot to cover the exact
// requested slice, and this is the single definition of "covers".
std::string describe_range_mismatch(const Snapshot& snap, const SnapshotMeta& expected,
                                    std::size_t lo, std::size_t hi);

}  // namespace entrace::snapshot
