// The .esnap section payloads, spelled once for the writer and the reader.
//
// Each section's payload is a function template in codec.cc that names the
// section's fields in wire order.  The writer runs it with a field-writer
// that appends each field's bytes; the reader runs the same template with
// a field-reader that reads each field back and validates it (every
// one-byte enum against its last enumerator, every host run strictly
// ascending).  No section refers into another: an event carries its
// connection's endpoints, so the sections decode independently.  Three payloads stay explicit read/write pairs: the scanner
// observations (exported and imported through ScannerDetector; the reader
// holds them to the export's canonical form), the semantic metrics (the
// writer filters by class, the reader checks histogram shape) and the
// load-series bins (the reader checks widths and duplicates).  The framing
// around the payloads (headers, CRCs, trace indexes, the kShardRun order)
// belongs to writer.cc and reader.cc.
#pragma once

#include "core/analyzer.h"
#include "snapshot/format.h"

namespace entrace::snapshot {

// Append the dataset-meta payload.
void encode_meta(const SnapshotMeta& meta, ByteWriter& w);
// Read the dataset-meta payload.
void decode_meta(ByteReader& r, SnapshotMeta& meta);

// Append the payload of per-trace section `type` (one of kShardRun) for
// `shard`, after the trace index the caller wrote.
void encode_section(SectionType type, const TraceShard& shard, ByteWriter& w);
// Read the payload of per-trace section `type` into `shard`, which holds
// the sections of its run decoded so far.  Throws SnapshotError naming the
// byte offset of the first invalid field.
void decode_section(SectionType type, ByteReader& r, TraceShard& shard);

}  // namespace entrace::snapshot
