// The .esnap payloads, spelled once for the writer and the reader.
//
// A trace shard's section holds eight payloads in a fixed order (trace
// header, host sets, scanner state, connections, app events, trace load,
// capture quality, trace metrics).  They carry exactly the shard's members,
// and a member exists only because a report line, a metric, a digest or a
// shipped tool reads it (DESIGN.md §9; tests/field_audit_test.cc).  Each is a function
// template in codec.cc that names its fields in wire order.  The writer
// runs them with a field-writer that appends each field's bytes; the reader
// runs the same templates with a field-reader that reads each field back
// and validates it (every one-byte enum against its last enumerator, every
// host run strictly ascending).  No payload refers into another: an event
// carries its connection's endpoints.  Three payloads stay explicit
// read/write pairs: the scanner observations (exported and imported
// through ScannerDetector; the reader holds them to the export's canonical
// form), the semantic metrics (the writer filters by class, the reader
// checks histogram shape) and the load-series bins (the reader rejects a
// bin twice).  The framing around the payloads (headers, CRCs, the trace
// index) belongs to writer.cc and reader.cc.
#pragma once

#include "core/analyzer.h"
#include "snapshot/format.h"

namespace entrace::snapshot {

// Append the dataset-meta payload.
void encode_meta(const SnapshotMeta& meta, ByteWriter& w);
// Read the dataset-meta payload.
void decode_meta(ByteReader& r, SnapshotMeta& meta);

// Append the payloads of `shard`'s section, after the trace index the
// caller wrote.
void encode_shard(const TraceShard& shard, ByteWriter& w);
// Read the payloads of a shard's section into `shard`, which must be fresh.
// Throws SnapshotError naming the byte offset of the first invalid field.
void decode_shard(ByteReader& r, TraceShard& shard);

}  // namespace entrace::snapshot
