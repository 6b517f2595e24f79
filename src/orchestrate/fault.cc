#include "orchestrate/fault.h"

namespace entrace::orchestrate {

const char* to_string(WorkerFault fault) {
  switch (fault) {
    case WorkerFault::kNone:
      return "none";
    case WorkerFault::kCrash:
      return "crash";
    case WorkerFault::kTruncatedSnapshot:
      return "truncated-snapshot";
    case WorkerFault::kSnapshotRejected:
      return "snapshot-rejected";
    case WorkerFault::kWrongTraceRange:
      return "wrong-trace-range";
    case WorkerFault::kConnectRefused:
      return "connect-refused";
    case WorkerFault::kDisconnect:
      return "disconnect";
    case WorkerFault::kCorruptFrame:
      return "corrupt-frame";
    case WorkerFault::kHeartbeatTimeout:
      return "heartbeat-timeout";
    case WorkerFault::kCount:
      break;
  }
  return "?";
}

WorkerFault classify_snapshot_error(const snapshot::SnapshotError& error) {
  return error.kind() == snapshot::SnapshotError::Kind::kTruncated
             ? WorkerFault::kTruncatedSnapshot
             : WorkerFault::kSnapshotRejected;
}

}  // namespace entrace::orchestrate
