#include "cluster/fault.h"

#include <cstdlib>
#include <string_view>

#include "util/rng.h"
#include "util/strings.h"

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

namespace entrace::cluster {

const char* to_string(NetFault fault) {
  switch (fault) {
    case NetFault::kNoInject:
      return "none";
    case NetFault::kRefuseInject:
      return "refuse";
    case NetFault::kDisconnectInject:
      return "disconnect";
    case NetFault::kCorruptFrameInject:
      return "corrupt-frame";
    case NetFault::kHangInject:
      return "hang";
    case NetFault::kNetFaultCount:
      break;
  }
  return "?";
}

orchestrate::WorkerFault expected_fault(NetFault injected) {
  switch (injected) {
    case NetFault::kRefuseInject:
      return orchestrate::WorkerFault::kConnectRefused;
    case NetFault::kDisconnectInject:
      return orchestrate::WorkerFault::kDisconnect;
    case NetFault::kCorruptFrameInject:
      return orchestrate::WorkerFault::kCorruptFrame;
    case NetFault::kHangInject:
      return orchestrate::WorkerFault::kHeartbeatTimeout;
    case NetFault::kNoInject:
    case NetFault::kNetFaultCount:
      break;
  }
  return orchestrate::WorkerFault::kNone;
}

NetFault NetFaultPlan::draw(std::uint64_t job, int attempt) const {
  if (!any() || attempt > attempt_limit) return NetFault::kNoInject;
  // One independent stream per (job, attempt), the corruptor's
  // fork-per-trace idiom: the schedule is independent of dispatch order,
  // endpoint count, and how many other jobs retried first.
  Rng rng = Rng(seed).fork(job).fork(static_cast<std::uint64_t>(attempt));
  if (rng.bernoulli(refuse)) return NetFault::kRefuseInject;
  if (rng.bernoulli(disconnect)) return NetFault::kDisconnectInject;
  if (rng.bernoulli(corrupt)) return NetFault::kCorruptFrameInject;
  if (rng.bernoulli(hang)) return NetFault::kHangInject;
  return NetFault::kNoInject;
}

bool parse_net_inject_spec(const std::string& spec, NetFaultPlan& out, std::string* error) {
  for (const std::string_view part : split(spec, ',')) {
    if (part.empty()) continue;
    const std::size_t eq = part.find('=');
    if (eq == std::string_view::npos) {
      if (error != nullptr) {
        *error = "--inject entry '" + std::string(part) + "' is not key=probability";
      }
      return false;
    }
    const std::string key(part.substr(0, eq));
    const std::string value(part.substr(eq + 1));
    char* end = nullptr;
    const double p = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || p < 0.0 || p > 1.0) {
      if (error != nullptr) {
        *error = "--inject " + key + "=" + value + " is not a probability in [0, 1]";
      }
      return false;
    }
    if (key == "refuse") {
      out.refuse = p;
    } else if (key == "disconnect") {
      out.disconnect = p;
    } else if (key == "corrupt") {
      out.corrupt = p;
    } else if (key == "hang") {
      out.hang = p;
    } else {
      if (error != nullptr) {
        *error = "--inject key '" + key + "' unknown (want refuse|disconnect|corrupt|hang)";
      }
      return false;
    }
  }
  return true;
}

}  // namespace entrace::cluster
