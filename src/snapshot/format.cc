#include "snapshot/format.h"

#include <array>

namespace entrace::snapshot {

const char* to_string(SectionType type) {
  switch (type) {
    case SectionType::kDatasetMeta: return "dataset-meta";
    case SectionType::kTraceHeader: return "trace-header";
    case SectionType::kIpProtoCounts: return "ip-proto-counts";
    case SectionType::kHostSets: return "host-sets";
    case SectionType::kScannerState: return "scanner-state";
    case SectionType::kDynamicEndpoints: return "dynamic-endpoints";
    case SectionType::kConnections: return "connections";
    case SectionType::kAppEvents: return "app-events";
    case SectionType::kTraceLoad: return "trace-load";
    case SectionType::kCaptureQuality: return "capture-quality";
    case SectionType::kTraceMetrics: return "trace-metrics";
    case SectionType::kEnd: return "end";
  }
  return "unknown";
}

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes, std::uint32_t crc) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (const std::uint8_t b : bytes) c = table[(c ^ b) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace entrace::snapshot
