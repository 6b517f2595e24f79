#include "pcap/trace.h"

#include <utility>

#include "pcap/reader.h"
#include "pcap/writer.h"

namespace entrace {

std::uint64_t Trace::total_wire_bytes() const {
  std::uint64_t total = 0;
  for (const auto& p : packets) total += p.wire_len;
  return total;
}

void Trace::save(const std::string& path) const {
  PcapWriter writer(path, snaplen);
  for (const auto& p : packets) writer.write(p);
}

Trace Trace::load(const std::string& path, const std::string& name, int subnet_id) {
  PcapReader reader(path);
  Trace t;
  t.name = name.empty() ? path : name;
  t.subnet_id = subnet_id;
  t.snaplen = reader.snaplen();
  while (auto pkt = reader.next()) t.packets.push_back(std::move(*pkt));
  t.file_anomalies = reader.anomalies();
  if (!t.packets.empty()) {
    t.start_ts = t.packets.front().ts;
    t.duration = t.packets.back().ts - t.packets.front().ts;
  }
  return t;
}

std::uint64_t TraceSet::total_packets() const {
  std::uint64_t total = 0;
  for (const auto& t : traces) total += t.packets.size();
  return total;
}

std::uint64_t TraceSet::total_wire_bytes() const {
  std::uint64_t total = 0;
  for (const auto& t : traces) total += t.total_wire_bytes();
  return total;
}

}  // namespace entrace
