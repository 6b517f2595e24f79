// trace_inspector: a conn.log-style tool over pcap files — stream a capture
// (or generate a demo one), print per-connection summaries and per-app
// tallies.  Demonstrates using the library on externally captured traces:
// the file is analyzed straight off disk through PcapFileSource, one batch
// of records in memory at a time, so captures far bigger than RAM inspect
// fine.
//
//   $ ./trace_inspector file.pcap          # inspect an existing pcap
//   $ ./trace_inspector --demo out.pcap    # write + inspect a demo capture
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <string>

#include "core/analyzer.h"
#include "pcap/packet_source.h"
#include "pcap/writer.h"
#include "synth/synth_source.h"
#include "util/strings.h"

using namespace entrace;

// A function-try-block: a capture the pcap reader rejects (or a demo file
// that cannot be written) prints the error and exits 1 instead of aborting.
int main(int argc, char** argv) try {
  std::string path;
  EnterpriseModel model;
  if (argc >= 3 && std::strcmp(argv[1], "--demo") == 0) {
    path = argv[2];
    DatasetSpec spec = dataset_d0(0.003);
    spec.monitored_subnets = {2};
    // Stream the generated packets straight into the file — the demo
    // capture never exists in memory either.
    SyntheticTraceSource source(spec, model, plan_dataset(spec).front());
    PcapWriter writer(path, source.meta().snaplen);
    while (const RawPacket* pkt = source.next()) writer.write(*pkt);
    std::printf("wrote demo capture to %s\n", path.c_str());
  } else if (argc >= 2) {
    path = argv[1];
  } else {
    std::fprintf(stderr, "usage: %s <file.pcap> | --demo <out.pcap>\n", argv[0]);
    return 2;
  }

  const PcapFileSourceSet sources("pcap", {{path, path, -1}});
  const std::uint32_t snaplen = sources.open(0)->meta().snaplen;

  AnalyzerConfig config = default_config_for_model(model.site());
  const DatasetAnalysis analysis = analyze_dataset(sources, config);
  // The seconds from the first 1 s load bin to the last.
  const auto& bins = analysis.load_raw.front().bits_1s.bins();
  const long long spanned = bins.empty() ? 0 : bins.rbegin()->first - bins.begin()->first + 1;
  std::printf("%s: %llu packets, snaplen %u, ~%lld seconds spanned\n\n", path.c_str(),
              static_cast<unsigned long long>(analysis.quality.packets_seen), snaplen, spanned);

  // Top connections by volume.
  std::vector<const Connection*> conns = analysis.all_connections;
  std::sort(conns.begin(), conns.end(), [](const Connection* a, const Connection* b) {
    return a->total_bytes() > b->total_bytes();
  });
  std::printf("top connections by payload bytes:\n");
  for (std::size_t i = 0; i < conns.size() && i < 15; ++i) {
    const Connection* c = conns[i];
    std::printf("  %-55s %-12s %8s dur=%.2fs app=%s\n", c->key.to_string().c_str(),
                to_string(c->state), format_bytes(c->total_bytes()).c_str(), c->duration(),
                to_string(static_cast<AppProtocol>(c->app_id)));
  }

  // Per-application tallies.
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> by_app;
  for (const Connection* c : analysis.all_connections) {
    auto& e = by_app[to_string(static_cast<AppProtocol>(c->app_id))];
    e.first += 1;
    e.second += c->total_bytes();
  }
  std::printf("\nper-application tallies:\n");
  for (const auto& [app, e] : by_app) {
    std::printf("  %-18s %6llu conns %12s\n", app.c_str(),
                static_cast<unsigned long long>(e.first), format_bytes(e.second).c_str());
  }
  std::printf("\napplication events parsed: %zu (http=%zu dns=%zu nbns=%zu cifs=%zu "
              "dcerpc=%zu nfs=%zu ncp=%zu)\n",
              analysis.events.total(), analysis.events.http.size(), analysis.events.dns.size(),
              analysis.events.nbns.size(), analysis.events.cifs.size(),
              analysis.events.dcerpc.size(), analysis.events.nfs.size(),
              analysis.events.ncp.size());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "trace_inspector: %s\n", e.what());
  return 1;
}
