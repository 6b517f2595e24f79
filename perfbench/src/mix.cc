// How far the benchmark's shaped inputs sit from the dataset they come from
// (perfbench --mix): the same dataset analyzed unshaped, with its heavy
// tails spread, with the packet budgets, and with budgets and connection
// cutoff, as the benchmark writes it.
#include <array>
#include <cinttypes>
#include <cstdio>
#include <filesystem>

#include "analysis/breakdown.h"
#include "layers.h"
#include "synth/synth_source.h"

namespace perfbench {

namespace {

using namespace entrace;

struct Mix {
  std::string label;
  std::size_t traces = 0;
  std::uint64_t packets = 0, wire_bytes = 0, connections = 0;
  std::size_t largest = 0;  // trace holding the most packets
  double largest_share = 0.0;
  // Application categories (the paper's Figure 1): shares of the packets
  // and payload bytes of connections.
  std::array<double, kNumCategories> packet_share{}, byte_share{};
};

double share(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

Mix measure(std::string label, const TraceSourceSet& set, const AnalyzerConfig& config) {
  std::vector<TraceShard> shards = analyze_trace_shards(set, config, 0, set.size());
  Mix m;
  m.label = std::move(label);
  m.traces = shards.size();
  std::uint64_t most = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (shards[i].quality.packets_seen > most) {
      most = shards[i].quality.packets_seen;
      m.largest = i;
    }
  }
  const DatasetAnalysis a = fold_shards(set.dataset_name(), std::move(shards), config);
  m.packets = a.quality.packets_seen;
  m.wire_bytes = a.total_wire_bytes;
  m.connections = a.all_connections.size();
  m.largest_share = share(most, m.packets);
  const AppCategoryBreakdown b = AppCategoryBreakdown::compute(a.connections, a.site);
  std::array<std::uint64_t, kNumCategories> pkts{}, bytes{};
  std::uint64_t all_pkts = 0, all_bytes = 0;
  for (std::size_t c = 0; c < kNumCategories; ++c) {
    pkts[c] = b.unicast[c][0].pkts + b.unicast[c][1].pkts + b.multicast[c].pkts;
    bytes[c] = b.unicast[c][0].bytes + b.unicast[c][1].bytes + b.multicast[c].bytes;
    all_pkts += pkts[c];
    all_bytes += bytes[c];
  }
  for (std::size_t c = 0; c < kNumCategories; ++c) {
    m.packet_share[c] = share(pkts[c], all_pkts);
    m.byte_share[c] = share(bytes[c], all_bytes);
  }
  return m;
}

}  // namespace

void print_input_mix(const DatasetSpec& dataset, const PacketBudget& budget,
                     const EnterpriseModel& model, const std::string& dir) {
  const DatasetSpec spread = seeded(dataset, dataset.seed);
  PacketBudget uncut = budget;
  uncut.per_connection = UINT64_MAX;
  // Written first: write_pcap_dataset forks, so no thread may run yet.
  const PcapDataset budget_files = write_pcap_dataset(spread, model, dir + "/budget", uncut);
  const PcapDataset shaped_files = write_pcap_dataset(spread, model, dir + "/shaped", budget);

  AnalyzerConfig config = default_config_for_model(model.site());
  config.threads = kThreads;
  const SyntheticSourceOptions slices{8, false};
  std::vector<Mix> mixes;
  mixes.push_back(measure("dataset", SyntheticTraceSourceSet(dataset, model, slices), config));
  mixes.push_back(measure("tails spread", SyntheticTraceSourceSet(spread, model, slices), config));
  mixes.push_back(
      measure("+ budgets", PcapFileSourceSet(dataset.name, budget_files.files), config));
  mixes.push_back(
      measure("+ cutoff (benchmark)", PcapFileSourceSet(dataset.name, shaped_files.files), config));
  std::filesystem::remove_all(dir + "/budget");
  std::filesystem::remove_all(dir + "/shaped");

  const Mix& full = mixes[1];  // what the budgets and the cutoff cut from
  std::printf("%s at scale %g, built-in seed %" PRIu64 "\n\n| |", dataset.name.c_str(),
              dataset.scale, dataset.seed);
  for (const Mix& m : mixes) std::printf(" %s |", m.label.c_str());
  std::printf("\n|---|");
  for (std::size_t i = 0; i < mixes.size(); ++i) std::printf("---|");
  const auto row = [&](const char* name, auto cell) {
    std::printf("\n| %s |", name);
    for (const Mix& m : mixes) std::printf(" %s |", cell(m).c_str());
  };
  const auto text = [](const char* fmt, auto... args) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), fmt, args...);
    return std::string(buf);
  };
  row("packets", [&](const Mix& m) { return text("%" PRIu64, m.packets); });
  row("packets kept", [&](const Mix& m) {
    return text("%.1f%%", 100.0 * share(m.packets, full.packets));
  });
  row("connections", [&](const Mix& m) { return text("%" PRIu64, m.connections); });
  row("connections kept", [&](const Mix& m) {
    return text("%.1f%%", 100.0 * share(m.connections, full.connections));
  });
  row("packets per connection",
      [&](const Mix& m) { return text("%.1f", 1.0 * m.packets / m.connections); });
  row("wire MB", [&](const Mix& m) { return text("%.1f", m.wire_bytes / 1e6); });
  row("largest trace (position of n)", [&](const Mix& m) {
    return text("%.1f%% (%zu of %zu)", 100.0 * m.largest_share, m.largest + 1, m.traces);
  });
  for (std::size_t c = 0; c < kNumCategories; ++c) {
    bool seen = false;
    for (const Mix& m : mixes) seen = seen || m.packet_share[c] >= 0.005 || m.byte_share[c] >= 0.005;
    if (!seen) continue;
    const std::string name =
        std::string(to_string(static_cast<AppCategory>(c))) + " packets / bytes";
    row(name.c_str(), [&](const Mix& m) {
      return text("%.1f%% / %.1f%%", 100.0 * m.packet_share[c], 100.0 * m.byte_share[c]);
    });
  }
  std::printf("\n");
}

}  // namespace perfbench
