// Quickstart: stream a small synthetic enterprise dataset through the full
// analysis pipeline and print the headline results.
//
//   $ ./quickstart [scale]
//
// This exercises the whole public API in ~40 lines: EnterpriseModel +
// DatasetSpec -> SyntheticTraceSourceSet -> analyze_dataset -> report.
#include <cstdio>
#include <string>

#include "core/analyzer.h"
#include "core/report.h"
#include "synth/synth_source.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace entrace;
  double scale = 0.004;
  if (argc > 1 && !cli::parse_scale(argv[1], scale)) {
    std::fprintf(stderr, "usage: %s [scale]  (scale must be a positive number)\n", argv[0]);
    return 2;
  }

  // 1. Model the enterprise and pick a dataset configuration (D3: 18
  //    subnets, hour-long traces, full payloads).
  EnterpriseModel model;
  DatasetSpec spec = dataset_d3(scale);
  // Keep the quickstart quick: monitor only six subnets.
  spec.monitored_subnets = {4, 5, 15, 16, 17, 20};

  // 2+3. Stream the traces straight into the analyzer: each per-trace job
  //    regenerates its packets incrementally (one per monitored subnet, as
  //    captured by the paper's rotating tap), so the dataset is never
  //    materialized in memory.  Decode -> scanner filtering -> connections
  //    -> app parsing run as one fused pass per packet.
  const SyntheticTraceSourceSet sources(spec, model);
  const AnalyzerConfig config = default_config_for_model(model.site());
  const DatasetAnalysis analysis = analyze_dataset(sources, config);

  std::printf("streamed %llu packets across %zu traces (%.1f MB on the wire)\n\n",
              static_cast<unsigned long long>(analysis.quality.packets_seen), sources.size(),
              static_cast<double>(analysis.total_wire_bytes) / 1e6);
  std::printf("connections: %zu (%zu removed as scanner traffic, %zu scanners)\n",
              analysis.connections.size(), analysis.scanner_conns_removed,
              analysis.scanners.size());
  std::printf("application events parsed: %zu\n\n", analysis.events.total());

  // 4. Print a few of the paper's tables.
  const report::ReportInput input{&spec, &analysis};
  const std::vector<report::ReportInput> inputs{input};
  for (const char* name : {"table2", "table3", "figure1"}) {
    std::fputs(report::render_section(report::section(name), inputs).c_str(), stdout);
  }
  return 0;
}
