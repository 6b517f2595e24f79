// Corruption demo: generate D0, hit it with the wire-level fault injector at
// several fault rates, and print the capture-quality table for each — the
// source of the capture-quality section in EXPERIMENTS.md.
//
//   $ ./corruption_demo [rate ...]        (default rates: 0 0.01 0.1)
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/analyzer.h"
#include "core/report.h"
#include "synth/corruptor.h"
#include "synth/generator.h"

int main(int argc, char** argv) {
  using namespace entrace;
  std::vector<double> rates;
  for (int i = 1; i < argc; ++i) rates.push_back(std::atof(argv[i]));
  if (rates.empty()) rates = {0.0, 0.01, 0.1};

  EnterpriseModel model;
  DatasetSpec spec = dataset_d0(0.02);
  // This demo deliberately keeps the materialized path: the fault injector
  // mutates packets in place, so the dataset must exist in memory before
  // each corruption pass (the streaming sources regenerate pristine bytes).
  const TraceSet clean = generate_dataset(spec, model);
  std::printf("D0: %llu packets across %zu traces\n\n",
              static_cast<unsigned long long>(clean.total_packets()), clean.traces.size());

  // One spec/analysis pair per rate; specs must outlive the report inputs.
  std::vector<DatasetSpec> specs(rates.size(), spec);
  std::vector<DatasetAnalysis> analyses;
  analyses.reserve(rates.size());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    TraceSet corrupted = clean;
    CorruptionConfig config;
    config.seed = 42;
    config.rate = rates[i];
    const CorruptionSummary summary = corrupt_dataset(corrupted, config);
    char name[64];
    std::snprintf(name, sizeof(name), "D0@%g", rates[i]);
    specs[i].name = name;
    std::printf("rate %-5g -> %llu faults injected:", rates[i],
                static_cast<unsigned long long>(summary.total()));
    for (const auto& [kind, count] : summary.as_map()) {
      std::printf(" %s=%llu", kind.c_str(), static_cast<unsigned long long>(count));
    }
    std::printf("\n");
    AnalyzerConfig config2 = default_config_for_model(model.site());
    DatasetAnalysis a = analyze_dataset(corrupted, config2);
    a.name = name;
    analyses.push_back(std::move(a));
  }

  std::printf("\n");
  std::vector<report::ReportInput> inputs;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    inputs.push_back({&specs[i], &analyses[i]});
  }
  std::fputs(report::render_section(report::section("capture_quality"), inputs).c_str(), stdout);
  return 0;
}
