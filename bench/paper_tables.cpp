// paper_tables: every table and figure of Pang et al. (IMC 2005) next to
// the paper's published values.  Analyzes D0-D4 once, concurrently, at
// ENTRACE_SCALE (default 0.02), then prints each section of
// report::sections() followed by its paper reference (see EXPERIMENTS.md).
//
//   $ ENTRACE_SCALE=0.05 ./build/bench/paper_tables
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "core/report.h"
#include "synth/synth_source.h"
#include "util/cli.h"
#include "util/thread_pool.h"

int main() {
  using namespace entrace;
  const double scale = cli::env_scale();
  const EnterpriseModel model;
  const AnalyzerConfig config = default_config_for_model(model.site());
  const std::vector<std::string> names{"D0", "D1", "D2", "D3", "D4"};
  std::vector<DatasetSpec> specs(names.size());
  std::vector<std::unique_ptr<DatasetAnalysis>> analyses(names.size());
  std::vector<double> elapsed(names.size(), 0.0);
  // One job per dataset (ENTRACE_THREADS-capped).  Each streams its traces
  // through incremental regeneration, so memory stays bounded by one
  // generation slice per analysis thread whatever the scale.
  ThreadPool pool(std::min(names.size(), ThreadPool::env_thread_count()));
  pool.for_each_index(names.size(), [&](std::size_t i) {
    const auto start = std::chrono::steady_clock::now();
    specs[i] = dataset_by_name(names[i], scale);
    const SyntheticTraceSourceSet sources(specs[i], model);
    analyses[i] = std::make_unique<DatasetAnalysis>(analyze_dataset(sources, config));
    elapsed[i] =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  });
  std::vector<report::ReportInput> inputs;
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::fprintf(stderr, "[paper_tables] %s: %llu packets streamed+analyzed in %.2fs (scale %.3f)\n",
                 names[i].c_str(),
                 static_cast<unsigned long long>(analyses[i]->quality.packets_seen), elapsed[i],
                 scale);
    inputs.push_back({&specs[i], analyses[i].get()});
  }

  // One render: each derived analysis is computed once for all sections.
  report::RenderCache cache;
  for (const report::Section& section : report::sections()) {
    const std::string text = report::render_section(section, inputs, cache);
    if (text.empty()) continue;
    std::fputs(text.c_str(), stdout);
    if (*section.paper != '\0') {
      std::printf("\n---- Paper reference (Pang et al., IMC 2005) ----\n%s\n", section.paper);
    }
    std::fputs("\n", stdout);
  }
  return 0;
}
