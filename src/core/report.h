// Rendering of every table and figure of the paper from DatasetAnalysis
// results.  sections() lists them once, in paper order, each with a stable
// name and Pang et al.'s published values: full_report renders that list,
// bench/paper_tables prints each section next to its paper values (see
// EXPERIMENTS.md), and one section renders as
// render_section(section("table2"), in).
//
// Several sections draw on the same derived analysis of an input (Table 6,
// the HTTP findings, Figures 3-4 and Table 7 all read its HttpAnalysis).
// One render computes each of those once per input, in a RenderCache that
// lives for that call and hands the sections const references.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/analyzer.h"
#include "synth/dataset_spec.h"

namespace entrace {
struct EmailAnalysis;
struct HttpAnalysis;
struct NetFileAnalysis;
struct WindowsAnalysis;
}  // namespace entrace

namespace entrace::report {

struct ReportInput {
  const DatasetSpec* spec = nullptr;  // may be null for external traces
  const DatasetAnalysis* analysis = nullptr;
};

using Inputs = std::span<const ReportInput>;

// The derived analyses of one render: per DatasetAnalysis, its
// LoadAnalysis, HttpAnalysis, EmailAnalysis, WindowsAnalysis and
// NetFileAnalysis, each computed on first use.  One cache serves one
// render call and is not shared between threads; nothing is stored on the
// DatasetAnalysis, so concurrent renders of one analysis share nothing
// mutable.
class RenderCache {
 public:
  // Defined where Entry is complete.
  RenderCache();
  ~RenderCache();

  const LoadAnalysis& load(const DatasetAnalysis& a);
  const HttpAnalysis& http(const DatasetAnalysis& a);
  const EmailAnalysis& email(const DatasetAnalysis& a);
  const WindowsAnalysis& windows(const DatasetAnalysis& a);
  const NetFileAnalysis& netfile(const DatasetAnalysis& a);

 private:
  struct Entry;
  Entry& entry(const DatasetAnalysis& a);

  std::vector<std::pair<const DatasetAnalysis*, std::unique_ptr<Entry>>> entries_;
};

// One section of the report.
struct Section {
  // Stable lookup key: "table2", "capture_quality", "figure9", ...
  const char* name;
  std::string (*render)(Inputs in, RenderCache& cache);
  // Rendered over the payload datasets only: snaplen >= 200 (D0, D3, D4),
  // or no spec (an external trace).
  bool payload_only;
  // Pang et al.'s published values; empty for capture quality and telemetry.
  const char* paper;
};

// Every section, in paper order.  Figures 2 and 9 render once per input;
// telemetry renders empty when no input collected metrics.
std::span<const Section> sections();

// The entry of sections() called `name`; throws std::invalid_argument on
// an unknown name.
const Section& section(std::string_view name);

// `section` over `in`, or over its payload inputs when payload_only.  The
// first form renders with a cache of its own; a caller rendering several
// sections over the same inputs passes one cache to all of them.
std::string render_section(const Section& section, Inputs in);
std::string render_section(const Section& section, Inputs in, RenderCache& cache);

// Every non-empty section, in order, joined by blank lines, with one
// RenderCache for the call.
std::string full_report(Inputs in);

}  // namespace entrace::report
