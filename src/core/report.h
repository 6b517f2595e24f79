// Rendering of every table and figure of the paper from DatasetAnalysis
// results.  Each function returns printable text.  sections() lists them
// once, in paper order, with Pang et al.'s published values: full_report
// renders that list, and bench/paper_tables prints each section next to
// its paper values (see EXPERIMENTS.md).
//
// Several sections draw on the same derived analysis of an input (Table 6,
// the HTTP findings, Figures 3-4 and Table 7 all read its HttpAnalysis).
// One render computes each of those once per input, in a RenderCache that
// lives for that call and hands the sections const references.
#pragma once

#include <memory>
#include <span>
#include <string>
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

std::string table1_datasets(Inputs in);
// Measurement-artifact accounting per dataset: packets seen / decoded /
// dropped, plus the non-zero anomaly kinds (truncation, checksum failures,
// parse errors).  Not a paper table — real captures need it (§2 discusses
// the LBNL traces' own artifacts) and the fault-injection tests assert it.
std::string capture_quality(Inputs in);
std::string table2_network_layer(Inputs in);
// Includes the scanner-removal row and the §3 ablation: the connection
// mix with scanner traffic kept.
std::string table3_transport(Inputs in);
std::string figure1_app_breakdown(Inputs in);   // bytes + connections, ent/wan
std::string origins_summary(Inputs in);         // §4 flow origin classes
std::string figure2_fan(const ReportInput& in);
std::string table6_http_automation(Inputs in);
std::string http_findings(Inputs in);           // success rates, conditional GETs
std::string figure3_http_fanout(Inputs in);
std::string table7_http_content_types(Inputs in);
std::string figure4_http_reply_sizes(Inputs in);
std::string table8_email_sizes(Inputs in);
std::string figure5_email_durations(Inputs in);
std::string figure6_email_sizes(Inputs in);
std::string name_service_findings(Inputs in);   // §5.1.3
// Includes the §5 ablation: CIFS success counted per raw connection
// instead of per host pair.
std::string table9_windows_success(Inputs in);
std::string table10_cifs_commands(Inputs in);
std::string table11_dcerpc_functions(Inputs in);
std::string table12_netfile_sizes(Inputs in);
std::string table13_nfs_requests(Inputs in);
std::string table14_ncp_requests(Inputs in);
std::string figure7_requests_per_pair(Inputs in);
std::string figure8_netfile_message_sizes(Inputs in);
std::string table15_backup(Inputs in);
std::string figure9_utilization(const ReportInput& in);
// Includes the §6 ablation: the internal median if 1-byte keepalive
// retransmissions were counted.
std::string figure10_retransmissions(Inputs in);
// Runtime telemetry: the pipeline's own semantic metrics per dataset
// (source/decode/flow/app/scanner counters).  Semantic-class only, so the
// table — like every other report section — is byte-identical across
// thread counts and shard partitions; timing metrics are exposed solely
// via --metrics-out (obs::render_json / render_prometheus).
std::string telemetry(Inputs in);

// One section of the report.
struct Section {
  std::string (*render)(Inputs in, RenderCache& cache);
  // Rendered over the payload datasets only: snaplen >= 200 (D0, D3, D4),
  // or no spec (an external trace).
  bool payload_only;
  // Pang et al.'s published values; empty for capture quality and telemetry.
  const char* paper;
};

// Every section above, in paper order.  Figures 2 and 9 render once per
// input; telemetry renders empty when no input collected metrics.
std::span<const Section> sections();

// `section` over `in`, or over its payload inputs when payload_only.  The
// first form renders with a cache of its own; a caller rendering several
// sections over the same inputs passes one cache to all of them.
std::string render_section(const Section& section, Inputs in);
std::string render_section(const Section& section, Inputs in, RenderCache& cache);

// Every non-empty section, in order, joined by blank lines, with one
// RenderCache for the call.
std::string full_report(Inputs in);

}  // namespace entrace::report
