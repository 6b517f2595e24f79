#include "cluster/result.h"

#include "core/report.h"

namespace entrace::orchestrate {

std::string render_report(const OrchestrateResult& result) {
  std::string out;
  if (!result.complete) {
    out += partial_banner(result.manifest);
    out += result.manifest.render();
    out += "\n";
    if (result.shards_folded == 0) {
      out += "(no traces were analyzed; the report body is omitted)\n";
      return out;
    }
  }
  const report::ReportInput input{&result.spec, &result.analysis};
  const std::vector<report::ReportInput> inputs{input};
  out += report::full_report(inputs);
  return out;
}

}  // namespace entrace::orchestrate
