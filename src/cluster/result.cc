#include "cluster/result.h"

#include <utility>

#include "core/report.h"
#include "synth/model.h"

namespace entrace::orchestrate {

OrchestrateResult fold_result(const snapshot::SnapshotMeta& meta,
                              std::map<std::uint32_t, TraceShard> shards) {
  OrchestrateResult result;
  result.spec = dataset_by_name(meta.dataset, meta.scale);
  std::vector<std::uint32_t> present;
  std::vector<TraceShard> ordered;
  present.reserve(shards.size());
  ordered.reserve(shards.size());
  for (auto& [index, shard] : shards) {
    present.push_back(index);
    ordered.push_back(std::move(shard));
  }
  result.manifest = manifest_for(meta, present);
  result.complete = result.manifest.complete();
  result.shards_folded = ordered.size();
  const EnterpriseModel model;
  result.analysis =
      fold_shards(result.spec.name, std::move(ordered), default_config_for_model(model.site()));
  return result;
}

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
