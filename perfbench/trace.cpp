// Self-time accounting over the obs span aggregates.
//
// obs records one aggregate per slash-joined span path. A path's self
// time is its total minus the totals of its direct children; summing self
// times by leaf name gives each layer's exclusive share. Over every path
// under the root, the self times add up to the root's total exactly, so
// whatever the reported layers leave over is the unattributed remainder.
//
// One fold: GpRegressor::fit does its solve and hyperparameter search
// inside a nested gp.rebuild span, so a gp.rebuild directly under gp.fit
// counts as gp.fit. What stays under gp.rebuild is the full re-solves
// that incremental updates fell back to.
#include <map>

#include "bench.hpp"

namespace perfbench {

double TraceSummary::self_ms(const std::string& name) const {
  for (const LayerTime& layer : layers) {
    if (layer.name == name) return layer.self_ms;
  }
  return 0.0;
}

std::uint64_t TraceSummary::calls(const std::string& name) const {
  for (const LayerTime& layer : layers) {
    if (layer.name == name) return layer.calls;
  }
  return 0;
}

TraceSummary summarize_spans(const std::string& root) {
  const pamo::obs::SpanSnapshot snapshot = pamo::obs::span_snapshot();
  TraceSummary summary;
  summary.events_dropped = snapshot.events_dropped;

  const std::string prefix = root + "/";
  std::map<std::string, double> total_ms;  // path -> total
  for (const pamo::obs::SpanStat& stat : snapshot.stats) {
    if (stat.path == root) {
      summary.root_ms = static_cast<double>(stat.total_ns) * 1e-6;
      summary.root_calls = stat.count;
    } else if (stat.path.compare(0, prefix.size(), prefix) == 0) {
      total_ms[stat.path] = static_cast<double>(stat.total_ns) * 1e-6;
    }
  }

  std::map<std::string, LayerTime> by_name;
  for (const pamo::obs::SpanStat& stat : snapshot.stats) {
    const auto it = total_ms.find(stat.path);
    if (it == total_ms.end()) continue;
    double self = it->second;
    const std::string child_prefix = stat.path + "/";
    for (auto child = total_ms.upper_bound(child_prefix);
         child != total_ms.end() &&
         child->first.compare(0, child_prefix.size(), child_prefix) == 0;
         ++child) {
      if (child->first.find('/', child_prefix.size()) == std::string::npos) {
        self -= child->second;
      }
    }
    const std::size_t cut = stat.path.rfind('/');
    std::string name = stat.path.substr(cut + 1);
    const std::string parent = stat.path.substr(0, cut);
    const bool folded = name == "gp.rebuild" && parent.size() >= 7 &&
                        parent.compare(parent.size() - 7, 7, "/gp.fit") == 0;
    if (folded) name = "gp.fit";
    LayerTime& layer = by_name[name];
    layer.name = name;
    layer.self_ms += self;
    if (!folded) layer.calls += stat.count;
  }
  for (auto& [name, layer] : by_name) summary.layers.push_back(layer);
  return summary;
}

}  // namespace perfbench
