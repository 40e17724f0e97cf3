#include "core/profiler.hpp"

#include "base/check.hpp"
#include "core/parallel.hpp"

namespace pp::core {

FlowMetrics merge_metrics(const std::vector<FlowMetrics>& runs) {
  PP_CHECK(!runs.empty());
  FlowMetrics out = runs[0];
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const FlowMetrics& r = runs[i];
    out.seconds += r.seconds;
    out.delta += r.delta;
    PP_CHECK(r.elements.size() == out.elements.size());
    for (std::size_t e = 0; e < out.elements.size(); ++e) {
      out.elements[e].delta += r.elements[e].delta;
    }
  }
  return out;
}

double drop_pct(const FlowMetrics& solo, const FlowMetrics& measured) {
  const double s = solo.pps();
  const double c = measured.pps();
  return s <= 0 ? 0.0 : (s - c) / s * 100.0;
}

SoloProfiler::SoloProfiler(Testbed& tb, int seeds, ProfileStore* store)
    : tb_(tb), seeds_(seeds), store_(store != nullptr ? store : &ProfileStore::global()) {
  PP_CHECK(seeds >= 1);
}

std::vector<Scenario> SoloProfiler::plan(const FlowSpec& spec) const {
  std::vector<Scenario> out;
  out.reserve(static_cast<std::size_t>(seeds_));
  for (int s = 0; s < seeds_; ++s) {
    const RunConfig cfg = tb_.configure({spec}, static_cast<std::uint64_t>(s + 1) * 7919);
    out.push_back(Scenario::of(tb_, cfg));
  }
  return out;
}

FlowMetrics SoloProfiler::merge_plan(
    const std::vector<std::shared_ptr<const ScenarioResult>>& results) {
  std::vector<FlowMetrics> runs;
  runs.reserve(results.size());
  for (const auto& r : results) runs.push_back((*r)[0]);
  return merge_metrics(runs);
}

FlowMetrics SoloProfiler::profile_spec(const FlowSpec& spec) const {
  return merge_plan(store_->get_or_run_many(plan(spec), host_threads_from_env()));
}

FlowMetrics SoloProfiler::profile(FlowType t) const { return profile_spec(FlowSpec::of(t)); }

}  // namespace pp::core
