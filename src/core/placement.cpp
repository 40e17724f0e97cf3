#include "core/placement.hpp"

#include <algorithm>
#include <set>

#include "base/check.hpp"

namespace pp::core {

PlacementEvaluator::PlacementEvaluator(SoloProfiler& solo, int threads)
    : solo_(solo), threads_(threads < 1 ? 1 : threads) {}

Scenario PlacementEvaluator::placement_scenario(const std::vector<FlowSpec>& flows,
                                                const std::vector<int>& socket_of_flow,
                                                int seed_index) const {
  Testbed& tb = solo_.testbed();
  const int per_socket = tb.machine_config().cores_per_socket;
  RunConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(seed_index + 1) * 15485863;
  cfg.warmup_ms = tb.default_warmup_ms();
  cfg.measure_ms = tb.default_measure_ms();
  cfg.budget_ms = tb.run_budget_ms();
  cfg.deadline = tb.run_deadline();
  cfg.flows = flows;
  int next_core[2] = {0, per_socket};
  for (std::size_t i = 0; i < flows.size(); ++i) {
    cfg.placement.push_back(FlowPlacement{next_core[socket_of_flow[i]]++, -1});
  }
  return Scenario::of(tb, cfg);
}

PlacementStudy PlacementEvaluator::evaluate(const std::vector<FlowSpec>& flows) const {
  const PlacementPlan p = plan(flows);
  return assemble(flows, p, solo_.store().get_or_run_many(p.scenarios, threads_));
}

PlacementPlan PlacementEvaluator::plan(const std::vector<FlowSpec>& flows) const {
  Testbed& tb = solo_.testbed();
  const int cores = tb.machine_config().num_cores();
  const int per_socket = tb.machine_config().cores_per_socket;
  PP_CHECK(static_cast<int>(flows.size()) == cores);
  const int seeds = solo_.seeds();
  PlacementPlan out;

  // Enumerate subsets of size per_socket for socket 0; canonicalize by the
  // (sorted) type multiset pair so symmetric placements run once.
  std::set<std::vector<int>> seen;
  std::vector<int> pick(flows.size(), 0);
  std::fill(pick.begin(), pick.begin() + per_socket, 1);
  std::sort(pick.begin(), pick.end());

  do {
    std::vector<int> key0;
    std::vector<int> key1;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      (pick[i] != 0 ? key0 : key1).push_back(static_cast<int>(flows[i].type));
    }
    std::sort(key0.begin(), key0.end());
    std::sort(key1.begin(), key1.end());
    std::vector<int> key = std::min(key0, key1);
    key.insert(key.end(), std::max(key0, key1).begin(), std::max(key0, key1).end());
    if (!seen.insert(key).second) continue;

    std::vector<int> socket_of_flow(flows.size());
    for (std::size_t i = 0; i < flows.size(); ++i) socket_of_flow[i] = pick[i] != 0 ? 0 : 1;
    out.placements.push_back(std::move(socket_of_flow));
  } while (std::next_permutation(pick.begin(), pick.end()));

  // One flat job list: per-type solo baselines first, then every
  // (placement, seed) run. The store fans it out and single-flights any
  // duplicates; assemble() walks it strictly in enumeration order.
  for (const FlowSpec& f : flows) {
    if (std::find(out.solo_types.begin(), out.solo_types.end(), f.type) ==
        out.solo_types.end()) {
      out.solo_types.push_back(f.type);
    }
  }
  out.scenarios.reserve(out.solo_types.size() * static_cast<std::size_t>(seeds) +
                        out.placements.size() * static_cast<std::size_t>(seeds));
  for (const FlowType t : out.solo_types) {
    for (const Scenario& s : solo_.plan(FlowSpec::of(t))) out.scenarios.push_back(s);
  }
  for (const std::vector<int>& p : out.placements) {
    for (int s = 0; s < seeds; ++s) out.scenarios.push_back(placement_scenario(flows, p, s));
  }
  return out;
}

PlacementStudy PlacementEvaluator::assemble(
    const std::vector<FlowSpec>& flows, const PlacementPlan& plan,
    const std::vector<std::shared_ptr<const ScenarioResult>>& runs) const {
  const auto seeds = static_cast<std::size_t>(solo_.seeds());
  PP_CHECK(runs.size() == (plan.solo_types.size() + plan.placements.size()) * seeds);
  std::vector<FlowMetrics> solo_of_type;
  for (std::size_t t = 0; t < plan.solo_types.size(); ++t) {
    solo_of_type.push_back(SoloProfiler::merge_plan(
        {runs.begin() + static_cast<std::ptrdiff_t>(t * seeds),
         runs.begin() + static_cast<std::ptrdiff_t>((t + 1) * seeds)}));
  }
  const auto solo_of = [&](FlowType t) -> const FlowMetrics& {
    const auto it = std::find(plan.solo_types.begin(), plan.solo_types.end(), t);
    return solo_of_type[static_cast<std::size_t>(it - plan.solo_types.begin())];
  };

  const std::size_t grid_base = plan.solo_types.size() * seeds;
  PlacementStudy study;
  for (std::size_t p = 0; p < plan.placements.size(); ++p) {
    std::vector<FlowMetrics> pooled;
    for (std::size_t s = 0; s < seeds; ++s) {
      const ScenarioResult& run = *runs[grid_base + p * seeds + s];
      if (pooled.empty()) {
        pooled = run;
      } else {
        for (std::size_t i = 0; i < run.size(); ++i) {
          pooled[i].seconds += run[i].seconds;
          pooled[i].delta += run[i].delta;
        }
      }
    }

    PlacementOutcome outcome;
    outcome.socket_of_flow = plan.placements[p];
    double sum = 0;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const double d = drop_pct(solo_of(flows[i].type), pooled[i]);
      outcome.per_flow_drop.push_back(d);
      sum += d;
    }
    outcome.avg_drop_pct = sum / static_cast<double>(flows.size());

    ++study.placements_evaluated;
    if (study.placements_evaluated == 1 || outcome.avg_drop_pct < study.best.avg_drop_pct) {
      study.best = outcome;
    }
    if (study.placements_evaluated == 1 || outcome.avg_drop_pct > study.worst.avg_drop_pct) {
      study.worst = outcome;
    }
  }
  return study;
}

}  // namespace pp::core
