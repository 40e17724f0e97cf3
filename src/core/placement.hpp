// Contention-aware scheduling evaluation (Section 5, Figure 10): for a
// 12-flow combination, enumerate the distinct ways of splitting the flows
// across the two sockets, measure the average contention-induced drop under
// each, and report the best and worst placements. The gap between them is
// the maximum benefit contention-aware scheduling could deliver.
//
// Stateless plan/assemble view: the whole placement enumeration — every
// (placement, seed) run plus the per-type solo baselines — is one plan the
// caller runs in a single ProfileStore::run_batch; aggregation walks the
// slots in enumeration order, so the study is bit-identical at any thread
// count.
#pragma once

#include <vector>

#include "core/profiler.hpp"

namespace pp::core {

struct PlacementOutcome {
  std::vector<int> socket_of_flow;    // 0 or 1 per flow
  double avg_drop_pct = 0;            // mean per-flow drop vs solo
  std::vector<double> per_flow_drop;  // parallel to flows
};

struct PlacementStudy {
  PlacementOutcome best;
  PlacementOutcome worst;
  int placements_evaluated = 0;
};

/// The scenario plan behind one study, known before any result exists.
struct PlacementPlan {
  std::vector<FlowType> solo_types;           // distinct types, first-appearance order
  std::vector<std::vector<int>> placements;   // socket_of_flow per evaluated placement
  std::vector<Scenario> scenarios;  // per-type solo plans, then (placement, seed) runs
};

class PlacementEvaluator {
 public:
  explicit PlacementEvaluator(SoloProfiler& solo);

  /// Enumerate the distinct placements and lay out their scenarios. `flows`
  /// must have exactly cores-many entries (12). Placements that are
  /// equivalent up to permuting flows of the same type within a socket (and
  /// swapping the sockets) are evaluated once.
  [[nodiscard]] PlacementPlan plan(const std::vector<FlowSpec>& flows) const;

  /// Aggregate `runs` (parallel to plan.scenarios, which callers may have
  /// moved out into a bigger store request) in enumeration order.
  [[nodiscard]] PlacementStudy assemble(
      const std::vector<FlowSpec>& flows, const PlacementPlan& plan,
      const std::vector<std::shared_ptr<const ScenarioResult>>& runs) const;

 private:
  [[nodiscard]] Scenario placement_scenario(const std::vector<FlowSpec>& flows,
                                            const std::vector<int>& socket_of_flow,
                                            int seed_index) const;

  SoloProfiler& solo_;
};

}  // namespace pp::core
