// Solo profiling (Table 1): run each flow type alone and record the
// characteristics the paper reports — cycles/instruction, L3 refs & hits per
// second, cycles / L3 refs / L3 misses / L2 hits per packet.
//
// Since PR 3 the profiler is a stateless view over the ProfileStore: it
// plans one scenario per averaging seed (the paper averages 5 independent
// runs), lets the store run-or-recall them, and merges the pooled counters.
// There is no hidden per-instance cache, so any number of profilers — on any
// number of host threads — share one memo table and stay coherent.
#pragma once

#include <vector>

#include "core/profile_store.hpp"
#include "core/testbed.hpp"

namespace pp::core {

/// Sum metrics across repeated runs of the same flow (rates and per-packet
/// values then derive from the pooled counters).
[[nodiscard]] FlowMetrics merge_metrics(const std::vector<FlowMetrics>& runs);

/// Relative throughput drop of `measured` against `solo`, in percent.
[[nodiscard]] double drop_pct(const FlowMetrics& solo, const FlowMetrics& measured);

class SoloProfiler {
 public:
  /// `store` defaults to the process-global ProfileStore (which honors
  /// PROFILE_CACHE); tests inject their own for isolation.
  SoloProfiler(Testbed& tb, int seeds, ProfileStore* store = nullptr);

  /// The scenarios behind profile_spec, in seed order. Callers that batch
  /// several profiles fan these into one ProfileStore::get_or_run_many.
  [[nodiscard]] std::vector<Scenario> plan(const FlowSpec& spec) const;

  /// Merge the planned scenarios' results (first flow of each) in seed
  /// order; the counterpart of plan().
  [[nodiscard]] static FlowMetrics merge_plan(
      const std::vector<std::shared_ptr<const ScenarioResult>>& results);

  /// Seed-averaged solo profile of a flow type; memoized by content in the
  /// store, not in this object.
  [[nodiscard]] FlowMetrics profile(FlowType t) const;

  /// Seed-averaged solo profile of an arbitrary spec.
  [[nodiscard]] FlowMetrics profile_spec(const FlowSpec& spec) const;

  [[nodiscard]] int seeds() const { return seeds_; }
  [[nodiscard]] Testbed& testbed() const { return tb_; }
  [[nodiscard]] ProfileStore& store() const { return *store_; }

 private:
  Testbed& tb_;
  int seeds_;
  ProfileStore* store_;
};

}  // namespace pp::core
