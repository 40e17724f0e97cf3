// Solo profiling (Table 1): run each flow type alone and record the
// characteristics the paper reports — cycles/instruction, L3 refs & hits per
// second, cycles / L3 refs / L3 misses / L2 hits per packet.
//
// The profiler is a stateless plan/assemble view: it plans one scenario per
// averaging seed (the paper averages 5 independent runs) and merges the
// pooled counters of their results. It runs nothing itself — api::Session
// hands the plan to ProfileStore::run_batch — so any number of profilers,
// on any number of host threads, share one memo table and stay coherent.
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
  /// `store` is the memo table the views' plans run against.
  SoloProfiler(Testbed& tb, int seeds, ProfileStore& store);

  /// The scenarios behind a solo profile, in seed order. Callers that batch
  /// several profiles fan these into one ProfileStore::run_batch.
  [[nodiscard]] std::vector<Scenario> plan(const FlowSpec& spec) const;

  /// Merge the planned scenarios' results (first flow of each) in seed
  /// order; the counterpart of plan().
  [[nodiscard]] static FlowMetrics merge_plan(
      const std::vector<std::shared_ptr<const ScenarioResult>>& results);

  [[nodiscard]] int seeds() const { return seeds_; }
  [[nodiscard]] Testbed& testbed() const { return tb_; }
  [[nodiscard]] ProfileStore& store() const { return store_; }

 private:
  Testbed& tb_;
  int seeds_;
  ProfileStore& store_;
};

}  // namespace pp::core
