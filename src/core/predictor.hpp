// The paper's contention predictor (Section 4). Three steps, verbatim:
//   1. measure each flow type's solo cache refs/sec (offline profiling);
//   2. sweep each target type against SYN competitors to get its
//      drop-vs-competing-refs curve;
//   3. predict a target's drop in any mix as curve(sum of the competitors'
//      solo refs/sec).
// The "perfect knowledge" variant (Figure 8b) reads the curve at the
// competitors' *measured* refs/sec in the actual mix, isolating the error
// introduced by assuming competitors run at their solo rates.
//
// Stateless view: all measurements live in the ProfileStore (behind the
// profilers), so predictors are freely copyable-per-thread and a prediction
// after profile() costs only aggregation of memoized scenario results.
#pragma once

#include "core/sweep.hpp"

namespace pp::core {

class ContentionPredictor {
 public:
  ContentionPredictor(SoloProfiler& solo, SweepProfiler& sweep);

  /// Run offline profiling for `t` (solo profile + SYN sweep, normal
  /// NUMA-local placement). Idempotent: already-stored scenarios are not
  /// re-simulated.
  void profile(FlowType t) const;

  [[nodiscard]] double solo_refs_per_sec(FlowType t) const;
  [[nodiscard]] SweepCurve curve(FlowType t) const;

  /// Step 3: predicted drop (percent) for `target` co-running with
  /// `competitors` (their solo refs/sec are summed).
  [[nodiscard]] double predict(FlowType target,
                               const std::vector<FlowType>& competitors) const;

  /// Figure 8(b): prediction given the measured competing refs/sec.
  [[nodiscard]] double predict_known(FlowType target, double measured_competing_refs) const;

 private:
  [[nodiscard]] SweepResult sweep_result(FlowType t) const;

  SoloProfiler& solo_;
  SweepProfiler& sweep_;
};

}  // namespace pp::core
