#include "core/predictor.hpp"

#include "base/env.hpp"

namespace pp::core {

ContentionPredictor::ContentionPredictor(SoloProfiler& solo, SweepProfiler& sweep)
    : solo_(solo), sweep_(sweep) {}

SweepResult ContentionPredictor::sweep_result(FlowType t) const {
  return sweep_.sweep(FlowSpec::of(t), ContentionMode::kBoth,
                      SweepProfiler::default_levels(solo_.testbed().scale()));
}

void ContentionPredictor::profile(FlowType t) const { (void)sweep_result(t); }

double ContentionPredictor::solo_refs_per_sec(FlowType t) const {
  return solo_.profile(t).refs_per_sec();
}

SweepCurve ContentionPredictor::curve(FlowType t) const { return sweep_result(t).curve; }

double ContentionPredictor::predict(FlowType target,
                                    const std::vector<FlowType>& competitors) const {
  double refs = 0;
  for (const FlowType c : competitors) refs += solo_refs_per_sec(c);
  return predict_known(target, refs);
}

double ContentionPredictor::predict_known(FlowType target,
                                          double measured_competing_refs) const {
  return curve(target).drop_at(measured_competing_refs);
}

}  // namespace pp::core
