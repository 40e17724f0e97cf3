// Spec lowering as Session performs it, for callers that time the layers
// one by one.
#pragma once

#include <vector>

#include "api/session.hpp"

namespace perfbench {

/// Apply the spec's overrides, build the view stack, plan its scenarios
/// (solo and corun specs).
[[nodiscard]] inline std::vector<pp::core::Scenario> lower(const pp::api::ExperimentSpec& spec,
                                                           const pp::api::SessionOptions& base,
                                                           pp::core::ProfileStore& store) {
  const pp::api::SessionOptions o = pp::api::apply_spec(spec, base);
  const pp::api::ViewStack views(o, spec.seeds, store);
  return pp::api::lower_spec(spec, views.tb);
}

}  // namespace perfbench
