// The paper's evaluation as data: one table row per artifact (Figures 2 and
// 4-10, Table 1). A row names the artifact's spec kind, the generic specs
// ("parts") Session plans for it as one store request, and the renderer
// Result::to_text calls to print the figure exactly as its bench binary
// does. ExperimentSpec::parse, Session and the bench mains all read this
// table, so an artifact name and its kind are known in one place.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "api/spec.hpp"

namespace pp::api {

struct Result;

/// One generic spec of an artifact. A `mix_only` part is a corun spec that
/// plans and reports only the mix's own runs (solo_pps and drop_pct stay 0):
/// the pairwise cells of Figures 2/5/8 and Figure 9's mix take their
/// baselines from another part, and never simulate the competitors' solos.
struct ArtifactPart {
  ExperimentSpec spec;
  bool mix_only = false;
};

struct Artifact {
  const char* name;
  ExperimentKind kind;
  /// The parts, in the order their sections land in the Result. `spec` is
  /// the artifact spec (its scale/fidelity/sample_period_max/seeds carry
  /// over to every part); `scale` is its effective scale.
  std::vector<ArtifactPart> (*parts)(const ExperimentSpec& spec, Scale scale);
  /// The figure from the Result's sections: the bench binary's stdout
  /// without its final newline (ppctl and ppd add it back).
  std::string (*render)(const Result& r);
};

/// Every paper artifact, in paper order.
[[nodiscard]] std::span<const Artifact> artifacts();

/// The table row for `name` (nullptr = not an artifact).
[[nodiscard]] const Artifact* find_artifact(std::string_view name);

/// The figure layout every paper binary prints: a banner naming the figure,
/// the scale line, then titled text/CSV blocks.
[[nodiscard]] std::string figure_header(std::string_view figure, std::string_view description,
                                        Scale scale);
[[nodiscard]] std::string titled_block(std::string_view title, const std::string& text,
                                       const std::string& csv);

}  // namespace pp::api
