// The declarative scenario layer: everything that determines one simulated
// experiment — machine description (including fidelity and sampling knobs),
// workload sizes, the flow mix, its placement, the measurement windows and
// the run seed — captured as a plain value type.
//
// Scenarios are the unit of caching and host-parallel execution: two
// scenarios with the same content hash to the same stable key (see
// scenario_key), and running a scenario is a pure function of its fields
// (each run builds a fresh, self-contained, deterministic Machine). The
// ProfileStore builds on both properties; the profiling views
// (SoloProfiler, SweepProfiler, PlacementEvaluator) plan scenarios and
// aggregate their results, and api::Session runs the plans.
#pragma once

#include <string>
#include <vector>

#include "core/testbed.hpp"

namespace pp::core {

/// One fully specified experiment. Value semantics throughout: copying a
/// scenario copies the experiment, and equality of content implies equality
/// of results (and of keys).
struct Scenario {
  sim::MachineConfig machine;
  WorkloadSizes sizes;
  std::vector<FlowSpec> flows;
  std::vector<FlowPlacement> placement;  // parallel to flows
  double warmup_ms = 2.0;
  double measure_ms = 8.0;
  std::uint64_t seed = 1;

  /// Per-run execution budget in simulated milliseconds (0 = unlimited;
  /// PP_RUN_BUDGET / ExperimentSpec::budget_ms upstream). An execution
  /// *guard*, not content: it never changes what a run computes — a scenario
  /// whose windows exceed the budget refuses to run (StatusError with
  /// kBudgetExceeded) instead of wedging a worker — so it is deliberately
  /// NOT part of the content key, and cached results are served regardless
  /// of the caller's budget (a memo hit costs nothing to serve).
  double budget_ms = 0;

  /// Wall-clock deadline (default-constructed = none). Like budget_ms an
  /// execution *guard*, not content: checked when a scenario is about to
  /// run, so a deadlined ppd request fails between scenarios with a
  /// structured kBudgetExceeded instead of hanging its client — and, also
  /// like budget_ms, deliberately NOT part of the content key (memo hits
  /// serve regardless, and a generous deadline is bit-identical to none).
  std::chrono::steady_clock::time_point deadline{};

  /// Capture a Testbed run as a scenario (the testbed contributes machine
  /// config and workload sizes; the RunConfig contributes the rest).
  [[nodiscard]] static Scenario of(const Testbed& tb, const RunConfig& cfg);
};

/// 128-bit content key. Derivation (docs/scenario_engine.md): every scenario
/// field is appended to a canonical little-endian byte stream — doubles by
/// bit pattern, enums by underlying value, vectors length-prefixed — that is
/// folded twice with independently seeded FNV-1a/mix64 passes. The stream
/// starts with kScenarioSchemaVersion, so a schema bump changes every key.
struct ScenarioKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  [[nodiscard]] bool operator==(const ScenarioKey&) const = default;
  /// 32 lowercase hex digits; used as the on-disk cache filename.
  [[nodiscard]] std::string hex() const;
};

/// Version of the scenario-key schema AND the persisted result format. Bump
/// whenever the simulator's observable behavior, the key derivation, or the
/// JSON layout changes; stale cache files are then ignored and rewritten.
/// v2: SimFidelity::kStreamed + adaptive sampling period
/// (MachineConfig::sample_period_max) + FlowSpec::batch entered the key.
/// v3: a payload checksum entered the persisted JSON envelope (required on
/// load; mismatches quarantine the file — see docs/robustness.md). The key
/// derivation itself is unchanged, but keys embed the version, so the bump
/// invalidates all v2 cache files.
inline constexpr int kScenarioSchemaVersion = 3;

[[nodiscard]] ScenarioKey scenario_key(const Scenario& s);

/// Per-flow metrics in flow order — exactly what Testbed::run returns.
using ScenarioResult = std::vector<FlowMetrics>;

/// Run a scenario on a fresh machine. Pure: no global state is read or
/// written, so concurrent calls from host threads are safe and results are
/// bit-identical for equal scenarios. `window_ms`/`hook` mirror
/// Testbed::run_with_windows (hooked runs are not cacheable — the hook can
/// mutate the machine — and bypass the ProfileStore).
[[nodiscard]] ScenarioResult run_scenario(const Scenario& s);
[[nodiscard]] ScenarioResult run_scenario_with_windows(const Scenario& s, double window_ms,
                                                       const WindowHook& hook);

/// One-line human summary ("2xMON+1xSYN seed=7 exact"), embedded in cache
/// files so they are greppable.
[[nodiscard]] std::string describe(const Scenario& s);

}  // namespace pp::core
