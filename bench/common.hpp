// Shared scaffolding for the figure/table benchmark binaries.
//
// Every bench prints the paper artifact it reproduces, runs at the scale
// selected by REPRO_SCALE (quick | standard | full), and emits both an
// aligned text table and a CSV block for plotting.
//
// The Engine bundles the scenario-engine stack (Testbed + the stateless
// profiler/predictor/placement views over the process-global ProfileStore),
// replacing the per-binary copy-pasted setup. Everything a bench measures
// goes through the store, so:
//   * independent runs of one figure fan out over SWEEP_THREADS host
//     threads with bit-identical, serial-order aggregation, and
//   * with PROFILE_CACHE=dir set, a repeated bench invocation re-simulates
//     nothing and reproduces its stdout byte-identically (the CI warm-cache
//     job asserts exactly this — which is why store statistics go to
//     stderr, never stdout).
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "base/env.hpp"
#include "base/fault.hpp"
#include "base/table.hpp"
#include "core/placement.hpp"
#include "core/predictor.hpp"
#include "core/profile_store.hpp"
#include "core/profiler.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"
#include "core/testbed.hpp"

namespace pp::bench {

inline void header(const char* artifact, const char* description, Scale scale) {
  std::printf("%s", banner(std::string(artifact) + " — " + description).c_str());
  std::printf("scale=%s (set REPRO_SCALE=quick|standard|full)\n\n", to_string(scale));
  std::fflush(stdout);
}

inline void print_chart(const char* title, const SeriesChart& chart) {
  std::printf("%s\n%s\nCSV:\n%s\n", title, chart.to_text().c_str(), chart.to_csv().c_str());
  std::fflush(stdout);
}

inline void print_table(const char* title, const TextTable& table) {
  std::printf("%s\n%s\nCSV:\n%s\n", title, table.to_text().c_str(), table.to_csv().c_str());
  std::fflush(stdout);
}

/// Store-stats footer. Stderr on purpose: the CI warm-cache job diffs
/// stdout between a cold and a warm run and greps this line for
/// "simulated=0" on the warm one; the fault-injection smoke job greps it
/// for nonzero quarantined/persist_errors counters while asserting stdout
/// stays byte-identical to a fault-free run.
inline void print_store_stats(const char* bench, const core::ProfileStore& store) {
  std::fprintf(stderr, "[%s] profile store: %s\n", bench, store.stats_line().c_str());
  if (FaultInjector::global().enabled()) {
    std::fprintf(stderr, "[%s] faults: %s\n", bench, FaultInjector::global().stats_line().c_str());
  }
}

/// Sweeps are the most expensive piece; at standard scale one seed per point
/// keeps the full suite to minutes (determinism makes the variance tiny —
/// the paper notes its 5-run variance was negligible too).
inline int sweep_seeds(Scale scale) { return api::default_seeds(scale); }

/// The scenario-engine stack every figure bench drives — since the facade
/// landed, a thin adapter over api::Session + api::ViewStack: the session
/// picks the store (process-global when the options match the environment)
/// and the stack holds the stateless views, so Engine-driven benches and
/// spec-driven ppctl runs execute literally the same code and hit the same
/// ProfileStore content keys.
struct Engine {
  api::Session session;
  Scale scale;
  api::ViewStack stack;
  core::Testbed& tb;
  core::SoloProfiler& solo;
  core::SweepProfiler& sweep;
  core::ContentionPredictor& predictor;
  core::PlacementEvaluator& placement;

  /// The views hold references into this Engine (sweep/predictor/placement
  /// -> solo -> tb); a copy would alias the original's members.
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Environment-configured construction at scale `s`. `seeds` = averaging
  /// seeds per data point (0 = the sweep default).
  explicit Engine(int seeds = 0, Scale s = scale_from_env())
      : session(api::SessionOptions::from_env().with_scale(s)),
        scale(s),
        stack(session.options(), seeds, session.store()),
        tb(stack.tb),
        solo(stack.solo),
        sweep(stack.sweep),
        predictor(stack.predictor),
        placement(stack.placement) {}

  [[nodiscard]] core::ProfileStore& store() const { return solo.store(); }
  [[nodiscard]] int threads() const { return sweep.threads(); }

  /// The pairwise grid cell of Figures 2/5/8: `target` on core 0 co-running
  /// with 5 `comp` flows on its socket, everything NUMA-local.
  [[nodiscard]] core::Scenario pairwise_scenario(core::FlowType target, core::FlowType comp,
                                                 std::uint64_t run_seed) const {
    core::RunConfig cfg = tb.configure({core::FlowSpec::of(target)}, run_seed);
    for (int i = 0; i < 5; ++i) {
      cfg.flows.push_back(core::FlowSpec::of(comp, static_cast<std::uint64_t>(i + 2)));
      cfg.placement.push_back(core::FlowPlacement{1 + i, -1});
    }
    return core::Scenario::of(tb, cfg);
  }

  void print_store_stats(const char* name) const { bench::print_store_stats(name, store()); }
};

/// Main of a paper-artifact bench (bench_fig4, bench_table1): the artifact
/// spec through api::Session — the path `ppctl run` and ppd take for
/// examples/specs/<artifact>.json — printed as ppctl prints text.
inline int artifact_main(const char* artifact, api::ExperimentKind kind) {
  api::ExperimentSpec spec;
  spec.kind = kind;
  spec.artifact = artifact;
  api::Session session;
  const api::Result r = session.run(spec);
  std::printf("%s\n", r.to_text().c_str());
  std::fflush(stdout);
  print_store_stats(artifact, session.store());
  return r.ok() ? 0 : 3;
}

/// Aggregate of one pairwise cell pooled over its seed runs.
struct PairwiseOutcome {
  core::FlowMetrics target;            // pooled target metrics
  double competing_refs_per_sec = 0;   // mean of the competitors' measured refs/sec
};

[[nodiscard]] inline PairwiseOutcome pairwise_outcome(
    const std::vector<std::shared_ptr<const core::ScenarioResult>>& runs) {
  std::vector<core::FlowMetrics> pooled;
  pooled.reserve(runs.size());
  double refs_sum = 0;
  for (const auto& r : runs) {
    pooled.push_back((*r)[0]);
    double refs = 0;
    for (std::size_t i = 1; i < r->size(); ++i) refs += (*r)[i].refs_per_sec();
    refs_sum += refs;
  }
  PairwiseOutcome out;
  out.target = core::merge_metrics(pooled);
  out.competing_refs_per_sec = refs_sum / static_cast<double>(runs.size());
  return out;
}

}  // namespace pp::bench
