// Shared scenario/machine-config fixture factory for the test tree.
//
// Nearly every core/sim integration test wants the same setup: a quick-scale
// testbed with an explicitly pinned fidelity (never inherited from the
// SIM_FIDELITY environment, so a developer running `SIM_FIDELITY=sampled
// ctest` cannot silently change what a test asserts), short measurement
// windows, the profiling views over an isolated ProfileStore with the
// plan -> run_batch -> assemble steps api::Session takes, and bitwise
// counter comparisons. Centralizing them keeps the fidelity-tier matrix in
// one place: a test names the tier it runs, not the five knobs behind it.
#pragma once

#include <gtest/gtest.h>

#include "api/session.hpp"
#include "core/profile_store.hpp"
#include "core/profiler.hpp"
#include "core/sweep.hpp"
#include "core/testbed.hpp"
#include "sim/types.hpp"

namespace pp::test {

/// A quick-scale machine config pinned to one fidelity tier. `period_max` 0
/// keeps the config's default (== sample_period: adaptive widening off);
/// kStreamed callers usually pass 16, the streamed tier's default ceiling.
inline sim::MachineConfig machine_config(sim::SimFidelity f,
                                         std::uint32_t sample_period = 8,
                                         std::uint32_t period_max = 0,
                                         std::uint64_t sample_seed = 0x5eedU) {
  sim::MachineConfig cfg;
  cfg.fidelity = f;
  cfg.sample_period = sample_period;
  cfg.sample_period_max = period_max != 0 ? period_max : sample_period;
  cfg.sample_seed = sample_seed;
  return cfg;
}

/// Sampled-fidelity config for memory-system level tests (wide period 16 by
/// default so residue arithmetic is exercised beyond the shipping default).
inline sim::MachineConfig sampled_machine(std::uint64_t sample_seed = 0,
                                          std::uint32_t sample_period = 16) {
  return machine_config(sim::SimFidelity::kSampled, sample_period, 0, sample_seed);
}

/// The environment's options at quick scale with the fidelity pinned to `f`
/// and the tier's default sampling ceiling, so SIM_FIDELITY and
/// SIM_SAMPLE_PERIOD_MAX never reach a test.
inline api::SessionOptions quick_options(sim::SimFidelity f = sim::SimFidelity::kExact) {
  api::SessionOptions opts =
      api::SessionOptions::from_env().with_scale(Scale::kQuick).with_fidelity(f);
  opts.sample_period_max.reset();
  return opts;
}

/// Quick-scale testbed pinned to `f` (default exact), ignoring SIM_FIDELITY.
inline core::Testbed quick_testbed(sim::SimFidelity f = sim::SimFidelity::kExact) {
  return api::make_testbed(quick_options(f));
}

/// Short-window run config: integration tests that only need coherence (not
/// statistical stability) keep their simulated windows tiny.
inline core::RunConfig fast_run(std::vector<core::FlowSpec> flows, std::uint64_t seed = 1,
                                double warmup_ms = 0.3, double measure_ms = 0.7) {
  core::RunConfig cfg = core::RunConfig::simple(std::move(flows), seed);
  cfg.warmup_ms = warmup_ms;
  cfg.measure_ms = measure_ms;
  return cfg;
}

/// The profiling views over an isolated in-memory store (no cross-test
/// sharing, no PROFILE_CACHE), run the way api::Session runs a spec: plan,
/// one ProfileStore::run_batch, assemble.
struct ProfilerRig {
  using Runs = std::vector<std::shared_ptr<const core::ScenarioResult>>;

  core::Testbed tb;
  core::ProfileStore store;
  core::SoloProfiler solo;
  core::SweepProfiler sweep;

  explicit ProfilerRig(sim::SimFidelity f = sim::SimFidelity::kExact, int seeds = 1,
                       int competitors = 5)
      : tb(quick_testbed(f)), solo(tb, seeds, store), sweep(solo, competitors) {}

  /// `plan` in one store request over `threads` workers (default: the
  /// SWEEP_THREADS snapshot, as a Session uses); the lowest-index error is
  /// rethrown.
  Runs run(const std::vector<core::Scenario>& plan,
           int threads = api::SessionOptions::from_env().threads) {
    return core::ProfileStore::results_or_throw(store.run_batch(plan, threads));
  }

  /// Seed-merged solo profile of `t`.
  core::FlowMetrics solo_profile(core::FlowType t) {
    return core::SoloProfiler::merge_plan(run(solo.plan(core::FlowSpec::of(t))));
  }

  /// One target's sweep over `levels`.
  core::SweepResult sweep_of(core::FlowType t, core::ContentionMode mode,
                             const std::vector<core::SynParams>& levels,
                             int threads = api::SessionOptions::from_env().threads) {
    const std::vector<core::FlowSpec> target = {core::FlowSpec::of(t)};
    return sweep.assemble_many(target, mode, levels,
                               run(sweep.plan_many(target, mode, levels), threads))[0];
  }

  /// Prediction step 3 as the predict spec applies it: `target`'s
  /// normal-placement curve read at the sum of the competitors' solo
  /// refs/sec.
  double predict(core::FlowType target, const std::vector<core::FlowType>& competitors) {
    double refs = 0;
    for (const core::FlowType c : competitors) refs += solo_profile(c).refs_per_sec();
    return sweep_of(target, core::ContentionMode::kBoth,
                    core::SweepProfiler::default_levels(tb.scale()))
        .curve.drop_at(refs);
  }
};

/// Bitwise equality of two counter sets (the repeatability lock: equal
/// scenarios must produce equal bits, across processes and thread counts).
inline void expect_counters_equal(const sim::Counters& a, const sim::Counters& b,
                                  const char* what) {
  EXPECT_EQ(a.instructions, b.instructions) << what;
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.l1_hits, b.l1_hits) << what;
  EXPECT_EQ(a.l1_misses, b.l1_misses) << what;
  EXPECT_EQ(a.l2_hits, b.l2_hits) << what;
  EXPECT_EQ(a.l2_misses, b.l2_misses) << what;
  EXPECT_EQ(a.l3_refs, b.l3_refs) << what;
  EXPECT_EQ(a.l3_misses, b.l3_misses) << what;
  EXPECT_EQ(a.xcore_hits, b.xcore_hits) << what;
  EXPECT_EQ(a.remote_refs, b.remote_refs) << what;
  EXPECT_EQ(a.writebacks, b.writebacks) << what;
  EXPECT_EQ(a.mc_queue_cycles, b.mc_queue_cycles) << what;
  EXPECT_EQ(a.qpi_queue_cycles, b.qpi_queue_cycles) << what;
  EXPECT_EQ(a.packets, b.packets) << what;
  EXPECT_EQ(a.drops, b.drops) << what;
}

inline void expect_metrics_equal(const core::FlowMetrics& a, const core::FlowMetrics& b,
                                 const char* what) {
  EXPECT_EQ(a.seconds, b.seconds) << what;
  expect_counters_equal(a.delta, b.delta, what);
}

/// Signed relative drift of `value` against `reference`, in percent.
inline double drift_pct(double value, double reference) {
  return 100.0 * (value - reference) / reference;
}

}  // namespace pp::test
