// api::Session batch execution: canonical-form dedup in run_many, bitwise
// serial-vs-parallel identity over a 12-spec batch, and NaN-free structured
// results for degenerate specs.
#include "api/session.hpp"

#include <gtest/gtest.h>

#include <chrono>

#include "core/profile_store.hpp"

namespace pp::api {
namespace {

using core::FlowSpec;
using core::FlowType;

/// Session options pinned for test isolation: quick scale, exact fidelity,
/// no cache directories (so the ctor still needs an injected store to avoid
/// the process-global one when the environment sets PROFILE_CACHE).
SessionOptions test_options(int threads = 1) {
  return SessionOptions{}.with_scale(Scale::kQuick).with_threads(threads);
}

/// A cheap corun spec (sub-millisecond windows).
ExperimentSpec tiny_corun(FlowType a, FlowType b, std::uint64_t seed = 1) {
  ExperimentSpec spec;
  spec.kind = ExperimentKind::kCorun;
  spec.flows = {FlowSpec::of(a), FlowSpec::of(b, 2)};
  spec.seed = seed;
  spec.warmup_ms = 0.2;
  spec.measure_ms = 0.4;
  return spec;
}

TEST(Session, RunManyDedupsIdenticalSpecs) {
  core::ProfileStore store;
  Session session(test_options(2), &store);

  // 12 specs, 4 distinct (each repeated 3x).
  std::vector<ExperimentSpec> batch;
  for (int rep = 0; rep < 3; ++rep) {
    batch.push_back(tiny_corun(FlowType::kIp, FlowType::kMon, 1));
    batch.push_back(tiny_corun(FlowType::kIp, FlowType::kMon, 2));
    batch.push_back(tiny_corun(FlowType::kMon, FlowType::kVpn, 1));
    batch.push_back(tiny_corun(FlowType::kVpn, FlowType::kIp, 1));
  }
  const std::vector<Result> results = session.run_many(batch);
  ASSERT_EQ(results.size(), 12U);

  const Session::Stats st = session.stats();
  EXPECT_EQ(st.specs_run, 4U) << "identical specs must execute once";
  EXPECT_EQ(st.specs_deduped, 8U);

  // Duplicates share their original's result verbatim.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(results[i].to_json(), results[i + 4].to_json());
    EXPECT_EQ(results[i].to_json(), results[i + 8].to_json());
  }
  // Distinct specs differ (different seeds change the traffic).
  EXPECT_NE(results[0].to_json(), results[1].to_json());
}

TEST(Session, RunManyBitIdenticalSerialVsParallel) {
  // The acceptance lock: a 12-spec batch produces byte-identical serialized
  // results whether the session runs single-threaded or with 4 host
  // threads (fresh stores on both sides so nothing is pre-memoized).
  std::vector<ExperimentSpec> batch;
  for (int rep = 0; rep < 3; ++rep) {
    batch.push_back(tiny_corun(FlowType::kIp, FlowType::kMon, 1));
    batch.push_back(tiny_corun(FlowType::kIp, FlowType::kMon, 2));
    batch.push_back(tiny_corun(FlowType::kMon, FlowType::kVpn, 1));
    batch.push_back(tiny_corun(FlowType::kVpn, FlowType::kIp, 1));
  }

  core::ProfileStore serial_store;
  Session serial(test_options(1), &serial_store);
  const std::vector<Result> serial_results = serial.run_many(batch);

  core::ProfileStore parallel_store;
  Session parallel(test_options(4), &parallel_store);
  const std::vector<Result> parallel_results = parallel.run_many(batch);

  ASSERT_EQ(serial_results.size(), parallel_results.size());
  for (std::size_t i = 0; i < serial_results.size(); ++i) {
    EXPECT_EQ(serial_results[i].to_json(), parallel_results[i].to_json())
        << "spec " << i << " diverged across thread counts";
  }
  // Both sides simulated the same scenario set exactly once each.
  EXPECT_EQ(serial_store.stats().simulated, parallel_store.stats().simulated);
}

TEST(Session, DegenerateZeroWindowSpecReportsCleanZeros) {
  core::ProfileStore store;
  Session session(test_options(), &store);

  ExperimentSpec spec = tiny_corun(FlowType::kIp, FlowType::kMon);
  spec.measure_ms = 0.0;  // nothing measured: all deltas are zero
  const Result r = session.run(spec);

  ASSERT_EQ(r.flows.size(), 2U);
  for (const FlowReport& fr : r.flows) {
    EXPECT_EQ(fr.metrics.delta.packets, 0U);
    EXPECT_EQ(fr.metrics.pps(), 0.0);
    EXPECT_EQ(fr.metrics.cpi(), 0.0);
    EXPECT_EQ(fr.metrics.cycles_per_packet(), 0.0);
    EXPECT_EQ(fr.drop_pct, 100.0);  // solo runs, the mix does not
  }
  const std::string json = r.to_json();
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
}

TEST(Session, SoloResultMatchesProfilerView) {
  core::ProfileStore store;
  Session session(test_options(), &store);

  ExperimentSpec spec;
  spec.kind = ExperimentKind::kSolo;
  spec.flows = {FlowSpec::of(FlowType::kIp)};
  spec.warmup_ms = 0.2;
  spec.measure_ms = 0.4;
  const Result r = session.run(spec);
  ASSERT_EQ(r.flows.size(), 1U);
  EXPECT_GT(r.flows[0].metrics.delta.packets, 0U);
  EXPECT_DOUBLE_EQ(r.flows[0].solo_pps, r.flows[0].metrics.pps());

  // Same spec again: everything is memoized, nothing re-simulates.
  const std::uint64_t simulated = store.stats().simulated;
  (void)session.run(spec);
  EXPECT_EQ(store.stats().simulated, simulated);
}

// make_testbed is the one place options reach a Testbed (a Testbed itself
// reads no environment): fidelity, the tier's sampling ceiling, the run
// budget and the wall-clock deadline all land, and configure() stamps them.
TEST(MakeTestbed, AppliesOptions) {
  SessionOptions opts =
      SessionOptions{}.with_scale(Scale::kQuick).with_fidelity(sim::SimFidelity::kStreamed);
  opts.run_budget_ms = 7.5;
  opts.wall_deadline = std::chrono::steady_clock::time_point{} + std::chrono::hours(1);
  const core::Testbed tb = make_testbed(opts);
  EXPECT_EQ(tb.scale(), Scale::kQuick);
  EXPECT_EQ(tb.machine_config().fidelity, sim::SimFidelity::kStreamed);
  EXPECT_EQ(tb.machine_config().sample_period_max, 16U) << "streamed tier's default ceiling";
  EXPECT_EQ(tb.run_budget_ms(), 7.5);
  EXPECT_EQ(tb.run_deadline(), opts.wall_deadline);
  const core::RunConfig cfg = tb.configure({FlowSpec::of(FlowType::kIp)});
  EXPECT_EQ(cfg.budget_ms, 7.5);
  EXPECT_EQ(cfg.deadline, opts.wall_deadline);

  opts.sample_period_max = 32;
  EXPECT_EQ(make_testbed(opts).machine_config().sample_period_max, 32U);

  const core::Testbed exact = make_testbed(SessionOptions{}.with_scale(Scale::kQuick));
  EXPECT_EQ(exact.machine_config().fidelity, sim::SimFidelity::kExact);
  EXPECT_EQ(exact.machine_config().sample_period_max, exact.machine_config().sample_period);
  EXPECT_EQ(exact.run_budget_ms(), 0.0);
  EXPECT_EQ(exact.run_deadline(), std::chrono::steady_clock::time_point{});
}

}  // namespace
}  // namespace pp::api
