// api::Session's batch pool: run_many plans every unique spec, runs the
// union of their scenarios once over a single pool of options().threads
// workers, and assembles each spec from its own slice. Locks byte identity
// against per-spec runs for all five kinds, one simulation per key across
// overlapping specs, the concurrency bound (ProfileStore peak_running), and
// per-spec execution guards when two specs plan the same key.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/session.hpp"
#include "core/profile_store.hpp"

namespace pp::api {
namespace {

using core::FlowSpec;
using core::FlowType;

/// Quick scale in the streamed tier: the pool's contracts are the same in
/// every tier, and streamed keeps the sweeps and the 12-flow study cheap
/// enough for the sanitizer jobs.
SessionOptions test_options(int threads) {
  return SessionOptions{}
      .with_scale(Scale::kQuick)
      .with_fidelity(sim::SimFidelity::kStreamed)
      .with_threads(threads);
}

ExperimentSpec make(ExperimentKind kind, std::vector<FlowSpec> flows) {
  ExperimentSpec spec;
  spec.kind = kind;
  spec.flows = std::move(flows);
  return spec;
}

/// Sub-millisecond co-run windows; the solo baselines keep the scale defaults.
ExperimentSpec tiny_corun(FlowType a, FlowType b, std::uint64_t seed) {
  ExperimentSpec spec = make(ExperimentKind::kCorun, {FlowSpec::of(a), FlowSpec::of(b, 2)});
  spec.seed = seed;
  spec.warmup_ms = 0.2;
  spec.measure_ms = 0.4;
  return spec;
}

/// One spec of every kind, overlapping where the kinds naturally do: the
/// sweep is the predict's plan, and the corun's solo baselines and the
/// placement study's per-type solos are IP/FW profiles the others also
/// plan. IP and FW are the cheapest types to simulate, which keeps this
/// affordable in the sanitizer jobs.
std::vector<ExperimentSpec> mixed_batch() {
  ExperimentSpec solo = make(ExperimentKind::kSolo, {FlowSpec::of(FlowType::kFw)});
  solo.measure_ms = 0.4;
  // Eleven IP + one FW: a single distinct socket split keeps the study cheap.
  std::vector<FlowSpec> twelve(11, FlowSpec::of(FlowType::kIp));
  twelve.push_back(FlowSpec::of(FlowType::kFw));
  return {solo,
          tiny_corun(FlowType::kIp, FlowType::kFw, 3),
          make(ExperimentKind::kSweep, {FlowSpec::of(FlowType::kIp)}),
          make(ExperimentKind::kPredict, {FlowSpec::of(FlowType::kIp)}),
          make(ExperimentKind::kPlacementSearch, twelve)};
}

/// A solo spec with sub-millisecond windows: its whole plan is cheap.
ExperimentSpec tiny_solo(std::vector<FlowSpec> flows, std::uint64_t seed) {
  ExperimentSpec spec = make(ExperimentKind::kSolo, std::move(flows));
  spec.seed = seed;
  spec.warmup_ms = 0.2;
  spec.measure_ms = 0.4;
  return spec;
}

/// A spec whose co-run windows (0.6 ms) exceed its 0.1 ms budget.
ExperimentSpec over_budget(std::uint64_t seed) {
  ExperimentSpec spec = tiny_corun(FlowType::kIp, FlowType::kMon, seed);
  spec.budget_ms = 0.1;
  return spec;
}

TEST(SessionPool, MixedBatchMatchesPerSpecRunsAtAnyThreadCount) {
  const std::vector<ExperimentSpec> batch = mixed_batch();
  std::vector<std::string> reference;
  for (const ExperimentSpec& spec : batch) {
    core::ProfileStore fresh;
    Session one(test_options(1), &fresh);
    const Result r = one.run(spec);
    ASSERT_TRUE(r.ok()) << to_string(spec.kind) << ": " << r.error->detail;
    reference.push_back(r.to_json());
  }
  for (const int threads : {1, 4}) {
    core::ProfileStore store;
    Session session(test_options(threads), &store);
    const std::vector<Result> results = session.run_many(batch);
    ASSERT_EQ(results.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(results[i].to_json(), reference[i])
          << to_string(batch[i].kind) << " at threads=" << threads;
    }
    EXPECT_EQ(session.stats().specs_run, batch.size());
    EXPECT_EQ(session.stats().specs_failed, 0U);
  }
}

TEST(SessionPool, OverlappingSpecsSimulateEachKeyOnce) {
  const std::vector<ExperimentSpec> batch = {
      make(ExperimentKind::kPredict, {FlowSpec::of(FlowType::kIp)}),
      make(ExperimentKind::kSweep, {FlowSpec::of(FlowType::kIp)}),  // = the predict's plan
      make(ExperimentKind::kSolo, {FlowSpec::of(FlowType::kIp)}),
      tiny_corun(FlowType::kIp, FlowType::kFw, 5)};

  // Serially on one store every distinct key simulates exactly once, and
  // the keys the specs share show up as memory hits.
  core::ProfileStore shared;
  Session serial(test_options(1), &shared);
  for (const ExperimentSpec& spec : batch) ASSERT_TRUE(serial.run(spec).ok());
  const std::uint64_t distinct_keys = shared.stats().simulated;
  ASSERT_GT(shared.stats().memory_hits, 0U) << "the batch must actually overlap";

  core::ProfileStore store;
  Session session(test_options(4), &store);
  for (const Result& r : session.run_many(batch)) EXPECT_TRUE(r.ok());
  EXPECT_EQ(store.stats().simulated, distinct_keys);
  EXPECT_EQ(store.stats().coalesced, 0U) << "one pool: no worker waits on another's key";
}

TEST(SessionPool, AtMostThreadsScenariosSimulateAtOnce) {
  // Four specs with three cold scenarios each: nested pools (specs x
  // scenarios) would keep more Machines alive than there are workers.
  std::vector<ExperimentSpec> batch;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    batch.push_back(tiny_solo(
        {FlowSpec::of(FlowType::kIp), FlowSpec::of(FlowType::kFw), FlowSpec::of(FlowType::kMon)},
        seed));
  }
  for (const int threads : {2, 3}) {
    core::ProfileStore store;
    Session session(test_options(threads), &store);
    for (const Result& r : session.run_many(batch)) EXPECT_TRUE(r.ok());
    const core::ProfileStore::Stats st = store.stats();
    EXPECT_EQ(st.simulated, 12U);
    EXPECT_GE(st.peak_running, 1U);
    EXPECT_LE(st.peak_running, static_cast<std::uint64_t>(threads)) << "threads=" << threads;
    EXPECT_NE(store.stats_line().find(" peak_running="), std::string::npos);
  }
}

TEST(SessionPool, GuardFailureOfOneSpecNeverReachesAnother) {
  // Both specs plan the same scenario keys (budget_ms is an execution guard,
  // not key content), but only one has a budget its windows exceed. The
  // reference is the serial order on one store: a failed run releases its
  // key, so the next spec runs it under its own guard; a key that already
  // ran is a memory hit whatever the later spec's budget.
  ExperimentSpec unguarded = tiny_solo({FlowSpec::of(FlowType::kIp)}, 42);
  unguarded.name = "unguarded";
  ExperimentSpec guarded = unguarded;
  guarded.name = "guarded";
  guarded.budget_ms = 0.1;  // under the 0.6 ms of windows

  for (const auto& batch : {std::vector<ExperimentSpec>{guarded, unguarded},
                            std::vector<ExperimentSpec>{unguarded, guarded}}) {
    core::ProfileStore serial_store;
    Session serial(test_options(1), &serial_store);
    std::vector<std::string> reference;
    for (const ExperimentSpec& spec : batch) reference.push_back(serial.run(spec).to_json());

    for (const int threads : {1, 4}) {
      core::ProfileStore store;
      Session session(test_options(threads), &store);
      const std::vector<Result> results = session.run_many(batch);
      ASSERT_EQ(results.size(), 2U);
      for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(results[i].to_json(), reference[i])
            << batch[0].name << " first, result " << i << ", threads=" << threads;
      }
    }
  }

  // Spelled out for the guarded-first order: the guarded spec fails on its
  // own budget, the unguarded one is untouched by it.
  core::ProfileStore store;
  Session session(test_options(4), &store);
  const std::vector<Result> results = session.run_many({guarded, unguarded});
  ASSERT_FALSE(results[0].ok());
  EXPECT_EQ(results[0].error->kind, StatusKind::kBudgetExceeded);
  EXPECT_TRUE(results[1].ok());
}

TEST(SessionPool, FailedSpecReportsTheLowestIndexErrorOfItsOwnSlice) {
  // Two different failing specs between good ones: each failure names its
  // own budget, at any thread count.
  const std::vector<ExperimentSpec> batch = {tiny_corun(FlowType::kIp, FlowType::kVpn, 1),
                                             over_budget(7),
                                             tiny_corun(FlowType::kMon, FlowType::kVpn, 2),
                                             over_budget(8)};
  core::ProfileStore serial_store;
  Session serial(test_options(1), &serial_store);
  std::vector<std::string> reference;
  for (const ExperimentSpec& spec : batch) reference.push_back(serial.run(spec).to_json());

  core::ProfileStore store;
  Session session(test_options(4), &store);
  const std::vector<Result> results = session.run_many(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(results[i].to_json(), reference[i]) << "result " << i;
  }
  EXPECT_EQ(session.stats().specs_failed, 2U);
}

}  // namespace
}  // namespace pp::api
