// api::Session error isolation: failed specs come back as structured
// Result::error values — never an abort, never a poisoned batch. Covers the
// run-budget and wall-clock deadline guards (artifact specs included),
// injected scenario faults, invalid specs, dedup of failing specs,
// serialization of errors, and thread-count invariance.
#include "api/session.hpp"

#include <gtest/gtest.h>

#include <chrono>

#include "api/artifacts.hpp"
#include "base/fault.hpp"
#include "core/profile_store.hpp"

namespace pp::api {
namespace {

using core::FlowSpec;
using core::FlowType;

SessionOptions test_options(int threads = 1) {
  return SessionOptions{}.with_scale(Scale::kQuick).with_threads(threads);
}

ExperimentSpec tiny_corun(FlowType a, FlowType b, std::uint64_t seed = 1) {
  ExperimentSpec spec;
  spec.kind = ExperimentKind::kCorun;
  spec.flows = {FlowSpec::of(a), FlowSpec::of(b, 2)};
  spec.seed = seed;
  spec.warmup_ms = 0.2;
  spec.measure_ms = 0.4;
  return spec;
}

/// A spec that deterministically exceeds its run budget: the windows sum to
/// 0.6 ms of simulated time against a 0.1 ms budget.
ExperimentSpec over_budget_spec() {
  ExperimentSpec spec = tiny_corun(FlowType::kIp, FlowType::kVpn, 42);
  spec.budget_ms = 0.1;
  return spec;
}

TEST(SessionError, EmptyFlowsIsAStructuredErrorNotAnAbort) {
  core::ProfileStore store;
  Session session(test_options(), &store);
  ExperimentSpec spec;
  spec.kind = ExperimentKind::kCorun;
  const Result r = session.run(spec);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error->kind, StatusKind::kInvalidSpec);
  EXPECT_EQ(r.error->site, "session.run");
  EXPECT_TRUE(r.flows.empty());
  EXPECT_EQ(session.stats().specs_failed, 1U);
}

/// Every paper artifact as a spec, straight from the artifact table.
std::vector<ExperimentSpec> every_artifact() {
  std::vector<ExperimentSpec> out;
  for (const Artifact& a : artifacts()) {
    ExperimentSpec spec;
    spec.kind = a.kind;
    spec.artifact = a.name;
    out.push_back(spec);
  }
  return out;
}

TEST(SessionError, OverBudgetArtifactIsAStructuredBudgetError) {
  // An artifact runs through the same guards as any spec: its quick-scale
  // windows (5 ms) exceed a 0.1 ms session budget before any work.
  for (const ExperimentSpec& spec : every_artifact()) {
    core::ProfileStore store;
    SessionOptions opts = test_options();
    opts.run_budget_ms = 0.1;
    Session session(opts, &store);
    const Result r = session.run(spec);
    ASSERT_FALSE(r.ok()) << spec.artifact;
    EXPECT_EQ(r.error->kind, StatusKind::kBudgetExceeded) << spec.artifact;
    EXPECT_TRUE(r.flows.empty() && r.sweeps.empty() && r.studies.empty())
        << spec.artifact << ": a failed artifact must not be half-filled";
    EXPECT_EQ(store.stats().simulated, 0U) << spec.artifact;
    EXPECT_NE(r.to_text().find("ERROR budget_exceeded"), std::string::npos) << r.to_text();
  }
}

TEST(SessionError, UnknownArtifactIsAStructuredError) {
  // A near miss of every table name ("fig20", "table10", ...) is unknown.
  for (ExperimentSpec spec : every_artifact()) {
    spec.artifact += "0";
    ASSERT_EQ(find_artifact(spec.artifact), nullptr) << spec.artifact;
    core::ProfileStore store;
    Session session(test_options(), &store);
    const Result r = session.run(spec);
    ASSERT_FALSE(r.ok()) << spec.artifact;
    EXPECT_EQ(r.error->kind, StatusKind::kInvalidSpec) << spec.artifact;
    EXPECT_NE(r.error->detail.find(spec.artifact), std::string::npos) << r.error->detail;
    EXPECT_EQ(store.stats().simulated, 0U) << spec.artifact;
  }
}

TEST(SessionError, ExpiredDeadlineStopsEveryKindBeforeAnySimulation) {
  // The wall-clock deadline reaches every scenario a plan builds — the
  // sweep grid and the placement study included, not only solo runs.
  std::vector<FlowSpec> twelve(11, FlowSpec::of(FlowType::kIp));
  twelve.push_back(FlowSpec::of(FlowType::kFw));
  ExperimentSpec sweep;
  sweep.kind = ExperimentKind::kSweep;
  sweep.flows = {FlowSpec::of(FlowType::kIp)};
  ExperimentSpec study;
  study.kind = ExperimentKind::kPlacementSearch;
  study.flows = twelve;
  std::vector<ExperimentSpec> specs = {tiny_corun(FlowType::kIp, FlowType::kMon), sweep, study};
  for (const ExperimentSpec& a : every_artifact()) specs.push_back(a);
  for (const ExperimentSpec& spec : specs) {
    core::ProfileStore store;
    SessionOptions opts = test_options();
    opts.wall_deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
    Session session(opts, &store);
    const Result r = session.run(spec);
    ASSERT_FALSE(r.ok()) << spec.to_json();
    EXPECT_EQ(r.error->kind, StatusKind::kBudgetExceeded) << spec.to_json();
    EXPECT_EQ(store.stats().simulated, 0U) << spec.to_json();
  }
}

TEST(SessionError, BudgetExceededIsNamedAndCarriesTheNumbers) {
  core::ProfileStore store;
  Session session(test_options(), &store);
  const Result r = session.run(over_budget_spec());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error->kind, StatusKind::kBudgetExceeded);
  EXPECT_EQ(r.error->site, "scenario.run");
  EXPECT_NE(r.error->detail.find("budget"), std::string::npos);
  EXPECT_TRUE(r.flows.empty()) << "a failed result must not be half-filled";
  EXPECT_EQ(store.stats().simulated, 0U) << "the budget guard runs before any work";
}

TEST(SessionError, GenerousBudgetIsBitIdenticalToNoBudget) {
  // The budget is an execution guard, not content: it must not enter the
  // scenario key or perturb results.
  core::ProfileStore store_a;
  Session a(test_options(), &store_a);
  const Result plain = a.run(tiny_corun(FlowType::kIp, FlowType::kMon));

  core::ProfileStore store_b;
  Session b(test_options(), &store_b);
  ExperimentSpec budgeted = tiny_corun(FlowType::kIp, FlowType::kMon);
  budgeted.budget_ms = 9999.0;
  const Result r = b.run(budgeted);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(plain.to_json(), r.to_json());
}

TEST(SessionError, OnePoisonedSpecLeavesTheRestBitIdentical) {
  const std::vector<ExperimentSpec> good = {tiny_corun(FlowType::kIp, FlowType::kMon, 1),
                                            tiny_corun(FlowType::kMon, FlowType::kVpn, 2),
                                            tiny_corun(FlowType::kVpn, FlowType::kIp, 3)};

  // Reference: the good specs alone, serial, fresh store.
  core::ProfileStore ref_store;
  Session ref(test_options(1), &ref_store);
  const std::vector<Result> ref_results = ref.run_many(good);

  // 1 poisoned + 3 good, parallel.
  std::vector<ExperimentSpec> batch = {good[0], over_budget_spec(), good[1], good[2]};
  core::ProfileStore store;
  Session session(test_options(4), &store);
  const std::vector<Result> results = session.run_many(batch);
  ASSERT_EQ(results.size(), 4U);

  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[2].ok());
  EXPECT_TRUE(results[3].ok());
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].error->kind, StatusKind::kBudgetExceeded);

  EXPECT_EQ(results[0].to_json(), ref_results[0].to_json());
  EXPECT_EQ(results[2].to_json(), ref_results[1].to_json());
  EXPECT_EQ(results[3].to_json(), ref_results[2].to_json());
  EXPECT_EQ(session.stats().specs_failed, 1U);
}

TEST(SessionError, FailingDuplicatesDedupToOneExecution) {
  core::ProfileStore store;
  Session session(test_options(2), &store);
  const std::vector<ExperimentSpec> batch = {over_budget_spec(), over_budget_spec()};
  const std::vector<Result> results = session.run_many(batch);
  ASSERT_EQ(results.size(), 2U);
  EXPECT_FALSE(results[0].ok());
  EXPECT_EQ(results[0].to_json(), results[1].to_json());
  EXPECT_EQ(session.stats().specs_run, 1U);
  EXPECT_EQ(session.stats().specs_deduped, 1U);
  EXPECT_EQ(session.stats().specs_failed, 1U) << "a deduped failure counts once";
}

TEST(SessionError, ErrorAttributionIsThreadCountInvariant) {
  std::vector<ExperimentSpec> batch = {tiny_corun(FlowType::kIp, FlowType::kMon, 1),
                                       over_budget_spec(),
                                       tiny_corun(FlowType::kMon, FlowType::kVpn, 2),
                                       over_budget_spec()};
  core::ProfileStore store1;
  Session serial(test_options(1), &store1);
  const std::vector<Result> a = serial.run_many(batch);

  core::ProfileStore store4;
  Session parallel(test_options(4), &store4);
  const std::vector<Result> b = parallel.run_many(batch);

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].to_json(), b[i].to_json()) << "result " << i;
  }
}

TEST(SessionError, InjectedScenarioFaultBecomesAStructuredError) {
  std::string err;
  ASSERT_TRUE(FaultInjector::global().configure("scenario.run:fail@1.0", &err)) << err;
  core::ProfileStore store;
  Session session(test_options(), &store);
  const Result r = session.run(tiny_corun(FlowType::kIp, FlowType::kMon));
  FaultInjector::global().reset();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error->kind, StatusKind::kFaultInjected);
  EXPECT_EQ(r.error->site, "scenario.run");
}

TEST(SessionError, ErrorSerializesToAllThreeFormats) {
  core::ProfileStore store;
  Session session(test_options(), &store);
  const Result r = session.run(over_budget_spec());
  ASSERT_FALSE(r.ok());

  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"error\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"kind\": \"budget_exceeded\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"site\": \"scenario.run\""), std::string::npos) << json;

  EXPECT_NE(r.to_text().find("ERROR budget_exceeded at scenario.run"), std::string::npos);
  EXPECT_NE(r.to_csv().find("error"), std::string::npos);
}

}  // namespace
}  // namespace pp::api
