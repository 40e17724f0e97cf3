// The paper's contention predictor (Section 4): (1) each flow type's solo
// refs/sec, (2) its drop-vs-competing-refs curve from a SYN sweep, (3) the
// curve read at the competitors' summed solo refs/sec. The views plan and
// assemble; api::Session's predict spec is the one place step 3 runs.
#include <gtest/gtest.h>

#include "api/session.hpp"
#include "common/fixtures.hpp"

namespace pp::core {
namespace {

class PredictorTest : public ::testing::Test {
 protected:
  pp::test::ProfilerRig rig_;
  const std::vector<SynParams> levels_ = SweepProfiler::default_levels(Scale::kQuick);
};

// Step 1 feeds step 3: a sweep plan opens with the target's solo plan, and
// the baseline it reads back (solo_of) is the solo profile.
TEST_F(PredictorTest, SoloRefsMatchProfiler) {
  const std::vector<Scenario> solo_plan = rig_.solo.plan(FlowSpec::of(FlowType::kFw));
  const std::vector<Scenario> sweep_plan =
      rig_.sweep.plan_many({FlowSpec::of(FlowType::kFw)}, ContentionMode::kBoth, levels_);
  ASSERT_GT(sweep_plan.size(), solo_plan.size());
  for (std::size_t i = 0; i < solo_plan.size(); ++i) {
    EXPECT_EQ(scenario_key(sweep_plan[i]), scenario_key(solo_plan[i])) << i;
  }
  const auto runs = rig_.run(solo_plan);
  EXPECT_DOUBLE_EQ(rig_.sweep.solo_of(0, levels_.size(), runs).refs_per_sec(),
                   SoloProfiler::merge_plan(runs).refs_per_sec());
}

// The predict spec reads each flow's curve at the sum of the other flows'
// solo refs/sec; its plan is the flows' sweeps, so the curves below are
// store hits.
TEST_F(PredictorTest, PredictSumsCompetitorRefs) {
  api::ExperimentSpec spec;
  spec.kind = api::ExperimentKind::kPredict;
  spec.flows.push_back(FlowSpec::of(FlowType::kMon));
  for (int i = 0; i < 5; ++i) spec.flows.push_back(FlowSpec::of(FlowType::kFw));
  api::Session session(pp::test::quick_options(), &rig_.store);
  const api::Result r = session.run(spec);
  ASSERT_TRUE(r.ok()) << r.error->detail;
  ASSERT_EQ(r.flows.size(), 6U);

  const std::uint64_t simulated = rig_.store.stats().simulated;
  const SweepResult mon = rig_.sweep_of(FlowType::kMon, ContentionMode::kBoth, levels_);
  const SweepResult fw = rig_.sweep_of(FlowType::kFw, ContentionMode::kBoth, levels_);
  EXPECT_EQ(rig_.store.stats().simulated, simulated) << "the spec planned both sweeps";

  const double fw_refs = rig_.solo_profile(FlowType::kFw).refs_per_sec();
  double sum = 0;
  for (int i = 0; i < 5; ++i) sum += fw_refs;
  EXPECT_DOUBLE_EQ(r.flows[0].drop_pct, mon.curve.drop_at(sum));
  EXPECT_DOUBLE_EQ(r.flows[1].metrics.refs_per_sec(), fw_refs);

  // FW has almost no L3 hits to lose: even heavy competition predicts a
  // small drop relative to MON's.
  EXPECT_LT(fw.curve.drop_at(200e6), mon.curve.drop_at(200e6));
}

TEST_F(PredictorTest, MorePressureNeverPredictsLess) {
  const SweepCurve curve =
      rig_.sweep_of(FlowType::kMon, ContentionMode::kBoth, levels_).curve;
  const double low = curve.drop_at(20e6);
  const double high = curve.drop_at(250e6);
  EXPECT_LE(low, high);
  EXPECT_GT(high, 5.0);
}

TEST_F(PredictorTest, ProfileIsIdempotent) {
  const SweepCurve curve1 =
      rig_.sweep_of(FlowType::kVpn, ContentionMode::kBoth, levels_).curve;
  const auto simulated_after_first = rig_.store.stats().simulated;
  const SweepCurve curve2 =
      rig_.sweep_of(FlowType::kVpn, ContentionMode::kBoth, levels_).curve;
  // Re-profiling aggregates memoized scenario results; nothing re-simulates
  // and the curve is reproduced bit-identically.
  EXPECT_EQ(rig_.store.stats().simulated, simulated_after_first);
  ASSERT_EQ(curve1.points().size(), curve2.points().size());
  for (std::size_t i = 0; i < curve1.points().size(); ++i) {
    EXPECT_EQ(curve1.points()[i].competing_refs_per_sec,
              curve2.points()[i].competing_refs_per_sec);
    EXPECT_EQ(curve1.points()[i].drop_pct, curve2.points()[i].drop_pct);
  }
}

// End-to-end prediction accuracy on one mix (quick-scale smoke version of
// Figure 8; the bench reproduces the full matrix).
TEST_F(PredictorTest, PairwisePredictionWithinTolerance) {
  const FlowType target = FlowType::kMon;
  const FlowType comp = FlowType::kFw;
  RunConfig cfg = rig_.tb.configure({FlowSpec::of(target)});
  for (int i = 0; i < 5; ++i) {
    cfg.flows.push_back(FlowSpec::of(comp, i + 2));
    cfg.placement.push_back(FlowPlacement{1 + i, -1});
  }
  const auto run = rig_.tb.run(cfg);
  const double actual = drop_pct(rig_.solo_profile(target), run[0]);
  const double predicted = rig_.predict(target, {comp, comp, comp, comp, comp});
  EXPECT_NEAR(predicted, actual, 6.0);
}

}  // namespace
}  // namespace pp::core
