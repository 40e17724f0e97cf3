#include "core/sweep.hpp"

#include <algorithm>

#include "base/check.hpp"

namespace pp::core {

const char* to_string(ContentionMode m) {
  switch (m) {
    case ContentionMode::kCacheOnly:
      return "cache-only";
    case ContentionMode::kMemCtrlOnly:
      return "memctrl-only";
    case ContentionMode::kBoth:
      return "cache+memctrl";
  }
  return "?";
}

void SweepCurve::add(double refs, double drop) {
  pts_.push_back(Point{refs, drop});
  finalized_ = false;
}

void SweepCurve::finalize() {
  std::sort(pts_.begin(), pts_.end(), [](const Point& a, const Point& b) {
    return a.competing_refs_per_sec < b.competing_refs_per_sec;
  });
  finalized_ = true;
}

double SweepCurve::drop_at(double refs) const {
  PP_CHECK(finalized_ && !pts_.empty());
  if (refs <= pts_.front().competing_refs_per_sec) {
    // Interpolate toward (0, 0): zero competition means zero drop.
    const Point& p = pts_.front();
    if (p.competing_refs_per_sec <= 0) return p.drop_pct;
    return p.drop_pct * refs / p.competing_refs_per_sec;
  }
  if (refs >= pts_.back().competing_refs_per_sec) return pts_.back().drop_pct;
  for (std::size_t i = 1; i < pts_.size(); ++i) {
    if (refs <= pts_[i].competing_refs_per_sec) {
      const Point& a = pts_[i - 1];
      const Point& b = pts_[i];
      const double span = b.competing_refs_per_sec - a.competing_refs_per_sec;
      if (span <= 0) return b.drop_pct;
      const double f = (refs - a.competing_refs_per_sec) / span;
      return a.drop_pct + f * (b.drop_pct - a.drop_pct);
    }
  }
  return pts_.back().drop_pct;
}

SweepProfiler::SweepProfiler(SoloProfiler& solo, int competitors, int threads)
    : solo_(solo), competitors_(competitors), threads_(threads < 1 ? 1 : threads) {
  PP_CHECK(competitors >= 1 && competitors <= 5);
}

std::vector<SynParams> SweepProfiler::default_levels(Scale s) {
  // (reads, instr) per batch; aggressiveness rises down the list. SYN_MAX
  // (32 reads, no compute) closes every schedule.
  switch (s) {
    case Scale::kQuick:
      return {{1, 3000, 12}, {1, 600, 12}, {2, 300, 12}, {8, 100, 12}, {32, 0, 12}};
    case Scale::kStandard:
      return {{1, 6000, 12}, {1, 2000, 12}, {1, 800, 12},  {2, 400, 12},
              {4, 200, 12},  {8, 100, 12},  {32, 0, 12}};
    case Scale::kFull:
      return {{1, 12000, 12}, {1, 4000, 12}, {1, 1500, 12}, {1, 700, 12}, {2, 350, 12},
              {4, 200, 12},   {8, 100, 12},  {16, 50, 12},  {32, 0, 12}};
  }
  return {{1, 3000, 12}, {1, 600, 12}, {32, 0, 12}};
}

Scenario SweepProfiler::level_scenario(const FlowSpec& target, ContentionMode mode,
                                       const SynParams& level, int seed_index) const {
  Testbed& tb = solo_.testbed();
  RunConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(seed_index + 1) * 104729;
  cfg.warmup_ms = tb.default_warmup_ms();
  cfg.measure_ms = tb.default_measure_ms();
  cfg.budget_ms = tb.run_budget_ms();
  cfg.deadline = tb.run_deadline();
  cfg.flows.push_back(target);
  cfg.placement.push_back(FlowPlacement{0, 0});
  for (int c = 0; c < competitors_; ++c) {
    cfg.flows.push_back(FlowSpec::syn_flow(level, static_cast<std::uint64_t>(c + 2)));
    FlowPlacement pl;
    switch (mode) {
      case ContentionMode::kBoth:
        pl.core = 1 + c;       // target's socket
        pl.data_domain = -1;   // local (socket 0)
        break;
      case ContentionMode::kCacheOnly:
        pl.core = 1 + c;       // target's socket -> shares L3
        pl.data_domain = 1;    // data remote -> other memory controller
        break;
      case ContentionMode::kMemCtrlOnly:
        pl.core = 6 + c;       // other socket -> different L3
        pl.data_domain = 0;    // data in target's domain -> same controller
        break;
    }
    cfg.placement.push_back(pl);
  }
  return Scenario::of(tb, cfg);
}

SweepResult SweepProfiler::sweep(const FlowSpec& target, ContentionMode mode,
                                 const std::vector<SynParams>& levels) const {
  return sweep_many({target}, mode, levels)[0];
}

std::vector<SweepResult> SweepProfiler::sweep_many(const std::vector<FlowSpec>& targets,
                                                   ContentionMode mode,
                                                   const std::vector<SynParams>& levels) const {
  return assemble_many(targets, mode, levels,
                       solo_.store().get_or_run_many(plan_many(targets, mode, levels), threads_));
}

std::vector<Scenario> SweepProfiler::plan_many(const std::vector<FlowSpec>& targets,
                                               ContentionMode mode,
                                               const std::vector<SynParams>& levels) const {
  // Every scenario of every target — solo baselines first, then the
  // (level, seed) grid — in one flat list. Each job writes its own
  // pre-assigned slot in the store fan-out, and assemble_many walks the
  // slots in serial order, so the result is bit-identical whatever the
  // thread count and however many sweeps share the store concurrently.
  const int seeds = solo_.seeds();
  std::vector<Scenario> jobs;
  jobs.reserve(static_cast<std::size_t>(seeds) * (1 + levels.size()) * targets.size());
  for (const FlowSpec& target : targets) {
    for (const Scenario& s : solo_.plan(target)) jobs.push_back(s);
    for (const SynParams& level : levels) {
      for (int s = 0; s < seeds; ++s) {
        jobs.push_back(level_scenario(target, mode, level, s));
      }
    }
  }
  return jobs;
}

FlowMetrics SweepProfiler::solo_of(
    std::size_t t, std::size_t num_levels,
    const std::vector<std::shared_ptr<const ScenarioResult>>& runs) const {
  const auto seeds = static_cast<std::size_t>(solo_.seeds());
  const std::size_t base = t * seeds * (1 + num_levels);
  return SoloProfiler::merge_plan({runs.begin() + static_cast<std::ptrdiff_t>(base),
                                   runs.begin() + static_cast<std::ptrdiff_t>(base + seeds)});
}

std::vector<SweepResult> SweepProfiler::assemble_many(
    const std::vector<FlowSpec>& targets, ContentionMode mode,
    const std::vector<SynParams>& levels,
    const std::vector<std::shared_ptr<const ScenarioResult>>& runs) const {
  const int seeds = solo_.seeds();
  const std::size_t per_target =
      static_cast<std::size_t>(seeds) * (1 + levels.size());  // solo + grid
  PP_CHECK(runs.size() == per_target * targets.size());
  std::vector<SweepResult> out;
  out.reserve(targets.size());
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const std::size_t base = t * per_target;
    const FlowMetrics solo = solo_of(t, levels.size(), runs);

    SweepResult result;
    result.target = targets[t].type;
    result.mode = mode;
    for (std::size_t l = 0; l < levels.size(); ++l) {
      std::vector<FlowMetrics> target_runs;
      double comp_refs_sum = 0;
      for (int s = 0; s < seeds; ++s) {
        const ScenarioResult& run =
            *runs[base + static_cast<std::size_t>(seeds) * (1 + l) + static_cast<std::size_t>(s)];
        target_runs.push_back(run[0]);
        double refs = 0;
        for (std::size_t i = 1; i < run.size(); ++i) refs += run[i].refs_per_sec();
        comp_refs_sum += refs;
      }
      SweepLevel lvl;
      lvl.syn = levels[l];
      lvl.target = merge_metrics(target_runs);
      lvl.competing_refs_per_sec = comp_refs_sum / seeds;
      lvl.drop_pct = drop_pct(solo, lvl.target);
      result.levels.push_back(std::move(lvl));
    }
    for (const SweepLevel& l : result.levels) {
      result.curve.add(l.competing_refs_per_sec, l.drop_pct);
    }
    result.curve.finalize();
    out.push_back(std::move(result));
  }
  return out;
}

}  // namespace pp::core
