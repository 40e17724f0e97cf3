// SYN sweep profiling (the paper's prediction step 2, Section 4; Figures 4,
// 5 and 7): co-run a target flow with 5 SYN flows whose aggressiveness ramps
// from idle to SYN_MAX, and record the target's performance drop as a
// function of the competitors' measured cache refs/sec.
//
// The three Figure 3 placements are supported: cache-only contention
// (competitors on the target's socket, their data remote), memory-
// controller-only (competitors on the other socket, their data in the
// target's domain), and both (the system's normal NUMA-local placement).
//
// The profiler is a stateless plan/assemble view: a sweep is planned as one
// scenario per (target, level, seed) — plus the target's solo scenarios —
// and the caller runs the whole plan in a single ProfileStore::run_batch.
// Aggregation walks the slots in serial order, so the output is
// bit-identical at any thread count, and concurrent sweeps sharing one
// store are safe (the store single-flights duplicate scenarios).
#pragma once

#include <vector>

#include "core/profiler.hpp"
#include "core/testbed.hpp"

namespace pp::core {

enum class ContentionMode : std::uint8_t { kCacheOnly, kMemCtrlOnly, kBoth };

[[nodiscard]] const char* to_string(ContentionMode m);

/// Monotone drop-vs-competing-refs curve with linear interpolation; this is
/// the per-type profile the predictor reads (prediction step 3).
class SweepCurve {
 public:
  struct Point {
    double competing_refs_per_sec = 0;
    double drop_pct = 0;
  };

  void add(double refs, double drop);
  void finalize();  // sort by x

  /// Interpolated drop at `refs` (clamped to the measured range).
  [[nodiscard]] double drop_at(double refs) const;

  [[nodiscard]] const std::vector<Point>& points() const { return pts_; }

 private:
  std::vector<Point> pts_;
  bool finalized_ = false;
};

/// One sweep level: the SYN setting, the measured competition, and the
/// target's pooled metrics (with per-element stats for Figure 7).
struct SweepLevel {
  SynParams syn;
  double competing_refs_per_sec = 0;
  double drop_pct = 0;
  FlowMetrics target;
};

struct SweepResult {
  FlowType target = FlowType::kIp;
  ContentionMode mode = ContentionMode::kBoth;
  std::vector<SweepLevel> levels;
  SweepCurve curve;
};

class SweepProfiler {
 public:
  explicit SweepProfiler(SoloProfiler& solo, int competitors = 5);

  /// Ramp schedule: SYN (reads, instr) pairs from near-idle to SYN_MAX.
  /// Batches are kept short (small reads, modest instr) so competitor tasks
  /// stay comparable in length to a packet and the DES interleaving stays
  /// fine-grained.
  [[nodiscard]] static std::vector<SynParams> default_levels(Scale s);

  /// The scenario plan behind several sweeps, known before any result exists:
  /// per target, its solo plan (seed order) followed by the (level, seed)
  /// grid. Callers that batch several sweeps fan the plans into one store
  /// request and hand each its slice back through assemble_many.
  [[nodiscard]] std::vector<Scenario> plan_many(const std::vector<FlowSpec>& targets,
                                                ContentionMode mode,
                                                const std::vector<SynParams>& levels) const;

  /// Aggregate plan_many's results (`runs` parallel to its plan) in plan
  /// order. The first `seeds()` slots of target t's block are its solo
  /// baseline, so solo_of() reads them back without another store request.
  [[nodiscard]] std::vector<SweepResult> assemble_many(
      const std::vector<FlowSpec>& targets, ContentionMode mode,
      const std::vector<SynParams>& levels,
      const std::vector<std::shared_ptr<const ScenarioResult>>& runs) const;

  /// Target t's seed-merged solo baseline out of plan_many's results.
  [[nodiscard]] FlowMetrics solo_of(
      std::size_t t, std::size_t num_levels,
      const std::vector<std::shared_ptr<const ScenarioResult>>& runs) const;

 private:
  /// The scenario for one (target, level, seed) sweep point.
  [[nodiscard]] Scenario level_scenario(const FlowSpec& target, ContentionMode mode,
                                        const SynParams& level, int seed_index) const;

  SoloProfiler& solo_;
  int competitors_;
};

}  // namespace pp::core
