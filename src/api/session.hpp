// The public facade: one entry point for executing declarative experiments.
//
// A Session bundles the scenario-engine stack — the content-addressed
// ProfileStore plus the stateless profiler/sweep/placement views — behind
// explicit SessionOptions instead of scattered getenv() calls, and executes
// ExperimentSpecs into structured, serializable Results. It is the only
// executor: the views plan and assemble, and Session runs their plans in
// one ProfileStore::run_batch.
//
//   api::Session session;                                  // env-configured
//   auto spec = api::ExperimentSpec::parse(file_text, &err);
//   api::Result r = session.run(*spec);
//   std::puts(r.to_json().c_str());
//
// Every spec kind is executed in two steps: a pure *plan* (its full
// scenario list, known before any result exists) and an *assemble* step
// that aggregates the results in plan order. run() is assemble over one
// store request for the spec's whole plan; run_many() dedups identical
// specs, plans every unique one, runs the union once over a single pool of
// options().threads workers, and assembles each spec from its own slice —
// so a batch of overlapping requests simulates each distinct machine state
// exactly once with at most `threads` Machines alive. Results are
// bit-identical at any thread count (every scenario run is a pure function;
// aggregation is in plan order).
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "api/spec.hpp"
#include "base/status.hpp"
#include "core/placement.hpp"
#include "core/profile_store.hpp"
#include "core/profiler.hpp"
#include "core/sweep.hpp"

namespace pp::api {

/// Per-flow slice of a Result.
struct FlowReport {
  core::FlowSpec spec;        // the flow as requested
  core::FlowMetrics metrics;  // solo/predict: seed-merged solo run; corun: in-mix
  double solo_pps = 0;        // solo baseline throughput (pps)
  double drop_pct = 0;        // corun: measured drop; predict: predicted drop
};

/// Structured failure: what failed (taxonomy kind, base/status.hpp), where
/// (the fault/validation site), and a human detail line.
struct Error {
  StatusKind kind = StatusKind::kInternal;
  std::string site;
  std::string detail;

  /// One-line JSON object: {"kind": "...", "site": "...", "detail": "..."}.
  [[nodiscard]] std::string to_json() const;
};

/// Structured answer to one spec. Which sections are filled depends on the
/// kind: flows for solo/corun/predict, sweeps for sweep, one study for
/// placement_search. An artifact concatenates the sections of its parts in
/// the artifact table's order (api/artifacts.hpp; fig4: fifteen sweeps,
/// fig10: six studies), and to_text() renders them as the paper figure. A
/// failed spec carries `error` and empty sections — never a half-filled
/// result, never an abort. Serializes to JSON/text/CSV (schema: docs/api.md;
/// failure semantics: docs/robustness.md).
struct Result {
  ExperimentKind kind = ExperimentKind::kCorun;
  std::string name;
  std::string artifact;  // the artifact's name ("fig4", ...), "" = generic
  Scale scale = Scale::kStandard;
  sim::SimFidelity fidelity = sim::SimFidelity::kExact;
  int seeds = 1;

  std::vector<FlowReport> flows;
  std::vector<core::SweepResult> sweeps;
  std::vector<core::PlacementStudy> studies;

  std::optional<Error> error;
  [[nodiscard]] bool ok() const { return !error.has_value(); }

  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] std::string to_text() const;
  [[nodiscard]] std::string to_csv() const;
};

/// A Testbed at `opts.scale` with the options applied: fidelity, the
/// sampling-period ceiling (resolve_sample_period_max), the run budget and
/// the wall-clock deadline. The one place options reach a Testbed; benches
/// and tests pass SessionOptions::from_env() (or an override of it).
[[nodiscard]] core::Testbed make_testbed(const SessionOptions& opts);

/// The stateless view stack over one store, configured from explicit options
/// (Session builds one per spec — construction is cheap; all measurement
/// state lives in the store).
struct ViewStack {
  core::Testbed tb;
  core::SoloProfiler solo;
  core::SweepProfiler sweep;
  core::PlacementEvaluator placement;

  /// `seeds` = averaging seeds per data point (0 = default_seeds(scale)).
  ViewStack(const SessionOptions& opts, int seeds, core::ProfileStore& store);

  ViewStack(const ViewStack&) = delete;
  ViewStack& operator=(const ViewStack&) = delete;
};

class Session {
 public:
  struct Stats {
    std::uint64_t specs_run = 0;     // specs actually executed
    std::uint64_t specs_deduped = 0; // batch entries served by an identical spec
    std::uint64_t specs_failed = 0;  // executed specs that returned an Error
  };

  /// `store` (tests mostly) overrides the store choice; otherwise the
  /// session uses the process-global store when `opts` names the same cache
  /// directories as the environment (so benches/examples keep sharing one
  /// memo table per process) and a private store for custom directories.
  explicit Session(SessionOptions opts = SessionOptions::from_env(),
                   core::ProfileStore* store = nullptr);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Execute one spec (an artifact runs as the union of the generic specs
  /// it expands to): its whole plan goes to the store in one request over
  /// options().threads workers.
  /// Safe to call concurrently; every scenario is simulated at most once per
  /// store. Never throws and never aborts on a bad spec or a failed run:
  /// failures come back as Result::error with empty data sections.
  /// `store_work` (optional) receives the store counters of this call's own
  /// lookups (ProfileStore::run_batch) — what ppd reports per request.
  [[nodiscard]] Result run(const ExperimentSpec& spec,
                           core::ProfileStore::Stats* store_work = nullptr);

  /// Execute a batch: identical specs (by canonical JSON) run once; the
  /// unique specs' plans run as one union over a single pool of exactly
  /// options().threads workers (a key planned by several specs simulates
  /// once), and each spec is assembled from its own slice. Results are in
  /// input order and bit-identical to running the batch serially. Failures
  /// are isolated per spec: a spec fails with the lowest-index error in its
  /// own slice, and one poisoned spec yields one Result::error while every
  /// other spec's result is unaffected (bit-identical to running the good
  /// specs alone) — execution guards (budget, deadline) included.
  [[nodiscard]] std::vector<Result> run_many(const std::vector<ExperimentSpec>& specs);

  [[nodiscard]] core::ProfileStore& store() const { return *store_; }
  [[nodiscard]] const SessionOptions& options() const { return opts_; }
  [[nodiscard]] Stats stats() const;

 private:
  SessionOptions opts_;
  std::unique_ptr<core::ProfileStore> owned_store_;
  core::ProfileStore* store_;
  std::atomic<std::uint64_t> specs_run_{0};
  std::atomic<std::uint64_t> specs_deduped_{0};
  std::atomic<std::uint64_t> specs_failed_{0};
};

}  // namespace pp::api
