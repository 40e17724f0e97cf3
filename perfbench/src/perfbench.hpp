// The repository benchmark: one process runs every phase of a workload —
// the offline cold spec batch, the warm serving ladder and the mixed
// warm/cold serving run — and prints every metric by name with its unit.
// Workload names, metric names and the layer each per-layer metric belongs
// to are documented in METRICS.md.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// How much work the workload's inputs share. `shared` repeats flow seeds
/// and whole specs so every dedup layer has something to collapse;
/// `distinct` gives every flow occurrence its own seed so none does.
enum class Workload : std::uint8_t { kShared, kDistinct };

[[nodiscard]] bool parse_workload(const std::string& s, Workload& out);
[[nodiscard]] const char* to_string(Workload w);

/// Everything the program is fed, generated from the workload seed.
struct Inputs {
  Workload workload = Workload::kShared;
  std::uint64_t seed = 1;

  /// Offline cold batch: spec JSON texts (solo, corun, sweep and predict).
  std::vector<std::string> batch;
  /// Batch index of the solo spec the drift gate applies to: every
  /// realistic flow type plus SYN at its default seeds, the configurations
  /// the 3.5% gate of docs/simulation_modes.md is stated for.
  std::size_t gate = 0;
  /// (predict, corun) batch indices asking about the same mix.
  std::vector<std::pair<std::size_t, std::size_t>> predict_corun;
  /// Serving warm set: specs the store is prewarmed with.
  std::vector<std::string> warm;
  /// Serving formats, rotated by request index.
  std::vector<std::string> formats = {"text", "json", "csv"};

  /// A spec no earlier request has asked for: salted through the keyed
  /// `seed` field, derived from the workload seed and the cold index.
  [[nodiscard]] std::string cold_spec(std::size_t cold_index) const;
  /// In `shared`, each cold spec is sent twice a few ms apart.
  [[nodiscard]] bool repeat_cold() const { return workload == Workload::kShared; }
};

[[nodiscard]] Inputs make_inputs(Workload w, std::uint64_t seed);

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// What a run accumulates: output-check failures, request accounting and
/// the two metric sets (end-to-end, and per-layer as reported with
/// --trace 1).
struct Outcome {
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics e2e;
  Metrics layer;

  void fail(std::string_view why);
  [[nodiscard]] bool correct() const { return failures.empty(); }
};

/// FNV-1a over a string, chained through `h` (result digests).
[[nodiscard]] std::uint64_t fnv1a(const std::string& s, std::uint64_t h = 1469598103934665603ULL);

/// Host threads and client connections the benchmark may use at once.
inline constexpr int kMaxThreads = 4;

// Phases (offline.cpp, serve.cpp, layers.cpp, traced.cpp). Each phase sizes
// its work to `budget_s` of wall time where the work is divisible.
void run_offline(const Inputs& in, double budget_s, Outcome& out);

class Rig;  // an in-process api::Server with a prewarmed on-disk store
struct RigDeleter {
  void operator()(Rig* r) const;
};
using RigPtr = std::unique_ptr<Rig, RigDeleter>;
/// Start a server (UDS + TCP) over a fresh cache directory under `dir` and
/// prewarm it with the warm set. Null (with `out` failed) on error.
[[nodiscard]] RigPtr set_up_rig(const Inputs& in, const std::string& dir, Outcome& out);
/// One chunk of the warm reference run (main spreads several over the run).
void run_warm_reference(Rig& rig, const Inputs& in, double budget_s, Outcome& out);
/// The warm offered-rate ladder (serve.max_rate_rps).
void run_ladder(Rig& rig, const Inputs& in, Outcome& out);
void run_mixed(Rig& rig, const Inputs& in, double budget_s, Outcome& out);
/// The serving metrics gathered over all serving phases, and the
/// byte-identity check of the sampled replies.
void report_rig(Rig& rig, Outcome& out);

void run_layer_probes(const Inputs& in, const std::string& dir, Outcome& out);
void run_traced(const Inputs& in, const std::string& dir, const std::string& trace_path,
                Outcome& out);

}  // namespace perfbench
