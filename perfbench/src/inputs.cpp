// Seeded input generation. The composition of every batch is fixed — the
// same kinds, flow types and sizes for every seed — so that run-to-run
// spread measures the platform, not the draw; the seed picks flow seeds,
// run seeds, cold salts and the batch order.
#include <array>
#include <utility>

#include "base/strings.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

/// splitmix64: a fixed, portable sequence for a given seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed ^ 0x9e3779b97f4a7c15ULL) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

// Structure-heavy flows (firewall rule scan, redundancy elimination,
// big-table synthetic) beside cache-friendly ones (IP lookup, monitoring).
enum FlowKind : int { kIp, kMon, kFw, kRe, kSyn, kFlowKinds };

std::string flow_json(int kind, std::uint64_t flow_seed) {
  static const char* const kNames[kFlowKinds] = {"IP", "MON", "FW", "RE", "SYN"};
  if (kind == kSyn) {
    return pp::strformat(R"({"type":"SYN","table_mb":16,"seed":%llu})",
                         static_cast<unsigned long long>(flow_seed));
  }
  return pp::strformat(R"({"type":"%s","seed":%llu})", kNames[kind],
                       static_cast<unsigned long long>(flow_seed));
}

/// Flow seeds: one per flow kind in `shared` (so specs overlap), a fresh
/// one per occurrence in `distinct` (so none do).
class FlowSeeds {
 public:
  FlowSeeds(Workload w, Rng& rng) : w_(w), rng_(rng) {
    for (auto& s : per_kind_) s = draw();
  }
  std::uint64_t operator()(int kind) { return w_ == Workload::kShared ? per_kind_[kind] : draw(); }

 private:
  std::uint64_t draw() { return 1 + rng_.below(1ULL << 30); }
  Workload w_;
  Rng& rng_;
  std::array<std::uint64_t, kFlowKinds> per_kind_{};
};

std::string flows_json(const std::vector<int>& kinds, FlowSeeds& seeds) {
  std::string out = "[";
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    if (i > 0) out += ",";
    out += flow_json(kinds[i], seeds(kinds[i]));
  }
  return out + "]";
}

std::string spec(const char* kind, const std::string& flows, const std::string& extra = {}) {
  return pp::strformat(R"({"version":1,"kind":"%s"%s,"flows":%s})", kind, extra.c_str(),
                       flows.c_str());
}

}  // namespace

bool parse_workload(const std::string& s, Workload& out) {
  if (s == "shared") {
    out = Workload::kShared;
  } else if (s == "distinct") {
    out = Workload::kDistinct;
  } else {
    return false;
  }
  return true;
}

const char* to_string(Workload w) { return w == Workload::kShared ? "shared" : "distinct"; }

void Outcome::fail(std::string_view why) { failures.emplace_back(why); }

std::uint64_t fnv1a(const std::string& s, std::uint64_t h) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

Inputs make_inputs(Workload w, std::uint64_t seed) {
  Inputs in;
  in.workload = w;
  in.seed = seed;
  Rng rng(seed);
  FlowSeeds seeds(w, rng);
  const auto run_seed = [&] {
    return pp::strformat(R"(,"seed":%llu)", static_cast<unsigned long long>(1 + rng.below(1000000)));
  };

  struct Entry {
    std::string text;
    int pair = -1;     // mix index for predict/corun pairs
    bool is_predict = false;
    bool gate = false;
  };
  std::vector<Entry> batch;
  batch.push_back({R"({"version":1,"kind":"solo","flows":[{"type":"IP"},{"type":"MON"},)"
                   R"({"type":"FW"},{"type":"RE"},{"type":"VPN"},{"type":"SYN","table_mb":16}]})",
                   -1, false, true});
  batch.push_back({spec("solo", flows_json({kIp, kMon, kFw, kRe, kSyn}, seeds))});
  batch.push_back({spec("sweep", flows_json({kFw}, seeds))});
  const std::vector<std::vector<int>> mixes = {{kFw, kMon}, {kRe, kIp}, {kSyn, kMon}};
  std::vector<std::string> coruns;
  for (std::size_t m = 0; m < mixes.size(); ++m) {
    // Predict and corun must ask about the very same flows.
    const std::string flows = flows_json(mixes[m], seeds);
    coruns.push_back(spec("corun", flows, run_seed()));
    batch.push_back({coruns.back(), static_cast<int>(m), false});
    batch.push_back({spec("predict", flows), static_cast<int>(m), true});
  }
  for (std::size_t m = 0; m < mixes.size(); ++m) {
    // `shared` repeats whole specs (run_many's canonical dedup collapses
    // them); `distinct` asks the same questions about fresh flows.
    batch.push_back({w == Workload::kShared ? coruns[m]
                                            : spec("corun", flows_json(mixes[m], seeds), run_seed())});
  }
  for (std::size_t i = batch.size(); i > 1; --i) {
    std::swap(batch[i - 1], batch[rng.below(i)]);
  }
  std::vector<std::size_t> predict_at(mixes.size()), corun_at(mixes.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    in.batch.push_back(batch[i].text);
    if (batch[i].gate) in.gate = i;
    if (batch[i].pair < 0) continue;
    (batch[i].is_predict ? predict_at : corun_at)[static_cast<std::size_t>(batch[i].pair)] = i;
  }
  for (std::size_t m = 0; m < mixes.size(); ++m) in.predict_corun.emplace_back(predict_at[m], corun_at[m]);

  for (const int k : {kIp, kMon, kFw, kRe}) in.warm.push_back(spec("solo", flows_json({k}, seeds)));
  in.warm.push_back(spec("corun", flows_json({kFw, kMon}, seeds), run_seed()));
  in.warm.push_back(spec("corun", flows_json({kRe, kIp}, seeds), run_seed()));
  return in;
}

std::string Inputs::cold_spec(std::size_t cold_index) const {
  static const int kKinds[] = {kIp, kMon, kFw, kRe};
  const std::uint64_t salt =
      1 + (fnv1a(pp::strformat("%zu", cold_index), seed * 0x100000001b3ULL) % (1ULL << 40));
  return pp::strformat(R"({"version":1,"kind":"solo","seed":%llu,"flows":[%s]})",
                       static_cast<unsigned long long>(salt),
                       flow_json(kKinds[cold_index % 4], 1).c_str());
}

}  // namespace perfbench
