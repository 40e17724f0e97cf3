#include "api/artifacts.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

#include "api/session.hpp"
#include "base/strings.hpp"
#include "base/table.hpp"
#include "model/cache_model.hpp"

namespace pp::api {

std::string figure_header(std::string_view figure, std::string_view description, Scale scale) {
  return banner(std::string(figure) + " — " + std::string(description)) +
         strformat("scale=%s (set REPRO_SCALE=quick|standard|full)\n\n", pp::to_string(scale));
}

std::string titled_block(std::string_view title, const std::string& text,
                         const std::string& csv) {
  return std::string(title) + "\n" + text + "\nCSV:\n" + csv;
}

namespace {

using core::FlowMetrics;
using core::FlowSpec;
using core::FlowType;

constexpr std::size_t kNumRealistic = std::size(core::kRealisticTypes);

// ------------------------------------------------------------------- parts

/// The artifact spec stripped to what its parts inherit (scale, fidelity,
/// sample_period_max, seeds), as a `kind` spec over `flows`.
[[nodiscard]] ExperimentSpec part_of(const ExperimentSpec& spec, ExperimentKind kind,
                                     std::vector<FlowSpec> flows) {
  ExperimentSpec part = spec;
  part.kind = kind;
  part.name.clear();
  part.artifact.clear();
  part.flows = std::move(flows);
  return part;
}

[[nodiscard]] std::vector<FlowSpec> realistic_flows() {
  std::vector<FlowSpec> flows;
  for (const FlowType t : core::kRealisticTypes) flows.push_back(FlowSpec::of(t));
  return flows;
}

/// `flows`' sweeps under `mode`, then their solo profiles. The solo part
/// plans the sweeps' own baseline scenarios, so it simulates nothing extra.
void add_sweeps_and_solos(std::vector<ArtifactPart>& out, const ExperimentSpec& spec,
                          core::ContentionMode mode, std::vector<FlowSpec> flows) {
  ExperimentSpec sweep = part_of(spec, ExperimentKind::kSweep, flows);
  sweep.mode = mode;
  out.push_back({sweep});
  out.push_back({part_of(spec, ExperimentKind::kSolo, std::move(flows))});
}

/// The pairwise cells of Figures 2/5/8, one mix-only part per (target,
/// competitor, seed): the target on core 0 co-running with five flows of
/// the competitor type on its socket, everything NUMA-local. Seed s of a
/// cell runs at (s + 1) * seed_step; `seeds` is the spec's, else the scale
/// default every profiler uses.
void add_pairwise_cells(std::vector<ArtifactPart>& out, const ExperimentSpec& spec, int seeds,
                        std::uint64_t seed_step) {
  for (const FlowType target : core::kRealisticTypes) {
    for (const FlowType comp : core::kRealisticTypes) {
      std::vector<FlowSpec> mix{FlowSpec::of(target)};
      for (std::uint64_t i = 0; i < 5; ++i) mix.push_back(FlowSpec::of(comp, i + 2));
      for (int s = 0; s < seeds; ++s) {
        ExperimentSpec cell = part_of(spec, ExperimentKind::kCorun, mix);
        cell.seeds = 1;
        cell.seed = static_cast<std::uint64_t>(s + 1) * seed_step;
        out.push_back({cell, true});
      }
    }
  }
}

/// One pairwise cell out of the Result's flows (the six-flow mixes of its
/// seeds start at `first`): the target's metrics pooled over the seeds, and
/// the mean over the seeds of the competitors' summed measured refs/sec.
struct PairwiseCell {
  FlowMetrics target;
  double competing_refs_per_sec = 0;
};

[[nodiscard]] PairwiseCell pairwise_cell(const Result& r, std::size_t first, std::size_t seeds) {
  std::vector<FlowMetrics> pooled;
  double refs_sum = 0;
  for (std::size_t s = 0; s < seeds; ++s) {
    const std::size_t mix = first + s * 6;
    pooled.push_back(r.flows[mix].metrics);
    double refs = 0;
    for (std::size_t i = 1; i < 6; ++i) refs += r.flows[mix + i].metrics.refs_per_sec();
    refs_sum += refs;
  }
  return {core::merge_metrics(pooled), refs_sum / static_cast<double>(seeds)};
}

// ---------------------------------------------------------------- layout

/// A whole figure: the header, then its sections separated by blank lines.
[[nodiscard]] std::string figure(std::string_view name, std::string_view description,
                                 Scale scale, const std::vector<std::string>& sections) {
  std::string out = figure_header(name, description, scale);
  for (std::size_t i = 0; i < sections.size(); ++i) out += (i == 0 ? "" : "\n") + sections[i];
  return out;
}

template <typename Table>
[[nodiscard]] std::string block(std::string_view title, const Table& t) {
  return titled_block(title, t.to_text(), t.to_csv());
}

// --------------------------------------------------------------- Figure 2

std::vector<ArtifactPart> fig2_parts(const ExperimentSpec& spec, Scale scale) {
  std::vector<ArtifactPart> out{{part_of(spec, ExperimentKind::kSolo, realistic_flows())}};
  add_pairwise_cells(out, spec, spec.seeds > 0 ? spec.seeds : default_seeds(scale), 6151);
  return out;
}

/// Figure 2: (a) each target's drop against five flows of each type;
/// (b) the average per target type.
std::string fig2_text(const Result& r) {
  const auto seeds = static_cast<std::size_t>(r.seeds);
  TextTable a({"target", "5 IP co-runners", "5 MON co-runners", "5 FW co-runners",
               "5 RE co-runners", "5 VPN co-runners"});
  std::vector<double> avg;
  for (std::size_t t = 0; t < kNumRealistic; ++t) {
    const FlowMetrics& solo = r.flows[t].metrics;
    std::vector<double> row;
    double sum = 0;
    for (std::size_t c = 0; c < kNumRealistic; ++c) {
      const std::size_t first = kNumRealistic + (t * kNumRealistic + c) * seeds * 6;
      const double drop = core::drop_pct(solo, pairwise_cell(r, first, seeds).target);
      row.push_back(drop);
      sum += drop;
    }
    a.add_numeric_row(core::to_string(core::kRealisticTypes[t]), row, 1);
    avg.push_back(sum / 5.0);
  }
  TextTable b({"target", "average drop (%)", "paper (%)"});
  const double paper_avg[] = {18.81, 20.86, 4.65, 6.34, 9.84};
  for (std::size_t i = 0; i < kNumRealistic; ++i) {
    b.add_numeric_row(core::to_string(core::kRealisticTypes[i]), {avg[i], paper_avg[i]}, 2);
  }
  return figure("Figure 2", "contention-induced drop for all 25 pairwise scenarios", r.scale,
                {block("Figure 2(a): performance drop (%) per scenario:", a),
                 block("Figure 2(b): average drop per target type:", b)});
}

// --------------------------------------------------------------- Figure 4

/// Figure 3's contention placements, in the order of Figure 4's charts.
constexpr core::ContentionMode kFig4Modes[] = {core::ContentionMode::kCacheOnly,
                                               core::ContentionMode::kMemCtrlOnly,
                                               core::ContentionMode::kBoth};
constexpr const char* kFig4Titles[] = {
    "Figure 4(a): contention for the L3 cache only",
    "Figure 4(b): contention for the memory controller only",
    "Figure 4(c): contention for both resources"};

std::vector<ArtifactPart> fig4_parts(const ExperimentSpec& spec, Scale) {
  std::vector<ArtifactPart> out;
  for (const core::ContentionMode m : kFig4Modes) {
    ExperimentSpec sweep = part_of(spec, ExperimentKind::kSweep, realistic_flows());
    sweep.mode = m;
    out.push_back({sweep});
  }
  return out;
}

/// Figure 4: one chart per contention placement, each realistic flow's drop
/// against the competing refs/sec (x = the mean over the flows, levels
/// aligned by index).
std::string fig4_text(const Result& r) {
  std::vector<std::string> sections;
  for (std::size_t m = 0; m < std::size(kFig4Modes); ++m) {
    const std::size_t first = m * kNumRealistic;
    std::vector<std::string> names;
    for (std::size_t i = first; i < first + kNumRealistic; ++i) {
      names.emplace_back(core::to_string(r.sweeps[i].target));
    }
    SeriesChart chart("competing L3 refs/sec (M)", names);
    for (std::size_t level = 0; level < r.sweeps[first].levels.size(); ++level) {
      double x = 0;
      std::vector<double> ys;
      for (std::size_t i = first; i < first + kNumRealistic; ++i) {
        x += r.sweeps[i].levels[level].competing_refs_per_sec / 1e6;
        ys.push_back(r.sweeps[i].levels[level].drop_pct);
      }
      chart.add_point(x / static_cast<double>(kNumRealistic), ys);
    }
    sections.push_back(block(kFig4Titles[m], chart));
  }
  sections.emplace_back(
      "Paper's qualitative result to compare against: the cache dominates\n"
      "(MON up to ~32% in 4(a)) while the controller alone stays small\n"
      "(MON <= 6% in 4(b)); 4(c) is essentially 4(a) plus a few points.");
  return figure("Figure 4", "drop vs competing L3 refs/sec, per contended resource", r.scale,
                sections);
}

// --------------------------------------------------------------- Figure 5

std::vector<ArtifactPart> fig5_parts(const ExperimentSpec& spec, Scale) {
  std::vector<ArtifactPart> out;
  add_sweeps_and_solos(out, spec, core::ContentionMode::kBoth, realistic_flows());
  add_pairwise_cells(out, spec, 1, 1);
  return out;
}

/// Figure 5: each type's drop against SYN competitors (the curve) and
/// against realistic competitors (the points), on one refs/sec axis.
std::string fig5_text(const Result& r) {
  std::vector<std::string> charts;
  for (std::size_t t = 0; t < kNumRealistic; ++t) {
    const std::string target = core::to_string(core::kRealisticTypes[t]);
    const FlowMetrics& solo = r.flows[t].metrics;
    SeriesChart chart("competing L3 refs/sec (M)",
                      {target + "(S) synthetic", target + "(R) realistic"});
    for (const core::SweepLevel& l : r.sweeps[t].levels) {
      chart.add_point(l.competing_refs_per_sec / 1e6, {l.drop_pct, std::nan("")});
    }
    for (std::size_t c = 0; c < kNumRealistic; ++c) {
      const PairwiseCell cell = pairwise_cell(r, kNumRealistic + (t * kNumRealistic + c) * 6, 1);
      chart.add_point(cell.competing_refs_per_sec / 1e6,
                      {std::nan(""), core::drop_pct(solo, cell.target)});
    }
    charts.push_back(block("Figure 5, target " + target + ":", chart));
  }
  return figure("Figure 5", "SYN curves vs realistic-competitor points, same refs/sec axis",
                r.scale, charts);
}

// --------------------------------------------------------------- Figure 6

std::vector<ArtifactPart> table1_parts(const ExperimentSpec& spec, Scale scale) {
  ExperimentSpec solo = part_of(spec, ExperimentKind::kSolo, realistic_flows());
  if (solo.seeds == 0) solo.seeds = seeds_for(scale);
  return {{solo}};
}

/// Figure 6: Equation 1's worst-case drop (kappa = 1) against solo hits/sec
/// for three miss penalties, plus each realistic flow's measured point.
std::string fig6_text(const Result& r) {
  SeriesChart chart("solo cache hits/sec (M)", {"delta=60ns", "delta=43.75ns", "delta=30ns"});
  for (double h = 0; h <= 60e6; h += 2.5e6) {
    chart.add_point(h / 1e6, {model::worst_case_drop(h, 60e-9) * 100.0,
                              model::worst_case_drop(h, 43.75e-9) * 100.0,
                              model::worst_case_drop(h, 30e-9) * 100.0});
  }
  TextTable points({"Flow", "solo hits/sec (M)", "worst-case drop % (delta=43.75ns)",
                    "paper's annotated point (%)"});
  const double paper_points[] = {47, 48, 9, 19, 24};
  for (std::size_t i = 0; i < kNumRealistic; ++i) {
    const double h = r.flows[i].metrics.hits_per_sec();
    points.add_numeric_row(core::to_string(r.flows[i].spec.type),
                           {h / 1e6, model::worst_case_drop(h, 43.75e-9) * 100.0,
                            paper_points[i]},
                           1);
  }
  return figure("Figure 6", "Equation-1 worst-case drop vs solo hits/sec", r.scale,
                {block("Worst-case drop (%) vs solo hits/sec:", chart),
                 block("Measured per-app points:", points)});
}

// --------------------------------------------------------------- Figure 7

std::vector<ArtifactPart> fig7_parts(const ExperimentSpec& spec, Scale) {
  std::vector<ArtifactPart> out;
  add_sweeps_and_solos(out, spec, core::ContentionMode::kCacheOnly,
                       {FlowSpec::of(FlowType::kMon)});
  return out;
}

/// Hit-to-miss conversion rate of one counter domain, per packet, relative
/// to the solo run: kappa = 1 - hits_pp(corun) / hits_pp(solo).
[[nodiscard]] double conversion(const sim::Counters& solo, const FlowMetrics& solo_flow,
                                const sim::Counters& corun, const FlowMetrics& corun_flow) {
  const auto per_packet = [](const sim::Counters& c, const FlowMetrics& f) {
    return static_cast<double>(c.l3_hits()) / static_cast<double>(f.delta.packets);
  };
  const double solo_hits = per_packet(solo, solo_flow);
  if (solo_hits <= 0) return 0.0;
  const double kappa = 1.0 - per_packet(corun, corun_flow) / solo_hits;
  return std::max(0.0, std::min(1.0, kappa)) * 100.0;
}

[[nodiscard]] const sim::Counters* find_element(const FlowMetrics& m, const std::string& name) {
  const auto it = std::find_if(m.elements.begin(), m.elements.end(),
                               [&name](const core::ElementStat& e) { return e.name == name; });
  return it == m.elements.end() ? nullptr : &it->delta;
}

/// Figure 7: measured vs modeled hit-to-miss conversion of MON against SYN
/// competitors sharing only the cache, plus the measured conversion of
/// MON's individual functions.
std::string fig7_text(const Result& r) {
  const FlowMetrics& mon_solo = r.flows[0].metrics;
  // Appendix model parameters: the shared cache in lines; MON's cacheable
  // chunks approximated by its flow table (the uniformly accessed structure
  // the model describes best, as the paper notes).
  model::CacheModelParams params;
  params.cache_lines = sim::MachineConfig{}.l3.num_lines();
  params.target_chunks = static_cast<double>(core::WorkloadSizes::for_scale(r.scale).flow_buckets) /
                         2.0;  // 32B entries, 2/line
  params.target_hits_per_sec = mon_solo.hits_per_sec();

  SeriesChart chart("competing L3 refs/sec (M)",
                    {"MON (measured)", "MON (estimated)", "radix_ip_lookup", "flow_statistics",
                     "check_ip_header", "skb_recycle"});
  const std::pair<const char*, const char*> functions[] = {
      {"lookup", "radix_ip_lookup"},
      {"stats", "flow_statistics"},
      {"check", "check_ip_header"},
      {"skb_recycle", "skb_recycle"}};
  for (const core::SweepLevel& level : r.sweeps[0].levels) {
    params.competing_refs_per_sec = level.competing_refs_per_sec;
    std::vector<double> ys{conversion(mon_solo.delta, mon_solo, level.target.delta, level.target),
                           model::conversion_rate(params) * 100.0};
    for (const auto& fn : functions) {
      const sim::Counters* s = find_element(mon_solo, fn.first);
      const sim::Counters* c = find_element(level.target, fn.first);
      ys.push_back(s != nullptr && c != nullptr ? conversion(*s, mon_solo, *c, level.target)
                                                : std::nan(""));
    }
    chart.add_point(level.competing_refs_per_sec / 1e6, ys);
  }
  return figure("Figure 7", "measured vs modeled hit-to-miss conversion (MON)", r.scale,
                {block("Conversion rate (%) vs competing refs/sec:", chart),
                 "Expected shape (paper): sharp rise then plateau; flow_statistics\n"
                 "tracks the model (uniform access), check_ip_header and skb_recycle\n"
                 "stay near zero (per-packet-hot lines), radix_ip_lookup in between."});
}

// --------------------------------------------------------------- Figure 8

std::vector<ArtifactPart> fig8_parts(const ExperimentSpec& spec, Scale scale) {
  std::vector<ArtifactPart> out;
  add_sweeps_and_solos(out, spec, core::ContentionMode::kBoth, realistic_flows());
  add_pairwise_cells(out, spec, spec.seeds > 0 ? spec.seeds : default_seeds(scale), 2741);
  return out;
}

/// Figure 8: prediction error per pairwise scenario, (a) with competitors
/// assumed at their solo refs/sec, (b) with their measured refs/sec, and
/// (c) the average absolute error per target type.
std::string fig8_text(const Result& r) {
  const auto seeds = static_cast<std::size_t>(r.seeds);
  TextTable a({"target", "5 IP", "5 MON", "5 FW", "5 RE", "5 VPN"});
  TextTable b({"target", "5 IP", "5 MON", "5 FW", "5 RE", "5 VPN"});
  TextTable c({"target", "avg |error| (ours)", "avg |error| (perfect knowledge)", "paper ours",
               "paper perfect"});
  const double paper_ours[] = {1.96, 1.92, 0.44, 1.97, 1.00};
  const double paper_known[] = {1.39, 1.41, 0.35, 1.44, 0.69};
  for (std::size_t ti = 0; ti < kNumRealistic; ++ti) {
    const FlowMetrics& solo = r.flows[ti].metrics;
    const core::SweepCurve& curve = r.sweeps[ti].curve;
    std::vector<double> row_a;
    std::vector<double> row_b;
    double abs_a = 0;
    double abs_b = 0;
    for (std::size_t ci = 0; ci < kNumRealistic; ++ci) {
      const PairwiseCell cell =
          pairwise_cell(r, kNumRealistic + (ti * kNumRealistic + ci) * seeds * 6, seeds);
      const double actual = core::drop_pct(solo, cell.target);
      // The competitor-refs sum mirrors Session's predict assembler
      // (session.cpp, ExperimentKind::kPredict).
      const double comp_solo_refs = r.flows[ci].metrics.refs_per_sec();
      double solo_refs_sum = 0;
      for (int k = 0; k < 5; ++k) solo_refs_sum += comp_solo_refs;
      const double ours = curve.drop_at(solo_refs_sum);
      const double known = curve.drop_at(cell.competing_refs_per_sec);
      row_a.push_back(ours - actual);
      row_b.push_back(known - actual);
      abs_a += std::abs(ours - actual);
      abs_b += std::abs(known - actual);
    }
    const char* target = core::to_string(core::kRealisticTypes[ti]);
    a.add_numeric_row(target, row_a, 2);
    b.add_numeric_row(target, row_b, 2);
    c.add_numeric_row(target, {abs_a / 5.0, abs_b / 5.0, paper_ours[ti], paper_known[ti]}, 2);
  }
  return figure("Figure 8", "prediction error per pairwise scenario", r.scale,
                {block("Figure 8(a): signed error, our prediction (points):", a),
                 block("Figure 8(b): signed error, perfect knowledge of competition:", b),
                 block("Figure 8(c): average absolute error per target type:", c)});
}

// --------------------------------------------------------------- Figure 9

/// One socket's mix; both sockets carry the same combination.
constexpr FlowType kFig9Socket[] = {FlowType::kMon, FlowType::kMon, FlowType::kVpn,
                                    FlowType::kVpn, FlowType::kFw,  FlowType::kRe};
constexpr std::size_t kFig9PerSocket = std::size(kFig9Socket);

/// The socket mix as a predict spec (flow i's competitors are the other
/// five, summed in predict()'s order), then the 12-flow mix as one mix-only
/// run: flow k on core k with input seed k + 1.
std::vector<ArtifactPart> fig9_parts(const ExperimentSpec& spec, Scale) {
  std::vector<FlowSpec> socket;
  std::vector<FlowSpec> mix;
  for (const FlowType t : kFig9Socket) socket.push_back(FlowSpec::of(t));
  for (std::uint64_t k = 0; k < 2 * kFig9PerSocket; ++k) {
    mix.push_back(FlowSpec::of(kFig9Socket[k % kFig9PerSocket], k + 1));
  }
  ExperimentSpec run = part_of(spec, ExperimentKind::kCorun, std::move(mix));
  run.seeds = 1;
  return {{part_of(spec, ExperimentKind::kPredict, std::move(socket))}, {run, true}};
}

/// Figure 9: measured vs predicted drop of every flow in the mixed workload.
std::string fig9_text(const Result& r) {
  TextTable t({"flow", "measured drop (%)", "predicted drop (%)", "absolute error"});
  double max_err = 0;
  for (std::size_t k = 0; k < 2 * kFig9PerSocket; ++k) {
    const FlowReport& prediction = r.flows[k % kFig9PerSocket];
    const double actual = core::drop_pct(prediction.metrics, r.flows[kFig9PerSocket + k].metrics);
    const double err = std::abs(prediction.drop_pct - actual);
    max_err = std::max(max_err, err);
    t.add_numeric_row(std::string(core::to_string(prediction.spec.type)) + " (core " +
                          std::to_string(k) + ")",
                      {actual, prediction.drop_pct, err}, 2);
  }
  return figure("Figure 9", "mixed workload: 2 MON + 2 VPN + 1 FW + 1 RE per socket", r.scale,
                {block("Figure 9: measured vs predicted drop per flow:", t),
                 strformat("max absolute error: %.2f points (paper: 1.26)", max_err)});
}

// -------------------------------------------------------------- Figure 10

/// The 12-flow combinations, as (type, count) runs; input seeds number the
/// flows 1..12 in order.
const std::vector<std::pair<FlowType, int>> kFig10Combos[] = {
    {{FlowType::kMon, 6}, {FlowType::kFw, 6}},
    {{FlowType::kIp, 6}, {FlowType::kMon, 6}},
    {{FlowType::kMon, 6}, {FlowType::kRe, 6}},
    {{FlowType::kVpn, 6}, {FlowType::kFw, 6}},
    {{FlowType::kIp, 3}, {FlowType::kMon, 3}, {FlowType::kRe, 3}, {FlowType::kFw, 3}},
    {{FlowType::kSynMax, 6}, {FlowType::kFw, 6}},
};

[[nodiscard]] std::vector<FlowSpec> combo_flows(const std::vector<std::pair<FlowType, int>>& c) {
  std::vector<FlowSpec> flows;
  std::uint64_t seed = 1;
  for (const auto& [type, count] : c) {
    for (int i = 0; i < count; ++i) flows.push_back(FlowSpec::of(type, seed++));
  }
  return flows;
}

[[nodiscard]] std::string combo_name(const std::vector<std::pair<FlowType, int>>& c) {
  std::string name;
  for (const auto& [type, count] : c) {
    if (!name.empty()) name += " + ";
    name += std::to_string(count) + " " + core::to_string(type);
  }
  return name;
}

std::vector<ArtifactPart> fig10_parts(const ExperimentSpec& spec, Scale) {
  std::vector<ArtifactPart> out;
  for (const auto& c : kFig10Combos) {
    out.push_back({part_of(spec, ExperimentKind::kPlacementSearch, combo_flows(c))});
  }
  return out;
}

/// Figure 10: average drop under the best and worst flow-to-socket
/// placement of each combination, and per flow for 6 MON + 6 FW.
std::string fig10_text(const Result& r) {
  TextTable a({"combination", "best placement avg drop (%)", "worst placement avg drop (%)",
               "scheduling benefit (points)", "placements evaluated"});
  for (std::size_t i = 0; i < std::size(kFig10Combos); ++i) {
    const core::PlacementStudy& s = r.studies[i];
    a.add_row({combo_name(kFig10Combos[i]), strformat("%.2f", s.best.avg_drop_pct),
               strformat("%.2f", s.worst.avg_drop_pct),
               strformat("%.2f", s.worst.avg_drop_pct - s.best.avg_drop_pct),
               std::to_string(s.placements_evaluated)});
  }
  TextTable b({"flow", "best placement drop (%)", "worst placement drop (%)"});
  const std::vector<FlowSpec> mon_fw = combo_flows(kFig10Combos[0]);
  for (std::size_t i = 0; i < mon_fw.size(); ++i) {
    b.add_numeric_row(std::string(core::to_string(mon_fw[i].type)) + " #" + std::to_string(i),
                      {r.studies[0].best.per_flow_drop[i], r.studies[0].worst.per_flow_drop[i]},
                      1);
  }
  return figure("Figure 10", "best vs worst flow-to-core placement", r.scale,
                {block("Figure 10(a): average drop under best/worst placement:", a),
                 block("Figure 10(b): per-flow drop for the 6 MON + 6 FW combination:", b),
                 "Paper: worst = all 6 MON on one socket (each ~27%); best = 3+3 split\n"
                 "(each ~21%); overall gap ~2%. Adversarial SYN_MAX mix gap ~6%."});
}

// ---------------------------------------------------------------- Table 1

/// Table 1: the solo-run characteristics, measured and as the paper reports.
std::string table1_text(const Result& r) {
  const std::vector<std::string> columns = {
      "Flow", "cycles per instruction", "L3 refs/sec (M)", "L3 hits/sec (M)",
      "cycles per packet", "L3 refs per packet", "L3 misses per packet", "L2 hits per packet"};
  TextTable measured(columns);
  for (const FlowReport& fr : r.flows) {
    const FlowMetrics& m = fr.metrics;
    measured.add_numeric_row(core::to_string(fr.spec.type),
                             {m.cpi(), m.refs_per_sec() / 1e6, m.hits_per_sec() / 1e6,
                              m.cycles_per_packet(), m.refs_per_packet(), m.misses_per_packet(),
                              m.l2_hits_per_packet()});
  }
  TextTable paper(columns);
  paper.add_numeric_row("IP", {1.33, 25.85, 20.21, 1813, 14.64, 3.19, 18.58});
  paper.add_numeric_row("MON", {1.43, 27.26, 21.32, 2278, 19.40, 4.23, 19.58});
  paper.add_numeric_row("FW", {1.63, 2.71, 2.13, 23907, 20.22, 4.29, 56.10});
  paper.add_numeric_row("RE", {1.18, 18.18, 5.52, 27433, 155.87, 108.51, 45.63});
  paper.add_numeric_row("VPN", {0.56, 9.45, 7.08, 8679, 25.63, 6.41, 30.71});
  return figure("Table 1", "solo-run characteristics of IP, MON, FW, RE, VPN", r.scale,
                {block("Measured (this reproduction):", measured),
                 block("Paper (Dobrescu et al., Table 1), for comparison:", paper)});
}

const Artifact kArtifacts[] = {
    {"fig2", ExperimentKind::kCorun, fig2_parts, fig2_text},
    {"fig4", ExperimentKind::kSweep, fig4_parts, fig4_text},
    {"fig5", ExperimentKind::kSweep, fig5_parts, fig5_text},
    {"fig6", ExperimentKind::kSolo, table1_parts, fig6_text},
    {"fig7", ExperimentKind::kSweep, fig7_parts, fig7_text},
    {"fig8", ExperimentKind::kPredict, fig8_parts, fig8_text},
    {"fig9", ExperimentKind::kPredict, fig9_parts, fig9_text},
    {"fig10", ExperimentKind::kPlacementSearch, fig10_parts, fig10_text},
    {"table1", ExperimentKind::kSolo, table1_parts, table1_text},
};

}  // namespace

std::span<const Artifact> artifacts() { return kArtifacts; }

const Artifact* find_artifact(std::string_view name) {
  for (const Artifact& a : kArtifacts) {
    if (name == a.name) return &a;
  }
  return nullptr;
}

}  // namespace pp::api
