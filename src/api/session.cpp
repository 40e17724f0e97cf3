#include "api/session.hpp"

#include <functional>
#include <iterator>
#include <span>
#include <unordered_map>

#include "api/json.hpp"
#include "base/check.hpp"
#include "base/env.hpp"
#include "base/strings.hpp"
#include "base/table.hpp"
#include "core/workloads.hpp"

namespace pp::api {

// ------------------------------------------------------------------- stack

ViewStack::ViewStack(const SessionOptions& opts, int seeds, core::ProfileStore& store)
    : tb(opts.scale, 1),
      solo(tb, seeds > 0 ? seeds : default_seeds(opts.scale), &store),
      sweep(solo, 5, opts.threads),
      predictor(solo, sweep),
      placement(solo, opts.threads) {
  // The Testbed constructor already applied the environment defaults; make
  // the explicit options authoritative (they usually coincide — from_env()
  // is the default — so env-configured sessions stay bit-identical to the
  // historical path).
  sim::MachineConfig& m = tb.machine_config();
  m.fidelity = opts.fidelity;
  m.sample_period_max =
      resolve_sample_period_max(opts.fidelity, m.sample_period, opts.sample_period_max);
  tb.set_run_budget_ms(opts.run_budget_ms);
  tb.set_run_deadline(opts.wall_deadline);
}

// ----------------------------------------------------------------- session

Session::Session(SessionOptions opts, core::ProfileStore* store) : opts_(std::move(opts)) {
  if (store != nullptr) {
    store_ = store;
    return;
  }
  const SessionOptions env = SessionOptions::from_env();
  if (opts_.cache_dir == env.cache_dir && opts_.cache_dir_ro == env.cache_dir_ro) {
    store_ = &core::ProfileStore::global();
  } else {
    owned_store_ = std::make_unique<core::ProfileStore>(opts_.cache_dir, opts_.cache_dir_ro);
    store_ = owned_store_.get();
  }
}

Session::Stats Session::stats() const {
  Stats s;
  s.specs_run = specs_run_.load();
  s.specs_deduped = specs_deduped_.load();
  s.specs_failed = specs_failed_.load();
  return s;
}

namespace {

using Runs = std::vector<std::shared_ptr<const core::ScenarioResult>>;

/// One spec's plan: its scenarios plus how to aggregate their results into
/// the Result's data sections. `head` carries the identity fields, and the
/// error when planning itself failed (then there is nothing to run).
struct SpecPlan {
  Result head;
  std::unique_ptr<ViewStack> views;  // the views the assembler aggregates with
  std::vector<core::Scenario> scenarios;
  std::function<void(Result&, const Runs&)> assemble;
};

/// Every failure path funnels here: data sections are cleared so an error
/// Result is never half-filled, and the error is structured, not an abort.
void fail(Result& res, StatusKind kind, std::string site, std::string detail) {
  res.flows.clear();
  res.sweeps.clear();
  res.study.reset();
  res.error = Error{kind, std::move(site), std::move(detail)};
}

/// Run `body`, turning what it throws into a structured error on `res`.
template <typename Fn>
void guarded(Result& res, Fn&& body) {
  try {
    body();
  } catch (const StatusError& e) {
    fail(res, e.status().kind, e.status().site, e.status().detail);
  } catch (const std::exception& e) {
    fail(res, StatusKind::kInternal, "session.run", e.what());
  }
}

/// The generic specs an artifact stands for (empty = unknown artifact):
/// fig4 sweeps the five realistic flows under each of Figure 3's three
/// contention placements; table1 solo-profiles them over seeds_for(scale)
/// seeds. These are the schedules the bench binaries always ran, so the
/// artifacts keep their ProfileStore content keys.
[[nodiscard]] std::vector<ExperimentSpec> artifact_specs(const ExperimentSpec& spec,
                                                         Scale scale) {
  ExperimentSpec part = spec;
  part.name.clear();
  part.artifact.clear();
  part.flows.clear();
  for (const core::FlowType t : core::kRealisticTypes) part.flows.push_back(core::FlowSpec::of(t));
  std::vector<ExperimentSpec> out;
  if (spec.artifact == "fig4") {
    part.kind = ExperimentKind::kSweep;
    for (const core::ContentionMode m : {core::ContentionMode::kCacheOnly,
                                         core::ContentionMode::kMemCtrlOnly,
                                         core::ContentionMode::kBoth}) {
      part.mode = m;
      out.push_back(part);
    }
  } else if (spec.artifact == "table1") {
    part.kind = ExperimentKind::kSolo;
    if (part.seeds == 0) part.seeds = seeds_for(scale);
    out.push_back(part);
  }
  return out;
}

[[nodiscard]] SpecPlan plan_spec(const ExperimentSpec& spec, const SessionOptions& opts,
                                 core::ProfileStore& store);

/// An artifact's plan: its parts' plans concatenated, so the whole figure
/// is one store request; the assembler fills each part from its own slice
/// and appends the part's sections to the artifact's Result.
void plan_artifact(SpecPlan& p, const ExperimentSpec& spec, const SessionOptions& opts,
                   core::ProfileStore& store) {
  Result& res = p.head;
  const std::vector<ExperimentSpec> specs = artifact_specs(spec, res.scale);
  if (specs.empty()) {
    fail(res, StatusKind::kInvalidSpec, "session.run",
         "unknown artifact \"" + spec.artifact + "\"");
    return;
  }
  auto parts = std::make_shared<std::vector<SpecPlan>>();
  std::vector<core::Scenario> scenarios;
  std::vector<std::size_t> offset{0};
  for (const ExperimentSpec& s : specs) {
    SpecPlan part = plan_spec(s, opts, store);
    if (part.head.error.has_value()) {
      const Error& e = *part.head.error;
      fail(res, e.kind, e.site, e.detail);
      return;
    }
    scenarios.insert(scenarios.end(), std::make_move_iterator(part.scenarios.begin()),
                     std::make_move_iterator(part.scenarios.end()));
    part.scenarios.clear();
    offset.push_back(scenarios.size());
    parts->push_back(std::move(part));
  }
  p.scenarios = std::move(scenarios);
  res.kind = specs.front().kind;
  res.seeds = parts->front().head.seeds;
  p.assemble = [parts, offset](Result& r, const Runs& runs) {
    for (std::size_t i = 0; i < parts->size(); ++i) {
      Result part;
      (*parts)[i].assemble(part, Runs(runs.begin() + static_cast<std::ptrdiff_t>(offset[i]),
                                      runs.begin() + static_cast<std::ptrdiff_t>(offset[i + 1])));
      r.flows.insert(r.flows.end(), part.flows.begin(), part.flows.end());
      r.sweeps.insert(r.sweeps.end(), part.sweeps.begin(), part.sweeps.end());
    }
  };
}

[[nodiscard]] SpecPlan plan_spec(const ExperimentSpec& spec, const SessionOptions& opts,
                                 core::ProfileStore& store) {
  const SessionOptions eff = apply_spec(spec, opts);
  const int seeds = spec.seeds > 0 ? spec.seeds : default_seeds(eff.scale);

  SpecPlan p;
  Result& res = p.head;
  res.kind = spec.kind;
  res.name = spec.name;
  res.artifact = spec.artifact;
  res.scale = eff.scale;
  res.fidelity = eff.fidelity;
  res.seeds = seeds;

  if (!spec.artifact.empty()) {
    plan_artifact(p, spec, opts, store);
    return p;
  }
  // Parse normally rejects this; guard against hand-built specs without
  // taking the process down (this used to be a PP_CHECK abort).
  if (spec.flows.empty()) {
    fail(res, StatusKind::kInvalidSpec, "session.run", "spec has no flows");
    return p;
  }

  guarded(res, [&] {
    p.views = std::make_unique<ViewStack>(eff, spec.seeds, store);
    const ViewStack& v = *p.views;
    const std::vector<core::FlowSpec>& flows = spec.flows;
    const auto n_seeds = static_cast<std::size_t>(seeds);
    switch (spec.kind) {
      case ExperimentKind::kSolo: {
        p.scenarios = lower_spec(spec, v.tb);
        p.assemble = [flows, n_seeds](Result& r, const Runs& runs) {
          for (std::size_t i = 0; i < flows.size(); ++i) {
            FlowReport fr;
            fr.spec = flows[i];
            fr.metrics = core::SoloProfiler::merge_plan(
                {runs.begin() + static_cast<std::ptrdiff_t>(i * n_seeds),
                 runs.begin() + static_cast<std::ptrdiff_t>((i + 1) * n_seeds)});
            fr.solo_pps = fr.metrics.pps();
            r.flows.push_back(std::move(fr));
          }
        };
        break;
      }
      case ExperimentKind::kCorun: {
        // The mix's seed runs, then every flow's solo baseline — one plan,
        // so the baselines no longer chain after the co-run.
        p.scenarios = lower_spec(spec, v.tb);
        const std::size_t mix_runs = p.scenarios.size();
        for (const core::FlowSpec& f : flows) {
          std::vector<core::Scenario> solo = v.solo.plan(f);
          p.scenarios.insert(p.scenarios.end(), std::make_move_iterator(solo.begin()),
                             std::make_move_iterator(solo.end()));
        }
        p.assemble = [flows, n_seeds, mix_runs](Result& r, const Runs& runs) {
          for (std::size_t i = 0; i < flows.size(); ++i) {
            std::vector<core::FlowMetrics> per_seed;
            per_seed.reserve(mix_runs);
            for (std::size_t s = 0; s < mix_runs; ++s) per_seed.push_back((*runs[s])[i]);
            const std::size_t base = mix_runs + i * n_seeds;
            const core::FlowMetrics solo = core::SoloProfiler::merge_plan(
                {runs.begin() + static_cast<std::ptrdiff_t>(base),
                 runs.begin() + static_cast<std::ptrdiff_t>(base + n_seeds)});
            FlowReport fr;
            fr.spec = flows[i];
            fr.metrics = core::merge_metrics(per_seed);
            fr.solo_pps = solo.pps();
            fr.drop_pct = core::drop_pct(solo, fr.metrics);
            r.flows.push_back(std::move(fr));
          }
        };
        break;
      }
      case ExperimentKind::kSweep: {
        const core::ContentionMode mode = spec.mode;
        const auto levels = core::SweepProfiler::default_levels(eff.scale);
        p.scenarios = v.sweep.plan_many(flows, mode, levels);
        p.assemble = [&v, flows, mode, levels](Result& r, const Runs& runs) {
          r.sweeps = v.sweep.assemble_many(flows, mode, levels, runs);
        };
        break;
      }
      case ExperimentKind::kPredict: {
        // Section 4 verbatim, generalized to arbitrary FlowSpecs: solo
        // profiles + normal-placement SYN sweeps for every flow (the sweep
        // plan carries each flow's solo baseline), then each flow's
        // predicted drop is its curve read at the sum of its competitors'
        // solo refs/sec.
        const auto levels = core::SweepProfiler::default_levels(eff.scale);
        p.scenarios = v.sweep.plan_many(flows, core::ContentionMode::kBoth, levels);
        p.assemble = [&v, flows, levels](Result& r, const Runs& runs) {
          const auto sweeps =
              v.sweep.assemble_many(flows, core::ContentionMode::kBoth, levels, runs);
          std::vector<core::FlowMetrics> solos;
          solos.reserve(flows.size());
          for (std::size_t i = 0; i < flows.size(); ++i) {
            solos.push_back(v.sweep.solo_of(i, levels.size(), runs));
          }
          for (std::size_t i = 0; i < flows.size(); ++i) {
            double competing_refs = 0;
            for (std::size_t j = 0; j < flows.size(); ++j) {
              if (j != i) competing_refs += solos[j].refs_per_sec();
            }
            FlowReport fr;
            fr.spec = flows[i];
            fr.metrics = solos[i];
            fr.solo_pps = solos[i].pps();
            fr.drop_pct = sweeps[i].curve.drop_at(competing_refs);
            r.flows.push_back(std::move(fr));
          }
        };
        break;
      }
      case ExperimentKind::kPlacementSearch: {
        auto plan = std::make_shared<core::PlacementPlan>(v.placement.plan(flows));
        p.scenarios = std::move(plan->scenarios);
        p.assemble = [&v, flows, plan](Result& r, const Runs& runs) {
          r.study = v.placement.assemble(flows, *plan, runs);
        };
        break;
      }
    }
  });
  return p;
}

/// Fill `p`'s Result from its own slice of store outcomes: the lowest-index
/// error in the slice fails the spec, otherwise the plan's assembler runs.
[[nodiscard]] Result assemble(SpecPlan& p, std::span<const core::ProfileStore::Outcome> slice) {
  Result res = std::move(p.head);
  if (res.error.has_value()) return res;
  guarded(res, [&] { p.assemble(res, core::ProfileStore::results_or_throw(slice)); });
  return res;
}

}  // namespace

Result Session::run(const ExperimentSpec& spec, core::ProfileStore::Stats* store_work) {
  specs_run_.fetch_add(1, std::memory_order_relaxed);
  SpecPlan p = plan_spec(spec, opts_, *store_);
  std::vector<core::ProfileStore::Outcome> outcomes;
  if (!p.head.error.has_value()) {
    outcomes = store_->run_batch(p.scenarios, opts_.threads, store_work);
  }
  Result res = assemble(p, outcomes);
  if (!res.ok()) specs_failed_.fetch_add(1, std::memory_order_relaxed);
  return res;
}

std::vector<Result> Session::run_many(const std::vector<ExperimentSpec>& specs) {
  // Dedup on the canonical serialized form (equal specs <=> equal text):
  // each distinct spec is planned and assembled once; duplicates share its
  // Result.
  std::unordered_map<std::string, std::size_t> first;
  std::vector<std::size_t> unique_indices;
  std::vector<std::size_t> owner(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string key = specs[i].to_json();
    const auto [it, inserted] = first.try_emplace(key, unique_indices.size());
    if (inserted) {
      unique_indices.push_back(i);
    } else {
      specs_deduped_.fetch_add(1, std::memory_order_relaxed);
    }
    owner[i] = it->second;
  }

  // Plan every unique spec and concatenate the plans: spec u owns slots
  // [offset[u], offset[u + 1]) of the union. The store runs the union once
  // over one pool of opts_.threads workers, collapsing keys planned by
  // several specs (each slot keeps its own outcome, so guards stay
  // per-spec) — no pool nests inside another.
  std::vector<SpecPlan> plans;
  plans.reserve(unique_indices.size());
  std::vector<core::Scenario> all;
  std::vector<std::size_t> offset{0};
  for (const std::size_t i : unique_indices) {
    specs_run_.fetch_add(1, std::memory_order_relaxed);
    plans.push_back(plan_spec(specs[i], opts_, *store_));
    std::vector<core::Scenario>& own = plans.back().scenarios;
    all.insert(all.end(), std::make_move_iterator(own.begin()),
               std::make_move_iterator(own.end()));
    own.clear();
    offset.push_back(all.size());
  }
  const std::vector<core::ProfileStore::Outcome> outcomes =
      store_->run_batch(all, opts_.threads);
  all.clear();

  std::vector<Result> unique;
  unique.reserve(plans.size());
  for (std::size_t u = 0; u < plans.size(); ++u) {
    unique.push_back(assemble(
        plans[u], std::span(outcomes).subspan(offset[u], offset[u + 1] - offset[u])));
    if (!unique.back().ok()) specs_failed_.fetch_add(1, std::memory_order_relaxed);
  }

  std::vector<Result> out;
  out.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) out.push_back(unique[owner[i]]);
  return out;
}

// --------------------------------------------------------------- rendering

namespace {

[[nodiscard]] std::string flow_label(const core::FlowSpec& f) {
  std::string s = core::to_string(f.type);
  if (f.type == core::FlowType::kSyn || f.type == core::FlowType::kSynMax) {
    s += strformat("(%llu,%llu)", static_cast<unsigned long long>(f.syn.reads),
                   static_cast<unsigned long long>(f.syn.instr));
  }
  if (f.batch != 1) s += strformat(" b%d", f.batch);
  return s;
}

void metrics_json(std::string& j, const char* indent, const core::FlowMetrics& m) {
  j += strformat("%s\"core\": %d,\n", indent, m.core);
  j += strformat("%s\"seconds\": %s,\n", indent, json_double(m.seconds).c_str());
  j += strformat("%s\"packets\": %llu,\n", indent,
                 static_cast<unsigned long long>(m.delta.packets));
  j += strformat("%s\"drops\": %llu,\n", indent,
                 static_cast<unsigned long long>(m.delta.drops));
  j += strformat("%s\"mpps\": %s,\n", indent, json_double(m.pps() / 1e6).c_str());
  j += strformat("%s\"cpi\": %s,\n", indent, json_double(m.cpi()).c_str());
  j += strformat("%s\"l3_refs_per_sec_m\": %s,\n", indent,
                 json_double(m.refs_per_sec() / 1e6).c_str());
  j += strformat("%s\"l3_hits_per_sec_m\": %s,\n", indent,
                 json_double(m.hits_per_sec() / 1e6).c_str());
  j += strformat("%s\"cycles_per_packet\": %s,\n", indent,
                 json_double(m.cycles_per_packet()).c_str());
  j += strformat("%s\"l3_refs_per_packet\": %s,\n", indent,
                 json_double(m.refs_per_packet()).c_str());
  j += strformat("%s\"l3_misses_per_packet\": %s,\n", indent,
                 json_double(m.misses_per_packet()).c_str());
  j += strformat("%s\"l2_hits_per_packet\": %s", indent,
                 json_double(m.l2_hits_per_packet()).c_str());
}

}  // namespace

std::string Error::to_json() const {
  return strformat("{\"kind\": \"%s\", \"site\": %s, \"detail\": %s}", pp::to_string(kind),
                   json_quote(site).c_str(), json_quote(detail).c_str());
}

std::string Result::to_json() const {
  std::string j = "{\n";
  j += strformat("  \"version\": %d,\n", kSpecSchemaVersion);
  j += strformat("  \"kind\": \"%s\",\n", to_string(kind));
  if (!name.empty()) j += "  \"name\": " + json_quote(name) + ",\n";
  if (!artifact.empty()) j += "  \"artifact\": " + json_quote(artifact) + ",\n";
  if (error.has_value()) {
    j += "  \"error\": " + error->to_json() + "\n}\n";
    return j;
  }
  j += strformat("  \"scale\": \"%s\",\n", pp::to_string(scale));
  j += strformat("  \"fidelity\": \"%s\",\n", sim::to_string(fidelity));
  j += strformat("  \"seeds\": %d", seeds);
  if (!flows.empty()) {
    j += ",\n  \"flows\": [";
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const FlowReport& fr = flows[i];
      j += i == 0 ? "\n" : ",\n";
      j += strformat("    {\"type\": \"%s\",\n", core::to_string(fr.spec.type));
      metrics_json(j, "     ", fr.metrics);
      j += strformat(",\n     \"solo_mpps\": %s", json_double(fr.solo_pps / 1e6).c_str());
      if (kind != ExperimentKind::kSolo) {
        j += strformat(",\n     \"%s\": %s",
                       kind == ExperimentKind::kPredict ? "predicted_drop_pct" : "drop_pct",
                       json_double(fr.drop_pct).c_str());
      }
      j += "}";
    }
    j += "\n  ]";
  }
  if (!sweeps.empty()) {
    j += ",\n  \"sweeps\": [";
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
      const core::SweepResult& sr = sweeps[i];
      j += i == 0 ? "\n" : ",\n";
      j += strformat("    {\"target\": \"%s\", \"mode\": \"%s\", \"levels\": [",
                     core::to_string(sr.target), core::to_string(sr.mode));
      for (std::size_t l = 0; l < sr.levels.size(); ++l) {
        const core::SweepLevel& lvl = sr.levels[l];
        j += l == 0 ? "\n" : ",\n";
        j += strformat(
            "      {\"reads\": %llu, \"instr\": %llu, \"table_mb\": %llu, "
            "\"competing_refs_per_sec_m\": %s, \"drop_pct\": %s, \"target_mpps\": %s}",
            static_cast<unsigned long long>(lvl.syn.reads),
            static_cast<unsigned long long>(lvl.syn.instr),
            static_cast<unsigned long long>(lvl.syn.table_mb),
            json_double(lvl.competing_refs_per_sec / 1e6).c_str(),
            json_double(lvl.drop_pct).c_str(), json_double(lvl.target.pps() / 1e6).c_str());
      }
      j += "\n    ]}";
    }
    j += "\n  ]";
  }
  if (study.has_value()) {
    const auto outcome = [](const core::PlacementOutcome& o) {
      std::string s = "{\"sockets\": [";
      for (std::size_t i = 0; i < o.socket_of_flow.size(); ++i) {
        if (i > 0) s += ", ";
        s += strformat("%d", o.socket_of_flow[i]);
      }
      s += strformat("], \"avg_drop_pct\": %s, \"per_flow_drop_pct\": [",
                     json_double(o.avg_drop_pct).c_str());
      for (std::size_t i = 0; i < o.per_flow_drop.size(); ++i) {
        if (i > 0) s += ", ";
        s += json_double(o.per_flow_drop[i]);
      }
      s += "]}";
      return s;
    };
    j += strformat(",\n  \"placement\": {\n    \"placements_evaluated\": %d,\n",
                   study->placements_evaluated);
    j += "    \"best\": " + outcome(study->best) + ",\n";
    j += "    \"worst\": " + outcome(study->worst) + "\n  }";
  }
  j += "\n}\n";
  return j;
}

namespace {

[[nodiscard]] TextTable flows_table(const Result& r) {
  switch (r.kind) {
    case ExperimentKind::kSolo: {
      TextTable t({"Flow", "Mpps", "cycles per instruction", "L3 refs/sec (M)",
                   "L3 hits/sec (M)", "cycles per packet", "L3 refs per packet",
                   "L3 misses per packet", "L2 hits per packet"});
      for (const FlowReport& fr : r.flows) {
        const core::FlowMetrics& m = fr.metrics;
        t.add_numeric_row(flow_label(fr.spec),
                          {m.pps() / 1e6, m.cpi(), m.refs_per_sec() / 1e6,
                           m.hits_per_sec() / 1e6, m.cycles_per_packet(),
                           m.refs_per_packet(), m.misses_per_packet(),
                           m.l2_hits_per_packet()});
      }
      return t;
    }
    case ExperimentKind::kPredict: {
      TextTable t({"Flow", "solo Mpps", "predicted drop (%)", "predicted Mpps"});
      for (const FlowReport& fr : r.flows) {
        t.add_numeric_row(flow_label(fr.spec),
                          {fr.solo_pps / 1e6, fr.drop_pct,
                           fr.solo_pps / 1e6 * (1.0 - fr.drop_pct / 100.0)});
      }
      return t;
    }
    default: {
      TextTable t({"Flow", "core", "Mpps", "solo Mpps", "measured drop (%)",
                   "L3 refs/sec (M)", "cycles per packet"});
      for (const FlowReport& fr : r.flows) {
        const core::FlowMetrics& m = fr.metrics;
        t.add_row({flow_label(fr.spec), strformat("%d", m.core),
                   strformat("%.2f", m.pps() / 1e6), strformat("%.2f", fr.solo_pps / 1e6),
                   strformat("%.1f", fr.drop_pct), strformat("%.2f", m.refs_per_sec() / 1e6),
                   strformat("%.1f", m.cycles_per_packet())});
      }
      return t;
    }
  }
}

[[nodiscard]] TextTable sweeps_table(const Result& r) {
  TextTable t({"Target", "mode", "SYN reads", "SYN instr", "competing refs/sec (M)",
               "drop (%)", "target Mpps"});
  for (const core::SweepResult& sr : r.sweeps) {
    for (const core::SweepLevel& lvl : sr.levels) {
      t.add_row({core::to_string(sr.target), core::to_string(sr.mode),
                 strformat("%llu", static_cast<unsigned long long>(lvl.syn.reads)),
                 strformat("%llu", static_cast<unsigned long long>(lvl.syn.instr)),
                 strformat("%.2f", lvl.competing_refs_per_sec / 1e6),
                 strformat("%.1f", lvl.drop_pct),
                 strformat("%.2f", lvl.target.pps() / 1e6)});
    }
  }
  return t;
}

[[nodiscard]] TextTable placement_table(const Result& r) {
  TextTable t({"Placement", "avg drop (%)", "socket of flow 0..11"});
  const auto row = [&t](const char* label, const core::PlacementOutcome& o) {
    std::string sockets;
    for (const int s : o.socket_of_flow) sockets += strformat("%d", s);
    t.add_row({label, strformat("%.1f", o.avg_drop_pct), sockets});
  };
  row("best", r.study->best);
  row("worst", r.study->worst);
  return t;
}

[[nodiscard]] TextTable result_table(const Result& r) {
  if (!r.sweeps.empty()) return sweeps_table(r);
  if (r.study.has_value()) return placement_table(r);
  return flows_table(r);
}

// ---------------------------------------------------------------- artifacts
//
// The paper figures as their bench binaries have always printed them: a
// banner and scale line, then titled text/CSV blocks, all derived from the
// Result's sections.

[[nodiscard]] std::string figure_header(const char* figure, const char* description,
                                        Scale scale) {
  return banner(std::string(figure) + " — " + description) +
         strformat("scale=%s (set REPRO_SCALE=quick|standard|full)\n\n", pp::to_string(scale));
}

[[nodiscard]] std::string titled_block(const char* title, const std::string& text,
                                       const std::string& csv) {
  return std::string(title) + "\n" + text + "\nCSV:\n" + csv;
}

[[nodiscard]] const char* fig4_title(core::ContentionMode m) {
  switch (m) {
    case core::ContentionMode::kCacheOnly:
      return "Figure 4(a): contention for the L3 cache only";
    case core::ContentionMode::kMemCtrlOnly:
      return "Figure 4(b): contention for the memory controller only";
    case core::ContentionMode::kBoth:
      break;
  }
  return "Figure 4(c): contention for both resources";
}

/// Figure 4: one chart per contention placement, each realistic flow's drop
/// against the competing refs/sec (x = the mean over the flows, levels
/// aligned by index).
[[nodiscard]] std::string fig4_text(const Result& r) {
  std::string out = figure_header(
      "Figure 4", "drop vs competing L3 refs/sec, per contended resource", r.scale);
  for (std::size_t first = 0; first < r.sweeps.size();) {
    std::size_t last = first;
    std::vector<std::string> names;
    while (last < r.sweeps.size() && r.sweeps[last].mode == r.sweeps[first].mode) {
      names.emplace_back(core::to_string(r.sweeps[last++].target));
    }
    SeriesChart chart("competing L3 refs/sec (M)", names);
    for (std::size_t level = 0; level < r.sweeps[first].levels.size(); ++level) {
      double x = 0;
      std::vector<double> ys;
      for (std::size_t i = first; i < last; ++i) {
        x += r.sweeps[i].levels[level].competing_refs_per_sec / 1e6;
        ys.push_back(r.sweeps[i].levels[level].drop_pct);
      }
      chart.add_point(x / static_cast<double>(last - first), ys);
    }
    out += titled_block(fig4_title(r.sweeps[first].mode), chart.to_text(), chart.to_csv()) +
           "\n";
    first = last;
  }
  return out +
         "Paper's qualitative result to compare against: the cache dominates\n"
         "(MON up to ~32% in 4(a)) while the controller alone stays small\n"
         "(MON <= 6% in 4(b)); 4(c) is essentially 4(a) plus a few points.";
}

/// Table 1: the solo-run characteristics, measured and as the paper reports.
[[nodiscard]] std::string table1_text(const Result& r) {
  const std::vector<std::string> columns = {
      "Flow", "cycles per instruction", "L3 refs/sec (M)", "L3 hits/sec (M)",
      "cycles per packet", "L3 refs per packet", "L3 misses per packet", "L2 hits per packet"};
  TextTable measured(columns);
  for (const FlowReport& fr : r.flows) {
    const core::FlowMetrics& m = fr.metrics;
    measured.add_numeric_row(core::to_string(fr.spec.type),
                             {m.cpi(), m.refs_per_sec() / 1e6, m.hits_per_sec() / 1e6,
                              m.cycles_per_packet(), m.refs_per_packet(),
                              m.misses_per_packet(), m.l2_hits_per_packet()});
  }
  TextTable paper(columns);
  paper.add_numeric_row("IP", {1.33, 25.85, 20.21, 1813, 14.64, 3.19, 18.58});
  paper.add_numeric_row("MON", {1.43, 27.26, 21.32, 2278, 19.40, 4.23, 19.58});
  paper.add_numeric_row("FW", {1.63, 2.71, 2.13, 23907, 20.22, 4.29, 56.10});
  paper.add_numeric_row("RE", {1.18, 18.18, 5.52, 27433, 155.87, 108.51, 45.63});
  paper.add_numeric_row("VPN", {0.56, 9.45, 7.08, 8679, 25.63, 6.41, 30.71});
  return figure_header("Table 1", "solo-run characteristics of IP, MON, FW, RE, VPN", r.scale) +
         titled_block("Measured (this reproduction):", measured.to_text(), measured.to_csv()) +
         "\n" +
         titled_block("Paper (Dobrescu et al., Table 1), for comparison:", paper.to_text(),
                      paper.to_csv());
}

}  // namespace

std::string Result::to_text() const {
  std::string head = name.empty() ? std::string(to_string(kind)) : name;
  if (error.has_value()) {
    return banner(head) + strformat("ERROR %s at %s: %s\n", pp::to_string(error->kind),
                                    error->site.c_str(), error->detail.c_str());
  }
  if (artifact == "fig4") return fig4_text(*this);
  if (artifact == "table1") return table1_text(*this);
  head += strformat(" (%s, %s fidelity, %d seed%s)", pp::to_string(scale),
                    sim::to_string(fidelity), seeds, seeds == 1 ? "" : "s");
  std::string out = banner(head) + result_table(*this).to_text();
  if (study.has_value()) {
    out += strformat("placements evaluated: %d\n", study->placements_evaluated);
  }
  return out;
}

std::string Result::to_csv() const {
  if (error.has_value()) {
    TextTable t({"error", "site", "detail"});
    t.add_row({pp::to_string(error->kind), error->site, error->detail});
    return t.to_csv();
  }
  return result_table(*this).to_csv();
}

}  // namespace pp::api
