#include "api/session.hpp"

#include <functional>
#include <iterator>
#include <span>
#include <unordered_map>

#include "api/artifacts.hpp"
#include "api/json.hpp"
#include "base/check.hpp"
#include "base/strings.hpp"
#include "base/table.hpp"

namespace pp::api {

// ------------------------------------------------------------------- stack

core::Testbed make_testbed(const SessionOptions& opts) {
  core::Testbed tb(opts.scale);
  sim::MachineConfig& m = tb.machine_config();
  m.fidelity = opts.fidelity;
  m.sample_period_max =
      resolve_sample_period_max(opts.fidelity, m.sample_period, opts.sample_period_max);
  tb.set_run_budget_ms(opts.run_budget_ms);
  tb.set_run_deadline(opts.wall_deadline);
  return tb;
}

ViewStack::ViewStack(const SessionOptions& opts, int seeds, core::ProfileStore& store)
    : tb(make_testbed(opts)),
      solo(tb, seeds > 0 ? seeds : default_seeds(opts.scale), store),
      sweep(solo),
      placement(solo) {}

// ----------------------------------------------------------------- session

namespace {

/// The store env-configured sessions share, so benches and examples keep
/// one memo table per process. Its directories come from the audited
/// environment snapshot (PROFILE_CACHE / PROFILE_CACHE_RO).
core::ProfileStore& global_store() {
  static core::ProfileStore store = [] {
    const SessionOptions env = SessionOptions::from_env();
    return core::ProfileStore(env.cache_dir, env.cache_dir_ro);
  }();
  return store;
}

}  // namespace

Session::Session(SessionOptions opts, core::ProfileStore* store) : opts_(std::move(opts)) {
  if (store != nullptr) {
    store_ = store;
    return;
  }
  const SessionOptions env = SessionOptions::from_env();
  if (opts_.cache_dir == env.cache_dir && opts_.cache_dir_ro == env.cache_dir_ro) {
    store_ = &global_store();
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

/// One spec's plan: its scenarios plus how to append their aggregate to the
/// Result's data sections. `head` carries the identity fields, and the
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
  res.studies.clear();
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

[[nodiscard]] SpecPlan plan_spec(const ExperimentSpec& spec, const SessionOptions& opts,
                                 core::ProfileStore& store, bool mix_only = false);

/// An artifact's plan: its parts' plans (the artifact table's row)
/// concatenated, so the whole figure is one store request; each part's
/// assembler appends its sections to the artifact's Result from its own
/// slice.
void plan_artifact(SpecPlan& p, const ExperimentSpec& spec, const SessionOptions& opts,
                   core::ProfileStore& store) {
  Result& res = p.head;
  const Artifact* artifact = find_artifact(spec.artifact);
  if (artifact == nullptr) {
    fail(res, StatusKind::kInvalidSpec, "session.run",
         "unknown artifact \"" + spec.artifact + "\"");
    return;
  }
  res.kind = artifact->kind;
  auto parts = std::make_shared<std::vector<SpecPlan>>();
  std::vector<core::Scenario> scenarios;
  std::vector<std::size_t> offset{0};
  for (const ArtifactPart& a : artifact->parts(spec, res.scale)) {
    SpecPlan part = plan_spec(a.spec, opts, store, a.mix_only);
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
  res.seeds = parts->front().head.seeds;
  p.assemble = [parts, offset](Result& r, const Runs& runs) {
    for (std::size_t i = 0; i < parts->size(); ++i) {
      (*parts)[i].assemble(r, Runs(runs.begin() + static_cast<std::ptrdiff_t>(offset[i]),
                                   runs.begin() + static_cast<std::ptrdiff_t>(offset[i + 1])));
    }
  };
}

[[nodiscard]] SpecPlan plan_spec(const ExperimentSpec& spec, const SessionOptions& opts,
                                 core::ProfileStore& store, bool mix_only) {
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
        // so the baselines no longer chain after the co-run. A mix-only
        // artifact part stops after the mix.
        p.scenarios = lower_spec(spec, v.tb);
        const std::size_t mix_runs = p.scenarios.size();
        for (std::size_t i = 0; i < (mix_only ? 0 : flows.size()); ++i) {
          std::vector<core::Scenario> solo = v.solo.plan(flows[i]);
          p.scenarios.insert(p.scenarios.end(), std::make_move_iterator(solo.begin()),
                             std::make_move_iterator(solo.end()));
        }
        p.assemble = [flows, n_seeds, mix_runs, mix_only](Result& r, const Runs& runs) {
          for (std::size_t i = 0; i < flows.size(); ++i) {
            std::vector<core::FlowMetrics> per_seed;
            per_seed.reserve(mix_runs);
            for (std::size_t s = 0; s < mix_runs; ++s) per_seed.push_back((*runs[s])[i]);
            FlowReport fr;
            fr.spec = flows[i];
            fr.metrics = core::merge_metrics(per_seed);
            if (!mix_only) {
              const std::size_t base = mix_runs + i * n_seeds;
              const core::FlowMetrics solo = core::SoloProfiler::merge_plan(
                  {runs.begin() + static_cast<std::ptrdiff_t>(base),
                   runs.begin() + static_cast<std::ptrdiff_t>(base + n_seeds)});
              fr.solo_pps = solo.pps();
              fr.drop_pct = core::drop_pct(solo, fr.metrics);
            }
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
          for (core::SweepResult& s : v.sweep.assemble_many(flows, mode, levels, runs)) {
            r.sweeps.push_back(std::move(s));
          }
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
          r.studies.push_back(v.placement.assemble(flows, *plan, runs));
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
  if (!studies.empty()) {
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
    // One study is the "placement" object; an artifact with several
    // (fig10) lists them, in part order, as "placements".
    const auto study_json = [&outcome](const core::PlacementStudy& st, const char* indent) {
      return strformat("{\n%s  \"placements_evaluated\": %d,\n", indent,
                       st.placements_evaluated) +
             indent + "  \"best\": " + outcome(st.best) + ",\n" + indent +
             "  \"worst\": " + outcome(st.worst) + "\n" + indent + "}";
    };
    if (studies.size() == 1) {
      j += ",\n  \"placement\": " + study_json(studies[0], "  ");
    } else {
      j += ",\n  \"placements\": [";
      for (std::size_t i = 0; i < studies.size(); ++i) {
        j += (i == 0 ? "\n    " : ",\n    ") + study_json(studies[i], "    ");
      }
      j += "\n  ]";
    }
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
  for (const core::PlacementStudy& st : r.studies) {
    row("best", st.best);
    row("worst", st.worst);
  }
  return t;
}

[[nodiscard]] TextTable result_table(const Result& r) {
  if (!r.sweeps.empty()) return sweeps_table(r);
  if (!r.studies.empty()) return placement_table(r);
  return flows_table(r);
}

}  // namespace

std::string Result::to_text() const {
  std::string head = name.empty() ? std::string(to_string(kind)) : name;
  if (error.has_value()) {
    return banner(head) + strformat("ERROR %s at %s: %s\n", pp::to_string(error->kind),
                                    error->site.c_str(), error->detail.c_str());
  }
  if (const Artifact* a = find_artifact(artifact); a != nullptr) return a->render(*this);
  head += strformat(" (%s, %s fidelity, %d seed%s)", pp::to_string(scale),
                    sim::to_string(fidelity), seeds, seeds == 1 ? "" : "s");
  std::string out = banner(head) + result_table(*this).to_text();
  for (const core::PlacementStudy& st : studies) {
    out += strformat("placements evaluated: %d\n", st.placements_evaluated);
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
