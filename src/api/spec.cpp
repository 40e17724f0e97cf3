#include "api/spec.hpp"

#include <cstring>

#include "api/artifacts.hpp"
#include "api/json.hpp"
#include "base/check.hpp"
#include "base/fault.hpp"
#include "base/strings.hpp"
#include "click/element.hpp"

namespace pp::api {

const char* to_string(ExperimentKind k) {
  switch (k) {
    case ExperimentKind::kSolo:
      return "solo";
    case ExperimentKind::kCorun:
      return "corun";
    case ExperimentKind::kSweep:
      return "sweep";
    case ExperimentKind::kPredict:
      return "predict";
    case ExperimentKind::kPlacementSearch:
      return "placement_search";
  }
  return "?";
}

namespace {

[[nodiscard]] bool kind_from_string(const std::string& s, ExperimentKind& out) {
  for (const ExperimentKind k :
       {ExperimentKind::kSolo, ExperimentKind::kCorun, ExperimentKind::kSweep,
        ExperimentKind::kPredict, ExperimentKind::kPlacementSearch}) {
    if (s == to_string(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

[[nodiscard]] bool scale_from_string(const std::string& s, Scale& out) {
  for (const Scale v : {Scale::kQuick, Scale::kStandard, Scale::kFull}) {
    if (s == pp::to_string(v)) {
      out = v;
      return true;
    }
  }
  return false;
}

[[nodiscard]] bool fidelity_from_string(const std::string& s, sim::SimFidelity& out) {
  for (const sim::SimFidelity v :
       {sim::SimFidelity::kExact, sim::SimFidelity::kSampled, sim::SimFidelity::kStreamed}) {
    if (s == sim::to_string(v)) {
      out = v;
      return true;
    }
  }
  return false;
}

[[nodiscard]] bool mode_from_string(const std::string& s, core::ContentionMode& out) {
  for (const core::ContentionMode v :
       {core::ContentionMode::kCacheOnly, core::ContentionMode::kMemCtrlOnly,
        core::ContentionMode::kBoth}) {
    if (s == core::to_string(v)) {
      out = v;
      return true;
    }
  }
  // Friendlier aliases for hand-written files.
  if (s == "cache") {
    out = core::ContentionMode::kCacheOnly;
    return true;
  }
  if (s == "memctrl") {
    out = core::ContentionMode::kMemCtrlOnly;
    return true;
  }
  if (s == "both") {
    out = core::ContentionMode::kBoth;
    return true;
  }
  return false;
}

constexpr core::SynParams kDefaultSyn{};

}  // namespace

bool flow_type_from_string(const std::string& s, core::FlowType& out) {
  for (const core::FlowType v :
       {core::FlowType::kIp, core::FlowType::kMon, core::FlowType::kFw, core::FlowType::kRe,
        core::FlowType::kVpn, core::FlowType::kSyn, core::FlowType::kSynMax}) {
    if (s == core::to_string(v)) {
      out = v;
      return true;
    }
  }
  return false;
}

// ------------------------------------------------------------- serialization

std::string ExperimentSpec::to_json() const {
  std::string j = "{\n";
  j += strformat("  \"version\": %d,\n", kSpecSchemaVersion);
  j += strformat("  \"kind\": \"%s\"", to_string(kind));
  if (!name.empty()) j += ",\n  \"name\": " + json_quote(name);
  if (!artifact.empty()) j += ",\n  \"artifact\": " + json_quote(artifact);
  if (scale.has_value()) j += strformat(",\n  \"scale\": \"%s\"", pp::to_string(*scale));
  if (fidelity.has_value()) {
    j += strformat(",\n  \"fidelity\": \"%s\"", sim::to_string(*fidelity));
  }
  if (sample_period_max.has_value()) {
    j += strformat(",\n  \"sample_period_max\": %u", *sample_period_max);
  }
  if (seeds != 0) j += strformat(",\n  \"seeds\": %d", seeds);
  if (seed != 0) {
    j += strformat(",\n  \"seed\": %llu", static_cast<unsigned long long>(seed));
  }
  if (warmup_ms.has_value()) j += ",\n  \"warmup_ms\": " + json_double(*warmup_ms);
  if (measure_ms.has_value()) j += ",\n  \"measure_ms\": " + json_double(*measure_ms);
  if (budget_ms.has_value()) j += ",\n  \"budget_ms\": " + json_double(*budget_ms);
  if (mode != core::ContentionMode::kBoth) {
    j += strformat(",\n  \"mode\": \"%s\"", core::to_string(mode));
  }
  if (flows.empty()) {
    // Artifact specs carry no flows; omit the key so the canonical form
    // re-parses (an explicit empty array would be rejected below).
    j += "\n}\n";
    return j;
  }
  j += ",\n  \"flows\": [";
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const core::FlowSpec& f = flows[i];
    j += i == 0 ? "\n" : ",\n";
    j += strformat("    {\"type\": \"%s\"", core::to_string(f.type));
    if (f.seed != 1) {
      j += strformat(", \"seed\": %llu", static_cast<unsigned long long>(f.seed));
    }
    if (f.batch != 1) j += strformat(", \"batch\": %d", f.batch);
    const bool is_syn = f.type == core::FlowType::kSyn || f.type == core::FlowType::kSynMax;
    if (is_syn || !(f.syn == kDefaultSyn)) {
      j += strformat(", \"reads\": %llu, \"instr\": %llu, \"table_mb\": %llu",
                     static_cast<unsigned long long>(f.syn.reads),
                     static_cast<unsigned long long>(f.syn.instr),
                     static_cast<unsigned long long>(f.syn.table_mb));
    }
    j += "}";
  }
  j += "\n  ]";
  if (!placement.empty()) {
    j += ",\n  \"placement\": [";
    for (std::size_t i = 0; i < placement.size(); ++i) {
      j += i == 0 ? "\n" : ",\n";
      j += strformat("    {\"core\": %d, \"data_domain\": %d}", placement[i].core,
                     placement[i].data_domain);
    }
    j += "\n  ]";
  }
  j += "\n}\n";
  return j;
}

// ------------------------------------------------------------------- parsing

namespace {

struct SpecReader {
  std::string error;

  [[nodiscard]] bool fail(const std::string& msg) {
    if (error.empty()) error = msg;
    return false;
  }

  [[nodiscard]] bool read_u64(const Json& v, const char* field, std::uint64_t& out,
                              std::uint64_t lo, std::uint64_t hi) {
    std::uint64_t parsed = 0;
    if (!v.as_u64(parsed) || parsed < lo || parsed > hi) {
      return fail(strformat("\"%s\" must be an integer in [%llu, %llu]", field,
                            static_cast<unsigned long long>(lo),
                            static_cast<unsigned long long>(hi)));
    }
    out = parsed;
    return true;
  }

  [[nodiscard]] bool read_flow(const Json& v, core::FlowSpec& out) {
    if (!v.is_object()) return fail("\"flows\" entries must be objects");
    bool has_type = false;
    for (const Json::Member& m : v.members()) {
      const std::string& key = m.first;
      const Json& val = m.second;
      if (key == "type") {
        if (!val.is_string() || !flow_type_from_string(val.as_string(), out.type)) {
          return fail("flow \"type\" must be one of IP|MON|FW|RE|VPN|SYN|SYN_MAX");
        }
        has_type = true;
      } else if (key == "seed") {
        if (!read_u64(val, "flow seed", out.seed, 0, ~std::uint64_t{0})) return false;
      } else if (key == "batch") {
        std::uint64_t b = 0;
        if (!read_u64(val, "flow batch", b, 1,
                      static_cast<std::uint64_t>(click::kMaxBatch))) {
          return false;
        }
        out.batch = static_cast<int>(b);
      } else if (key == "reads") {
        if (!read_u64(val, "flow reads", out.syn.reads, 1, 4096)) return false;
      } else if (key == "instr") {
        if (!read_u64(val, "flow instr", out.syn.instr, 0, 1'000'000)) return false;
      } else if (key == "table_mb") {
        if (!read_u64(val, "flow table_mb", out.syn.table_mb, 1, 1024)) return false;
      } else {
        return fail("unknown flow field \"" + key + "\"");
      }
    }
    if (!has_type) return fail("every flow needs a \"type\"");
    return true;
  }

  [[nodiscard]] bool read_placement(const Json& v, core::FlowPlacement& out) {
    if (!v.is_object()) return fail("\"placement\" entries must be objects");
    bool has_core = false;
    for (const Json::Member& m : v.members()) {
      const std::string& key = m.first;
      std::int64_t parsed = 0;
      if (!m.second.as_i64(parsed)) {
        return fail("placement \"" + key + "\" must be an integer");
      }
      if (key == "core") {
        // Machine geometry is not spec-configurable (the simulated platform
        // is the paper's fixed 2 x 6 testbed), so core ids validate against
        // the default config here and again at run time.
        if (parsed < 0 || parsed >= sim::MachineConfig{}.num_cores()) {
          return fail("placement \"core\" out of range");
        }
        out.core = static_cast<int>(parsed);
        has_core = true;
      } else if (key == "data_domain") {
        if (parsed < -1 || parsed >= sim::MachineConfig{}.sockets) {
          return fail("placement \"data_domain\" must be -1 (local) or a socket id");
        }
        out.data_domain = static_cast<int>(parsed);
      } else {
        return fail("unknown placement field \"" + key + "\"");
      }
    }
    if (!has_core) return fail("every placement needs a \"core\"");
    return true;
  }
};

}  // namespace

std::optional<ExperimentSpec> ExperimentSpec::parse(const std::string& json,
                                                    std::string* error) {
  const auto fail = [error](const std::string& msg) -> std::optional<ExperimentSpec> {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };

  if (pp::fault("spec.parse")) return fail("injected spec parse failure (PP_FAULTS)");

  std::string jerr;
  const std::optional<Json> doc = Json::parse(json, &jerr);
  if (!doc.has_value()) return fail("spec is not valid JSON: " + jerr);
  if (!doc->is_object()) return fail("spec must be a JSON object");

  SpecReader r;
  ExperimentSpec spec;
  bool has_version = false;
  bool has_kind = false;
  bool has_flows = false;
  bool has_mode = false;
  bool has_seed = false;

  for (const Json::Member& m : doc->members()) {
    const std::string& key = m.first;
    const Json& v = m.second;
    if (key == "version") {
      std::uint64_t ver = 0;
      if (!v.as_u64(ver) || ver != static_cast<std::uint64_t>(kSpecSchemaVersion)) {
        return fail(strformat("unsupported spec \"version\" (this build understands %d)",
                              kSpecSchemaVersion));
      }
      has_version = true;
    } else if (key == "kind") {
      if (!v.is_string() || !kind_from_string(v.as_string(), spec.kind)) {
        return fail("\"kind\" must be one of solo|corun|sweep|predict|placement_search");
      }
      has_kind = true;
    } else if (key == "name") {
      if (!v.is_string()) return fail("\"name\" must be a string");
      spec.name = v.as_string();
    } else if (key == "artifact") {
      if (!v.is_string()) return fail("\"artifact\" must be a string");
      spec.artifact = v.as_string();
    } else if (key == "scale") {
      Scale s = Scale::kStandard;
      if (!v.is_string() || !scale_from_string(v.as_string(), s)) {
        return fail("\"scale\" must be one of quick|standard|full");
      }
      spec.scale = s;
    } else if (key == "fidelity") {
      sim::SimFidelity f = sim::SimFidelity::kExact;
      if (!v.is_string() || !fidelity_from_string(v.as_string(), f)) {
        return fail("\"fidelity\" must be one of exact|sampled|streamed");
      }
      spec.fidelity = f;
    } else if (key == "sample_period_max") {
      std::uint64_t p = 0;
      if (!r.read_u64(v, "sample_period_max", p, 2, 64) || (p & (p - 1)) != 0) {
        return fail("\"sample_period_max\" must be a power of two in [2, 64]");
      }
      spec.sample_period_max = static_cast<std::uint32_t>(p);
    } else if (key == "seeds") {
      std::uint64_t s = 0;
      if (!r.read_u64(v, "seeds", s, 1, 16)) return fail(r.error);
      spec.seeds = static_cast<int>(s);
    } else if (key == "seed") {
      if (!r.read_u64(v, "seed", spec.seed, 1, ~std::uint64_t{0})) return fail(r.error);
      has_seed = true;
    } else if (key == "warmup_ms") {
      if (!v.is_number() || v.as_double() < 0 || v.as_double() > 1000) {
        return fail("\"warmup_ms\" must be a number in [0, 1000]");
      }
      spec.warmup_ms = v.as_double();
    } else if (key == "measure_ms") {
      if (!v.is_number() || v.as_double() < 0 || v.as_double() > 1000) {
        return fail("\"measure_ms\" must be a number in [0, 1000]");
      }
      spec.measure_ms = v.as_double();
    } else if (key == "budget_ms") {
      if (!v.is_number() || !(v.as_double() > 0) || v.as_double() > 10000) {
        return fail("\"budget_ms\" must be a number in (0, 10000]");
      }
      spec.budget_ms = v.as_double();
    } else if (key == "mode") {
      if (!v.is_string() || !mode_from_string(v.as_string(), spec.mode)) {
        return fail("\"mode\" must be one of cache-only|memctrl-only|cache+memctrl "
                    "(aliases: cache, memctrl, both)");
      }
      has_mode = true;
    } else if (key == "flows") {
      if (!v.is_array()) return fail("\"flows\" must be an array");
      for (const Json& item : v.items()) {
        core::FlowSpec f;
        if (!r.read_flow(item, f)) return fail(r.error);
        spec.flows.push_back(f);
      }
      has_flows = true;
    } else if (key == "placement") {
      if (!v.is_array()) return fail("\"placement\" must be an array");
      for (const Json& item : v.items()) {
        core::FlowPlacement p;
        if (!r.read_placement(item, p)) return fail(r.error);
        spec.placement.push_back(p);
      }
    } else {
      return fail("unknown spec field \"" + key + "\"");
    }
  }

  if (!has_version) return fail("spec needs a \"version\" field");
  if (!has_kind) return fail("spec needs a \"kind\" field");

  // ------------------------------------------------- cross-field validation
  if (!spec.artifact.empty()) {
    const Artifact* artifact = find_artifact(spec.artifact);
    if (artifact == nullptr) {
      std::string known;
      for (const Artifact& a : artifacts()) known += std::string(", ") + a.name;
      return fail("unknown artifact \"" + spec.artifact + "\" (known: " + known.substr(2) + ")");
    }
    if (spec.kind != artifact->kind) {
      return fail("artifact \"" + spec.artifact + "\" is a " + to_string(artifact->kind) +
                  " spec, not " + to_string(spec.kind));
    }
    if (!spec.flows.empty() || !spec.placement.empty() || has_mode || has_seed ||
        spec.warmup_ms.has_value() || spec.measure_ms.has_value() ||
        spec.budget_ms.has_value()) {
      return fail("artifact specs configure only scale/fidelity/sample_period_max/seeds");
    }
    return spec;
  }

  if (!has_flows || spec.flows.empty()) return fail("spec needs a non-empty \"flows\" array");

  const bool is_mix_kind =
      spec.kind == ExperimentKind::kSolo || spec.kind == ExperimentKind::kCorun;
  if (!spec.placement.empty()) {
    if (spec.kind != ExperimentKind::kCorun) {
      return fail("\"placement\" applies only to corun specs");
    }
    if (spec.placement.size() != spec.flows.size()) {
      return fail("\"placement\" must be parallel to \"flows\"");
    }
  }
  if (has_mode && spec.kind != ExperimentKind::kSweep) {
    return fail("\"mode\" applies only to sweep specs");
  }
  if (!is_mix_kind) {
    if (spec.warmup_ms.has_value() || spec.measure_ms.has_value()) {
      return fail("\"warmup_ms\"/\"measure_ms\" apply only to solo/corun specs (sweep, "
                  "predict and placement_search use the scale's standard windows)");
    }
    if (has_seed) {
      return fail("\"seed\" applies only to solo/corun specs (the other kinds use the "
                  "profilers' fixed seed schedules)");
    }
  }
  if (spec.kind == ExperimentKind::kCorun &&
      spec.flows.size() > static_cast<std::size_t>(sim::MachineConfig{}.num_cores())) {
    return fail("corun specs fit at most one flow per core");
  }
  if (spec.kind == ExperimentKind::kPlacementSearch &&
      spec.flows.size() != static_cast<std::size_t>(sim::MachineConfig{}.num_cores())) {
    return fail(strformat("placement_search needs exactly %d flows (one per core)",
                          sim::MachineConfig{}.num_cores()));
  }
  return spec;
}

// ------------------------------------------------------------------ lowering

SessionOptions apply_spec(const ExperimentSpec& spec, SessionOptions base) {
  if (spec.scale.has_value()) base.scale = *spec.scale;
  if (spec.fidelity.has_value()) base.fidelity = *spec.fidelity;
  if (spec.sample_period_max.has_value()) base.sample_period_max = spec.sample_period_max;
  if (spec.budget_ms.has_value()) base.run_budget_ms = *spec.budget_ms;
  return base;
}

std::vector<core::Scenario> lower_spec(const ExperimentSpec& spec, const core::Testbed& tb) {
  std::vector<core::Scenario> out;
  const int seeds = spec.seeds > 0 ? spec.seeds : default_seeds(tb.scale());
  if (spec.kind == ExperimentKind::kSolo) {
    // With no explicit seed, this is exactly SoloProfiler::plan's schedule,
    // so the facade and the C++ profiling path hit the same ProfileStore
    // content keys (and Table-1-style profiles are shared). An explicit
    // seed opts out of that sharing and runs base + i like corun.
    for (const core::FlowSpec& f : spec.flows) {
      for (int s = 0; s < seeds; ++s) {
        const std::uint64_t run_seed =
            spec.seed == 0 ? static_cast<std::uint64_t>(s + 1) * 7919
                           : spec.seed + static_cast<std::uint64_t>(s);
        core::RunConfig cfg = tb.configure({f}, run_seed);
        if (spec.warmup_ms.has_value()) cfg.warmup_ms = *spec.warmup_ms;
        if (spec.measure_ms.has_value()) cfg.measure_ms = *spec.measure_ms;
        out.push_back(core::Scenario::of(tb, cfg));
      }
    }
    return out;
  }
  PP_CHECK(spec.kind == ExperimentKind::kCorun);
  const std::uint64_t base_seed = spec.seed == 0 ? 1 : spec.seed;
  for (int s = 0; s < seeds; ++s) {
    core::RunConfig cfg = tb.configure(spec.flows, base_seed + static_cast<std::uint64_t>(s));
    if (!spec.placement.empty()) cfg.placement = spec.placement;
    if (spec.warmup_ms.has_value()) cfg.warmup_ms = *spec.warmup_ms;
    if (spec.measure_ms.has_value()) cfg.measure_ms = *spec.measure_ms;
    out.push_back(core::Scenario::of(tb, cfg));
  }
  return out;
}

}  // namespace pp::api
