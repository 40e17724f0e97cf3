// Shared scaffolding for the bench binaries, which run at the scale
// REPRO_SCALE selects (quick | standard | full). Every paper figure and
// Table 1 is an artifact spec (src/api/artifacts.hpp): bench_fig2 ...
// bench_fig10 and bench_table1 are one-line mains over artifact_main, the
// Session call `ppctl run examples/specs/<name>.json` and ppd make. The
// hand-written benches print through header/print_table, the artifact
// renderers' figure layout.
#pragma once

#include <cstdio>

#include "api/artifacts.hpp"
#include "api/session.hpp"
#include "base/fault.hpp"
#include "base/table.hpp"
#include "core/profile_store.hpp"

namespace pp::bench {

inline void header(const char* artifact, const char* description, Scale scale) {
  std::printf("%s", api::figure_header(artifact, description, scale).c_str());
  std::fflush(stdout);
}

inline void print_table(const char* title, const TextTable& table) {
  std::printf("%s\n", api::titled_block(title, table.to_text(), table.to_csv()).c_str());
  std::fflush(stdout);
}

/// Store-stats footer, on stderr so stdout stays byte-comparable: CI greps
/// it for "simulated=0" on warm runs and for fault counters under PP_FAULTS.
inline void print_store_stats(const char* bench, const core::ProfileStore& store) {
  std::fprintf(stderr, "[%s] profile store: %s\n", bench, store.stats_line().c_str());
  if (FaultInjector::global().enabled()) {
    std::fprintf(stderr, "[%s] faults: %s\n", bench, FaultInjector::global().stats_line().c_str());
  }
}

/// Main of a paper-artifact bench: the artifact spec through api::Session —
/// the path `ppctl run` and ppd take for examples/specs/<artifact>.json —
/// printed as ppctl prints text. Exit 3 on a failed result, like ppctl.
inline int artifact_main(const char* artifact) {
  api::ExperimentSpec spec;
  spec.kind = api::find_artifact(artifact)->kind;
  spec.artifact = artifact;
  api::Session session;
  const api::Result r = session.run(spec);
  std::printf("%s\n", r.to_text().c_str());
  std::fflush(stdout);
  print_store_stats(artifact, session.store());
  return r.ok() ? 0 : 3;
}

}  // namespace pp::bench
