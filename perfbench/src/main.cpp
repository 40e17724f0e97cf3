// perfbench: the repository benchmark.
//
//   perfbench --workload shared|distinct --seed N --seconds S --trace 0|1 --dir DIR
//
// One run sets up the serving rig three times (setup_s is the median), then
// spends its S seconds on the offline cold batch, the warm serving reference
// run and ladder, and the mixed warm/cold serving run. With --trace 1 it also runs the
// per-layer probes and the span-traced request decomposition, and reports
// per-layer metrics instead of end-to-end ones. Every metric is printed by
// name with its unit; the last stdout line is one JSON object. The exit
// code is non-zero when any output check failed.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "perfbench.hpp"
#include "report.hpp"

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point g_process_start = Clock::now();

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return std::nan("");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload shared|distinct --seed N --seconds S --trace 0|1 "
               "[--dir DIR]\n");
  return 2;
}

void print_result(const perfbench::Outcome& out, const perfbench::Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              out.correct() ? "true" : "false", static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  bool first = true;
  for (const auto& [name, metric] : m) {
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", name.c_str());
    if (std::isfinite(metric.value)) {
      std::printf("%.17g", metric.value);
    } else {
      std::printf("null");
    }
    std::printf(", \"unit\": \"%s\"}", metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Workload workload = Workload::kShared;
  bool have_workload = false;
  std::uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  std::string dir = "perfbench-run";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      if (!parse_workload(v, workload)) return usage();
      have_workload = true;
    } else if (flag == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--dir") {
      dir = v;
    } else {
      return usage();
    }
  }
  if (!have_workload || argc % 2 == 0 || !(seconds > 0)) return usage();

  const Inputs in = make_inputs(workload, seed);
  Outcome out;
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n", to_string(workload),
              static_cast<unsigned long long>(seed), seconds, trace ? 1 : 0);

  // Set-up (server listen + store prewarm) three times; keep the last rig.
  std::vector<double> setups;
  RigPtr rig;
  for (int k = 0; k < 3 && out.correct(); ++k) {
    const Clock::time_point t0 = k == 0 ? g_process_start : Clock::now();
    rig.reset();
    rig = set_up_rig(in, dir + "/rig" + std::to_string(k), out);
    setups.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  out.e2e["setup_s"] = {median(setups), "s"};

  if (rig) {
    // The warm reference run is interleaved with the other phases in four
    // chunks, so a host slowdown of a few seconds hits one chunk.
    const double chunk_s = 0.02 * seconds;
    run_warm_reference(*rig, in, chunk_s, out);
    run_offline(in, 0.4 * seconds, out);
    run_warm_reference(*rig, in, chunk_s, out);
    run_ladder(*rig, in, out);
    run_warm_reference(*rig, in, chunk_s, out);
    run_mixed(*rig, in, 0.35 * seconds, out);
    run_warm_reference(*rig, in, chunk_s, out);
    report_rig(*rig, out);
  }
  if (trace && out.correct()) {
    run_layer_probes(in, dir, out);
    run_traced(in, dir, dir + "/trace-" + to_string(workload) + "-" + std::to_string(seed) + ".json",
               out);
  }
  rig.reset();
  out.e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};

  const Metrics& shown = trace ? out.layer : out.e2e;
  for (const auto* set : {&out.e2e, &out.layer}) {
    for (const auto& [name, m] : *set) {
      std::printf("  %-34s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
    }
  }
  for (const auto& [name, m] : shown) {
    if (!std::isfinite(m.value)) out.fail("metric " + name + " has no value");
  }
  for (const std::string& f : out.failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  print_result(out, shown);
  return out.correct() ? 0 : 1;
}
