// Section 4 ablation: containing hidden aggressiveness. A flow profiles as a
// mild FW-style workload, then a crafted packet flips it into SYN_MAX-like
// behavior. The aggressiveness governor monitors per-flow cache refs/sec
// with the hardware counters and drives the flow's control element until it
// returns under its profiled envelope — protecting an innocent MON
// co-runner.
#include "click/parser.hpp"
#include "common.hpp"
#include "core/throttle.hpp"

namespace {

using namespace pp;
using namespace pp::core;

struct Outcome {
  double attacker_refs_before = 0;  // M refs/s while benign
  double attacker_refs_after = 0;   // M refs/s in the final window
  double victim_pps = 0;
};

Outcome run(bool governed, const Testbed& tb) {
  sim::Machine machine(tb.machine_config());
  const sim::MachineConfig& mcfg = tb.machine_config();

  // Attacker on core 0 (with its control element); victim MON on core 1.
  click::Router attacker(machine, 0, 0, 7);
  auto err = click::parse_config(R"(
    src :: FromDevice(RANDOM, BYTES 64, SEED 3, BUFS 256);
    ctl :: ControlShim(INSTR 0);
    syn :: SynProcessor(READS 0, INSTR 400, ALT_READS 32, ALT_INSTR 0,
                        TRIG_AFTER 20000, TABLE_MB 12);
    out :: ToDevice;
    src -> ctl -> syn -> out;
  )", default_registry(), attacker);
  PP_CHECK(!err.has_value());
  err = attacker.initialize();
  PP_CHECK(!err.has_value());
  err = attacker.install_tasks();
  PP_CHECK(!err.has_value());

  click::Router victim(machine, 1, 0, 8);
  const WorkloadSizes z = tb.sizes();
  err = build_flow(victim, FlowSpec::of(FlowType::kMon, 9), z, default_registry());
  PP_CHECK(!err.has_value());
  err = victim.initialize();
  PP_CHECK(!err.has_value());
  err = victim.install_tasks();
  PP_CHECK(!err.has_value());

  // Profiled envelope for the benign mode (measured offline: ~a few M/s).
  AggressivenessGovernor governor({{0, 10e6}});
  const std::vector<FlowHandle> handles = {{0, 0, FlowType::kFw, &attacker},
                                           {1, 1, FlowType::kMon, &victim}};

  const sim::Cycles window = mcfg.ms_to_cycles(0.25);
  Outcome out;
  std::uint64_t refs_mark = 0;
  sim::Cycles time_mark = 0;
  std::uint64_t victim_packets_mark = 0;

  for (int w = 1; w <= 80; ++w) {  // 20 ms
    machine.run_until(static_cast<sim::Cycles>(w) * window);
    if (governed) governor(machine, handles);
    const auto& c0 = machine.core(0);
    if (w == 16) {  // end of the benign phase
      out.attacker_refs_before = static_cast<double>(c0.counters().l3_refs) /
                                 (static_cast<double>(c0.now()) / mcfg.hz());
    }
    if (w == 64) {  // start of the final measurement window
      refs_mark = c0.counters().l3_refs;
      time_mark = c0.now();
      victim_packets_mark = machine.core(1).counters().packets;
    }
  }
  const auto& c0 = machine.core(0);
  const double dt = static_cast<double>(c0.now() - time_mark) / mcfg.hz();
  out.attacker_refs_after = static_cast<double>(c0.counters().l3_refs - refs_mark) / dt;
  out.victim_pps =
      static_cast<double>(machine.core(1).counters().packets - victim_packets_mark) / dt;
  return out;
}

}  // namespace

int main() {
  const api::SessionOptions opts = api::SessionOptions::from_env();
  bench::header("Section 4 ablation",
                "throttling contains a flow that turns aggressive mid-run", opts.scale);
  const Testbed tb = api::make_testbed(opts);

  const Outcome off = run(false, tb);
  const Outcome on = run(true, tb);

  TextTable t({"governor", "attacker refs/s benign (M)", "attacker refs/s attack (M)",
               "victim MON throughput (Mpps)"});
  t.add_numeric_row("off", {off.attacker_refs_before / 1e6, off.attacker_refs_after / 1e6,
                            off.victim_pps / 1e6}, 2);
  t.add_numeric_row("on", {on.attacker_refs_before / 1e6, on.attacker_refs_after / 1e6,
                           on.victim_pps / 1e6}, 2);
  bench::print_table("Attack contained to the profiled envelope (cap 10M refs/s):", t);
  std::printf(
      "victim recovers %.1f%% of the throughput the attack cost it\n"
      "(paper: throttling pins every flow to its profiled refs/sec).\n",
      off.victim_pps >= on.victim_pps
          ? 0.0
          : 100.0 * (on.victim_pps - off.victim_pps) / off.victim_pps);
  return 0;
}
