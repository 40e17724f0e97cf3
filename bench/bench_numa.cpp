// Section 2.2 ablation: NUMA-local vs remote data placement. The paper
// allocates each flow's data through the local memory controller because
// remote access "has a significant impact on memory-access latency" and
// would drag the QPI interconnect into every experiment.
#include "common.hpp"

int main() {
  using namespace pp;
  using namespace pp::core;
  const api::SessionOptions opts = api::SessionOptions::from_env();
  bench::header("NUMA ablation", "local vs remote data placement per flow type", opts.scale);

  const Testbed tb = api::make_testbed(opts);
  TextTable t({"flow", "local pps (M)", "remote pps (M)", "slowdown (%)",
               "remote refs/packet"});
  for (const FlowType type : kRealisticTypes) {
    RunConfig local = tb.configure({FlowSpec::of(type)});
    RunConfig remote = tb.configure({FlowSpec::of(type)});
    remote.placement[0].data_domain = 1;  // data on the far socket
    const FlowMetrics l = tb.run(local)[0];
    const FlowMetrics r = tb.run(remote)[0];
    t.add_numeric_row(to_string(type),
                      {l.pps() / 1e6, r.pps() / 1e6, drop_pct(l, r),
                       r.per_packet(r.delta.remote_refs)},
                      2);
  }
  bench::print_table("Solo throughput, data local vs remote:", t);
  return 0;
}
