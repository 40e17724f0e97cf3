// Per-layer probes: each layer's public functions called directly, with a
// fixed amount of work, timed as the median of five repetitions. The app
// kernels and memory-system cases are the former Google Benchmark
// microbenchmarks, so layer numbers need no optional package.
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <filesystem>

#include "api/frame.hpp"
#include "api/session.hpp"
#include "apps/aes.hpp"
#include "apps/flow_table.hpp"
#include "apps/rabin.hpp"
#include "apps/radix_trie.hpp"
#include "base/rng.hpp"
#include "click/parser.hpp"
#include "click/router.hpp"
#include "lowering.hpp"
#include "core/workloads.hpp"
#include "model/cache_model.hpp"
#include "model/stream_model.hpp"
#include "net/checksum.hpp"
#include "net/generators.hpp"
#include "net/traffic.hpp"
#include "perfbench.hpp"
#include "report.hpp"
#include "sim/machine.hpp"

namespace perfbench {
namespace {

namespace api = pp::api;
using Clock = std::chrono::steady_clock;

/// Keeps a computed value observable so the optimizer cannot drop the work.
template <class T>
void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

/// Median over five repetitions of `iters` calls, in ns per call.
template <class F>
double ns_per_call(std::size_t iters, F&& f) {
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) f(i);
    reps.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
                   static_cast<double>(iters));
  }
  return median(reps);
}

const char* tier_name(pp::sim::SimFidelity f) {
  return f == pp::sim::SimFidelity::kExact ? "exact" : "streamed";
}

constexpr pp::sim::SimFidelity kTiers[] = {pp::sim::SimFidelity::kExact,
                                           pp::sim::SimFidelity::kStreamed};

void probe_net(std::uint64_t seed, Metrics& m) {
  pp::net::RandomTraffic random(64, seed);
  pp::net::FlowPoolTraffic pool(64, seed, 100000);
  pp::net::ContentTraffic content(1500, seed, 0.0);
  const std::pair<const char*, pp::net::TrafficSource*> sources[] = {
      {"random", &random}, {"flowpool", &pool}, {"content", &content}};
  for (const auto& [name, src] : sources) {
    pp::net::PacketBuf buf;
    buf.bytes.resize(2048);
    m[std::string("net.gen_ns_per_pkt.") + name] = {
        ns_per_call(20000, [&](std::size_t) { keep(src->fill(buf)); }), "ns"};
  }
}

void probe_apps(std::uint64_t seed, Metrics& m) {
  pp::Pcg32 rng{seed};
  const auto table = pp::net::generate_prefix_table(128000, rng);
  pp::apps::RadixTrie trie;
  for (const auto& e : table) trie.insert(e.prefix, e.len, e.next_hop);
  m["apps.trie_lookup_ns"] = {
      ns_per_call(200000, [&](std::size_t) { keep(trie.lookup(rng.next())); }), "ns"};

  pp::apps::FlowTable flows(1 << 17);
  const auto pool = pp::net::generate_flow_pool(100000, rng);
  m["apps.flow_update_ns"] = {
      ns_per_call(200000, [&](std::size_t i) { keep(flows.update(pool[i % pool.size()], 64, 1)); }),
      "ns"};
  m["apps.tuple_hash_ns"] = {
      ns_per_call(200000,
                  [&](std::size_t i) { keep(pp::apps::FlowTable::hash_tuple(pool[i % pool.size()])); }),
      "ns"};

  std::vector<std::uint8_t> buf(1500);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  const std::array<std::uint8_t, 16> key{};
  const std::array<std::uint8_t, 12> nonce{};
  const pp::apps::Aes128 aes{std::span<const std::uint8_t, 16>{key}};
  std::vector<std::uint8_t> out(buf.size());
  m["apps.aes_ns_per_byte"] = {ns_per_call(2000,
                                           [&](std::size_t) {
                                             aes.ctr_xcrypt(buf, out,
                                                            std::span<const std::uint8_t, 12>{nonce});
                                             keep(out[0]);
                                           }) /
                                   1500.0,
                               "ns"};
  m["apps.rabin_ns_per_byte"] = {
      ns_per_call(2000, [&](std::size_t) { keep(pp::apps::Rabin::sample(buf)); }) / 1500.0, "ns"};
  m["apps.checksum_ns_per_byte"] = {
      ns_per_call(20000, [&](std::size_t) { keep(pp::net::checksum_rfc1071(buf)); }) / 1500.0,
      "ns"};
}

void probe_click(std::uint64_t seed, Metrics& m) {
  const pp::core::Testbed tb(pp::Scale::kQuick, 1);
  std::vector<double> us;
  for (const pp::core::FlowType t : pp::core::kRealisticTypes) {
    const std::string text = pp::core::flow_config_text(t, tb.sizes(), seed);
    us.push_back(ns_per_call(3, [&](std::size_t) {
                   pp::sim::Machine machine(tb.machine_config());
                   pp::click::Router router(machine, 0, 0, seed);
                   keep(pp::click::parse_config(text, pp::core::default_registry(), router));
                   keep(router.initialize());
                 }) /
                 1e3);
  }
  m["click.parse_init_us"] = {median(us), "us"};
}

void probe_sim_model(std::uint64_t seed, Metrics& m) {
  for (const pp::sim::SimFidelity f : kTiers) {
    pp::sim::MachineConfig cfg;
    cfg.fidelity = f;
    pp::sim::MemorySystem l1(cfg);
    (void)l1.access(0, 0x40, pp::sim::AccessType::kRead, 0);
    pp::sim::Cycles now = 0;
    m[std::string("sim.access_l1_ns.") + tier_name(f)] = {
        ns_per_call(500000,
                    [&](std::size_t) {
                      keep(l1.access(0, 0x40, pp::sim::AccessType::kRead, now++).latency);
                    }),
        "ns"};
    pp::sim::MemorySystem rnd(cfg);
    pp::Pcg32 rng{seed};
    m[std::string("sim.access_random_ns.") + tier_name(f)] = {
        ns_per_call(200000,
                    [&](std::size_t) {
                      const pp::sim::Addr a =
                          (static_cast<pp::sim::Addr>(rng.next()) % (64 << 20)) & ~63ULL;
                      keep(rnd.access(0, a, pp::sim::AccessType::kRead, now += 40).latency);
                    }),
        "ns"};
  }
  pp::model::SetSampleEstimator est(12, seed);
  pp::model::StreamModel stream(12, seed);
  for (int i = 0; i < 4096; ++i) {
    est.observe(i % 4, static_cast<std::uint32_t>(i % 8), i % 4, false);
    stream.observe(i % 4, static_cast<std::uint32_t>(i % 8), i % 4, false);
  }
  m["model.sample_ns"] = {
      ns_per_call(500000,
                  [&](std::size_t i) {
                    keep(est.sample(static_cast<int>(i % 4), static_cast<std::uint32_t>(i % 8)).level);
                  }),
      "ns"};
  m["model.split_ns"] = {
      ns_per_call(500000,
                  [&](std::size_t i) {
                    keep(stream.split(static_cast<int>(i % 4), static_cast<std::uint32_t>(i % 8), 8).l3);
                  }),
      "ns"};
}

void probe_core_api(const Inputs& in, const std::string& dir, Metrics& m, Outcome& out) {
  api::SessionOptions base;
  base.scale = pp::Scale::kQuick;
  base.threads = 1;

  // One solo scenario per flow kind of the warm set, run directly per tier.
  std::vector<api::ExperimentSpec> warm;
  for (const std::string& text : in.warm) warm.push_back(*api::ExperimentSpec::parse(text));
  pp::core::ProfileStore scratch;
  for (const pp::sim::SimFidelity f : kTiers) {
    std::vector<double> ms;
    double host_ns = 0, pkts = 0;
    for (const api::ExperimentSpec& s : warm) {
      if (s.kind != api::ExperimentKind::kSolo) continue;
      for (const pp::core::Scenario& sc : lower(s, base.with_fidelity(f), scratch)) {
        const auto t0 = Clock::now();
        const pp::core::ScenarioResult r = pp::core::run_scenario(sc);
        const double ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
        ms.push_back(ns / 1e6);
        host_ns += ns;
        for (const auto& fm : r) pkts += static_cast<double>(fm.delta.packets);
      }
    }
    m[std::string("core.run_scenario_ms.") + tier_name(f)] = {median(ms), "ms"};
    m[std::string("sim.host_ns_per_sim_pkt.") + tier_name(f)] = {pkts > 0 ? host_ns / pkts : 0,
                                                                 "ns"};
  }

  const std::vector<pp::core::Scenario> scs = lower(warm.front(), base, scratch);
  m["core.scenario_key_ns"] = {
      ns_per_call(100000, [&](std::size_t) { keep(pp::core::scenario_key(scs.front()).lo); }), "ns"};

  // Store: memory hit, then disk hit through a fresh store per lookup.
  const std::string cache = dir + "/probe-cache";
  std::error_code ec;
  std::filesystem::remove_all(cache, ec);
  std::filesystem::create_directories(cache, ec);
  pp::core::ProfileStore disk(cache);
  keep(disk.get_or_run(scs.front()));
  m["store.hit_us"] = {ns_per_call(20000, [&](std::size_t) { keep(disk.get_or_run(scs.front())); }) / 1e3,
                       "us"};
  m["store.disk_hit_us"] = {ns_per_call(50,
                                        [&](std::size_t) {
                                          pp::core::ProfileStore fresh(cache);
                                          keep(fresh.get_or_run(scs.front()));
                                        }) /
                                1e3,
                            "us"};
  if (disk.stats().simulated != 1) out.fail("probe: a store hit simulated");

  // Spec layer: parse and lower over the warm set.
  m["api.spec_parse_us"] = {ns_per_call(2000,
                                        [&](std::size_t i) {
                                          keep(api::ExperimentSpec::parse(in.warm[i % in.warm.size()]));
                                        }) /
                                1e3,
                            "us"};
  m["api.lower_us"] = {
      ns_per_call(2000, [&](std::size_t i) { keep(lower(warm[i % warm.size()], base, scratch)); }) / 1e3,
      "us"};

  // Warm predict and rendering of its result.
  auto predict = api::ExperimentSpec::parse(
      R"({"version":1,"kind":"predict","flows":[{"type":"IP"},{"type":"MON"}]})");
  pp::core::ProfileStore pstore;
  api::Session session(base.with_fidelity(pp::sim::SimFidelity::kStreamed).with_threads(kMaxThreads),
                       &pstore);
  const api::Result r = session.run(*predict);
  if (!r.ok()) out.fail("probe: predict failed: " + r.error->detail);
  m["core.warm_predict_us"] = {ns_per_call(200, [&](std::size_t) { keep(session.run(*predict)); }) / 1e3,
                               "us"};
  m["api.render_json_us"] = {ns_per_call(2000, [&](std::size_t) { keep(r.to_json()); }) / 1e3, "us"};
  m["api.render_text_us"] = {ns_per_call(2000, [&](std::size_t) { keep(r.to_text()); }) / 1e3, "us"};
  m["api.render_csv_us"] = {ns_per_call(2000, [&](std::size_t) { keep(r.to_csv()); }) / 1e3, "us"};

  // Frame I/O: one request frame out and back over a socket pair.
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    out.fail("probe: socketpair failed");
    return;
  }
  const std::string payload = api::join_payload(R"({"op":"run","format":"json"})", r.to_json());
  std::string got;
  m["api.frame_roundtrip_us"] = {ns_per_call(2000,
                                             [&](std::size_t) {
                                               pp::Status st;
                                               keep(api::write_frame(fds[0], payload));
                                               keep(api::read_frame(fds[1], got,
                                                                    api::kDefaultMaxFrameBytes, st));
                                             }) /
                                     1e3,
                                 "us"};
  if (got != payload) out.fail("probe: frame round trip changed the payload");
  ::close(fds[0]);
  ::close(fds[1]);
}

}  // namespace

void run_layer_probes(const Inputs& in, const std::string& dir, Outcome& out) {
  probe_net(in.seed, out.layer);
  probe_apps(in.seed, out.layer);
  probe_click(in.seed, out.layer);
  probe_sim_model(in.seed, out.layer);
  probe_core_api(in, dir, out.layer, out);
}

}  // namespace perfbench
