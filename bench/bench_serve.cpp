// Serve-path load bench: many concurrent ppctl-style clients hammering one
// in-process ppd Server over both transports (Unix socket and loopback
// TCP), with a mixed cold/warm spec workload.
//
// What it measures, per (transport, client-concurrency) level:
//   * throughput (requests/second over the level's wall-clock window);
//   * client-observed latency percentiles (p50/p95/p99, milliseconds),
//     separately for the warm class (specs already in the daemon's store)
//     and the cold class (specs whose co-run seed no earlier request used,
//     so their co-run scenario must simulate);
//   * the server's shed / deduped / deadline counters (stats deltas), so
//     overload behavior under the bounded admission queue is visible.
//
// What it *verifies* (exit 1 on violation — these are the serving
// invariants, not perf numbers):
//   * byte identity: the same spec served over TCP, served over UDS and run
//     directly through a fresh Session renders identical bytes in every
//     format;
//   * warm path: a repeated spec reports simulated=0 in its store line —
//     the daemon's whole point is the warm ProfileStore — and so does every
//     warm-class request of every level;
//   * cold path: every cold-class request reports simulated>=1 (a reply
//     counts only its own store work, so this cannot be borrowed from a
//     concurrent request);
//   * every request completes with a definitive answer (shedding yields a
//     structured `overloaded`, which the client retries through).
//
// Results are emitted (schema-versioned) to BENCH_serve.json in the working
// directory and the repository root, so the serve-path perf trajectory is
// tracked across PRs; .github/workflows/ci.yml smoke-runs this at quick
// scale and gates on the JSON's invariant fields.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/client.hpp"
#include "api/serve.hpp"
#include "base/strings.hpp"
#include "common.hpp"

namespace {

using namespace pp;
using Clock = std::chrono::steady_clock;

constexpr int kJsonSchemaVersion = 2;

/// Latency percentiles of one request class (milliseconds).
struct ClassLatency {
  int count = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
};

struct LevelResult {
  std::string transport;  // "uds" | "tcp"
  int clients = 0;
  int requests = 0;
  int ok = 0;
  int failed = 0;          // structured per-spec failures (should be 0 here)
  int transport_errors = 0;  // retries exhausted — should be 0
  double wall_seconds = 0;
  double throughput_rps = 0;
  ClassLatency warm;
  ClassLatency cold;
  int warm_simulated = 0;  // warm-class replies that simulated — should be 0
  int cold_unsimulated = 0;  // cold-class replies that did not — should be 0
  std::uint64_t shed_delta = 0;
  std::uint64_t deduped_delta = 0;
  std::uint64_t retries_slept = 0;  // total backoff sleeps across clients
};

[[nodiscard]] ClassLatency class_latency(std::vector<double> ms) {
  ClassLatency c;
  c.count = static_cast<int>(ms.size());
  if (ms.empty()) return c;
  std::sort(ms.begin(), ms.end());
  const auto pct = [&ms](double p) {
    return ms[static_cast<std::size_t>(p * static_cast<double>(ms.size() - 1) + 0.5)];
  };
  c.p50_ms = pct(0.50);
  c.p95_ms = pct(0.95);
  c.p99_ms = pct(0.99);
  return c;
}

constexpr int kMixSpecs = 4;

/// The request mix: a few distinct corun specs, prewarmed before the load
/// levels so they are warm throughout. A cold request carries a run seed no
/// earlier request used: the seed is part of the scenario key (the name is
/// not), so its co-run scenario is guaranteed to simulate whichever level
/// or transport runs first.
[[nodiscard]] std::string mixed_spec(int slot, std::uint64_t cold_seed) {
  static const char* kFlows[kMixSpecs] = {
      R"([{"type":"IP"}])",
      R"([{"type":"MON"}])",
      R"([{"type":"FW"}])",
      R"([{"type":"IP"},{"type":"MON"}])",
  };
  const int which = slot % kMixSpecs;
  if (cold_seed != 0) {
    return strformat(R"({"version":1,"kind":"corun","name":"cold-%d","seed":%llu,"flows":%s})",
                     slot, static_cast<unsigned long long>(cold_seed), kFlows[which]);
  }
  return strformat(R"({"version":1,"kind":"corun","name":"mix-%d","flows":%s})", slot,
                   kFlows[which]);
}

[[nodiscard]] bool reply_simulated(const api::Reply& reply) {
  return reply.store_line.rfind("simulated=0 ", 0) != 0;
}

[[nodiscard]] api::ClientOptions client_options(const api::Endpoint& ep) {
  api::ClientOptions copts;
  copts.endpoint = ep;
  // Ride through shedding: every request must resolve, and truly cold
  // requests keep both workers busy for hundreds of ms at a time.
  copts.retries = 32;
  copts.retry_base_ms = 2;
  copts.retry_cap_ms = 50;
  copts.retry_seed = 7;
  return copts;
}

/// One load level. Cold requests get run seeds cold_base + request index;
/// callers space cold_base so no two levels share a seed.
LevelResult run_level(api::Server& server, const api::Endpoint& ep, const char* transport,
                      int clients, int requests_per_client, std::uint64_t cold_base) {
  LevelResult lv;
  lv.transport = transport;
  lv.clients = clients;
  lv.requests = clients * requests_per_client;
  const api::Server::Stats before = server.stats();

  std::mutex mu;
  std::vector<double> warm_ms;
  std::vector<double> cold_ms;
  std::atomic<int> ok{0};
  std::atomic<int> failed{0};
  std::atomic<int> transport_errors{0};
  std::atomic<int> warm_simulated{0};
  std::atomic<int> cold_unsimulated{0};
  std::atomic<std::uint64_t> slept{0};

  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      api::Client client(client_options(ep));
      std::vector<double> local_warm;
      std::vector<double> local_cold;
      for (int r = 0; r < requests_per_client; ++r) {
        // 1 in 8 requests is cold; the rest hit the prewarmed mix.
        const int index = c * requests_per_client + r;
        const bool cold = index % 8 == 7;
        const std::string spec =
            mixed_spec(index, cold ? cold_base + static_cast<std::uint64_t>(index) : 0);
        api::Reply reply;
        const auto rt0 = Clock::now();
        const Status st = client.run(spec, "text", 0, reply);
        const auto rt1 = Clock::now();
        (cold ? local_cold : local_warm)
            .push_back(std::chrono::duration<double, std::milli>(rt1 - rt0).count());
        if (!st.ok()) {
          transport_errors.fetch_add(1, std::memory_order_relaxed);
        } else if (reply.error.has_value() || reply.failed) {
          failed.fetch_add(1, std::memory_order_relaxed);
        } else {
          ok.fetch_add(1, std::memory_order_relaxed);
          if (cold && !reply_simulated(reply)) {
            cold_unsimulated.fetch_add(1, std::memory_order_relaxed);
          } else if (!cold && reply_simulated(reply)) {
            warm_simulated.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      slept.fetch_add(client.slept_ms().size(), std::memory_order_relaxed);
      std::lock_guard<std::mutex> lk(mu);
      warm_ms.insert(warm_ms.end(), local_warm.begin(), local_warm.end());
      cold_ms.insert(cold_ms.end(), local_cold.begin(), local_cold.end());
    });
  }
  for (std::thread& t : threads) t.join();
  const auto t1 = Clock::now();

  const api::Server::Stats after = server.stats();
  lv.ok = ok.load();
  lv.failed = failed.load();
  lv.transport_errors = transport_errors.load();
  lv.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  lv.throughput_rps =
      lv.wall_seconds > 0 ? static_cast<double>(lv.requests) / lv.wall_seconds : 0;
  lv.warm = class_latency(std::move(warm_ms));
  lv.cold = class_latency(std::move(cold_ms));
  lv.warm_simulated = warm_simulated.load();
  lv.cold_unsimulated = cold_unsimulated.load();
  lv.shed_delta = after.shed - before.shed;
  lv.deduped_delta = after.deduped_inflight - before.deduped_inflight;
  lv.retries_slept = slept.load();
  return lv;
}

struct Verdicts {
  bool byte_identical = false;
  bool warm_simulated0 = false;  // the probe and every warm-class request
  bool cold_simulated = false;   // every cold-class request
};

[[nodiscard]] std::string class_json(const ClassLatency& c) {
  return strformat("{\"count\": %d, \"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f}",
                   c.count, c.p50_ms, c.p95_ms, c.p99_ms);
}

void emit_json_to(std::FILE* f, Scale scale, const api::ServerOptions& opts,
                  const std::vector<LevelResult>& levels, const Verdicts& v) {
  std::fprintf(f,
               "{\n  \"bench\": \"serve\",\n  \"schema_version\": %d,\n"
               "  \"scale\": \"%s\",\n  \"workers\": %d,\n  \"max_queue\": %d,\n"
               "  \"transports\": [\"uds\", \"tcp\"],\n"
               "  \"byte_identical\": %s,\n  \"warm_simulated0\": %s,\n"
               "  \"cold_simulated\": %s,\n"
               "  \"levels\": [\n",
               kJsonSchemaVersion, to_string(scale), opts.workers, opts.max_queue,
               v.byte_identical ? "true" : "false", v.warm_simulated0 ? "true" : "false",
               v.cold_simulated ? "true" : "false");
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const LevelResult& lv = levels[i];
    std::fprintf(f,
                 "    {\"transport\": \"%s\", \"clients\": %d, \"requests\": %d, "
                 "\"ok\": %d, \"failed\": %d, \"transport_errors\": %d,\n"
                 "     \"wall_seconds\": %.4f, \"throughput_rps\": %.1f,\n"
                 "     \"warm\": %s,\n     \"cold\": %s,\n"
                 "     \"shed\": %llu, \"deduped\": %llu, \"retries_slept\": %llu}%s\n",
                 lv.transport.c_str(), lv.clients, lv.requests, lv.ok, lv.failed,
                 lv.transport_errors, lv.wall_seconds, lv.throughput_rps,
                 class_json(lv.warm).c_str(), class_json(lv.cold).c_str(),
                 static_cast<unsigned long long>(lv.shed_delta),
                 static_cast<unsigned long long>(lv.deduped_delta),
                 static_cast<unsigned long long>(lv.retries_slept),
                 i + 1 < levels.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
}

void emit_json(Scale scale, const api::ServerOptions& opts,
               const std::vector<LevelResult>& levels, const Verdicts& v) {
  std::vector<std::string> paths = {"BENCH_serve.json"};
#ifdef PP_SOURCE_DIR
  const std::string repo_root = std::string(PP_SOURCE_DIR) + "/BENCH_serve.json";
  if (repo_root != paths[0]) paths.push_back(repo_root);
#endif
  for (const std::string& path : paths) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      continue;
    }
    emit_json_to(f, scale, opts, levels, v);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  }
}

}  // namespace

int main() {
  const Scale scale = api::SessionOptions::from_env().scale;
  bench::header("serve-path load", "concurrent clients vs one ppd server (UDS + TCP)",
                scale);

  const std::string dir =
      std::filesystem::temp_directory_path().string() + "/pp_bench_serve";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  api::ServerOptions opts;
  opts.socket_path = dir + "/ppd.sock";
  opts.listen_host = "127.0.0.1";
  opts.listen_port = 0;  // kernel-chosen ephemeral port
  opts.workers = 2;
  opts.max_queue = 4;
  opts.retry_after_ms = 2;
  opts.session = api::SessionOptions::from_env();
  opts.session.scale = scale;
  opts.session.cache_dir = dir + "/cache";
  opts.session.cache_dir_ro.clear();
  opts.session.run_budget_ms = 0;

  api::Server server(opts);
  std::string err;
  if (!server.listen(&err)) {
    std::fprintf(stderr, "FAIL: cannot listen: %s\n", err.c_str());
    return 1;
  }
  int serve_rc = -1;
  std::thread serve_thread([&] { serve_rc = server.serve(); });

  api::Endpoint uds;
  uds.uds_path = opts.socket_path;
  api::Endpoint tcp;
  tcp.host = "127.0.0.1";
  tcp.port = server.tcp_port();

  // --- Invariant 1: byte identity across transports and vs a direct run ---
  bool byte_identical = true;
  {
    const std::string spec_json =
        R"({"version":1,"kind":"corun","name":"identity","flows":[{"type":"IP"}]})";
    api::SessionOptions direct_opts = opts.session;
    direct_opts.cache_dir = dir + "/direct-cache";
    api::Session direct(direct_opts);
    const std::optional<api::ExperimentSpec> spec = api::ExperimentSpec::parse(spec_json);
    if (!spec.has_value()) {
      std::fprintf(stderr, "FAIL: identity spec does not parse\n");
      byte_identical = false;
    } else {
      const api::Result direct_r = direct.run(*spec);
      const std::string direct_bytes[3] = {direct_r.to_text() + "\n", direct_r.to_csv(),
                                           direct_r.to_json()};
      const char* formats[3] = {"text", "csv", "json"};
      api::Client uds_client(client_options(uds));
      api::Client tcp_client(client_options(tcp));
      for (int i = 0; i < 3; ++i) {
        api::Reply a;
        api::Reply b;
        if (!uds_client.run(spec_json, formats[i], 0, a).ok() ||
            !tcp_client.run(spec_json, formats[i], 0, b).ok() || a.error.has_value() ||
            b.error.has_value() || a.body != direct_bytes[i] || b.body != direct_bytes[i]) {
          std::fprintf(stderr, "FAIL: %s bytes differ across transports/direct\n",
                       formats[i]);
          byte_identical = false;
        }
      }
    }
  }
  std::printf("byte identity (uds == tcp == direct, text/csv/json): %s\n",
              byte_identical ? "ok" : "FAILED");

  // --- Invariant 2: the warm path simulates nothing ------------------------
  bool warm_simulated0 = false;
  {
    api::Client c(client_options(tcp));
    api::Reply reply;
    const std::string spec_json =
        R"({"version":1,"kind":"corun","name":"identity","flows":[{"type":"IP"}]})";
    if (c.run(spec_json, "text", 0, reply).ok() && !reply.error.has_value()) {
      warm_simulated0 = reply.store_line.find("simulated=0 ") != std::string::npos;
      if (!warm_simulated0) {
        std::fprintf(stderr, "FAIL: warm repeat simulated something: %s\n",
                     reply.store_line.c_str());
      }
    } else {
      std::fprintf(stderr, "FAIL: warm probe request failed\n");
    }
  }
  std::printf("warm repeat reports simulated=0: %s\n\n", warm_simulated0 ? "ok" : "FAILED");

  // --- Load levels ---------------------------------------------------------
  // Prewarm the mix so the warm class is warm from its first request.
  bool prewarmed = true;
  {
    api::Client c(client_options(uds));
    for (int slot = 0; slot < kMixSpecs; ++slot) {
      api::Reply reply;
      if (!c.run(mixed_spec(slot, 0), "text", 0, reply).ok() || reply.error.has_value() ||
          reply.failed) {
        std::fprintf(stderr, "FAIL: prewarm request %d failed\n", slot);
        prewarmed = false;
      }
    }
  }
  const int requests_per_client =
      scale == Scale::kQuick ? 8 : (scale == Scale::kStandard ? 24 : 48);
  const std::vector<int> concurrency = {2, 8};
  std::vector<LevelResult> levels;
  std::uint64_t cold_base = 1000;  // run seed 1 (the default) stays warm
  for (const int clients : concurrency) {
    for (const auto& [ep, transport] : {std::pair{uds, "uds"}, std::pair{tcp, "tcp"}}) {
      levels.push_back(
          run_level(server, ep, transport, clients, requests_per_client, cold_base));
      cold_base += 1000;  // > clients * requests_per_client: no seed repeats
    }
  }

  TextTable t({"transport", "clients", "requests", "req/s", "warm p50 ms", "warm p99 ms",
               "cold n", "cold p50 ms", "cold p99 ms", "shed", "deduped"});
  bool all_resolved = true;
  Verdicts v;
  v.byte_identical = byte_identical;
  v.warm_simulated0 = warm_simulated0;
  v.cold_simulated = true;
  for (const LevelResult& lv : levels) {
    t.add_row({lv.transport, strformat("%d", lv.clients), strformat("%d", lv.requests),
               strformat("%.1f", lv.throughput_rps), strformat("%.3f", lv.warm.p50_ms),
               strformat("%.3f", lv.warm.p99_ms), strformat("%d", lv.cold.count),
               strformat("%.3f", lv.cold.p50_ms), strformat("%.3f", lv.cold.p99_ms),
               strformat("%llu", static_cast<unsigned long long>(lv.shed_delta)),
               strformat("%llu", static_cast<unsigned long long>(lv.deduped_delta))});
    if (lv.ok != lv.requests) {
      all_resolved = false;
      std::fprintf(stderr,
                   "FAIL: %s x%d: %d of %d requests resolved ok (%d failed, %d transport "
                   "errors)\n",
                   lv.transport.c_str(), lv.clients, lv.ok, lv.requests, lv.failed,
                   lv.transport_errors);
    }
    if (lv.warm_simulated != 0 || !prewarmed) {
      v.warm_simulated0 = false;
      std::fprintf(stderr, "FAIL: %s x%d: %d warm requests simulated\n",
                   lv.transport.c_str(), lv.clients, lv.warm_simulated);
    }
    if (lv.cold_unsimulated != 0 || lv.cold.count == 0) {
      v.cold_simulated = false;
      std::fprintf(stderr, "FAIL: %s x%d: %d of %d cold requests simulated nothing\n",
                   lv.transport.c_str(), lv.clients, lv.cold_unsimulated, lv.cold.count);
    }
  }
  bench::print_table("Serve-path load (bounded queue: workers=2 max_queue=4):", t);

  server.begin_drain();
  serve_thread.join();
  if (serve_rc != 0) {
    std::fprintf(stderr, "FAIL: server drain exited %d\n", serve_rc);
    return 1;
  }

  emit_json(scale, opts, levels, v);
  std::filesystem::remove_all(dir);

  if (!v.byte_identical || !v.warm_simulated0 || !v.cold_simulated || !all_resolved) return 1;
  return 0;
}
