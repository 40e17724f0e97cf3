// Serving phases against an in-process api::Server listening on a Unix
// socket and on loopback TCP, with requests split evenly across the two.
// The generator is an open loop: request i is due at t0 + i/rate and is
// timed from that due time. At most kMaxThreads senders (and so at most
// kMaxThreads connections) are busy at once; a request whose sender is
// still busy waits, and that wait counts in its latency. There are no
// client retries: a shed, refused or transport-failed request is a failure.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "api/client.hpp"
#include "api/serve.hpp"
#include "base/strings.hpp"
#include "perfbench.hpp"
#include "report.hpp"

namespace perfbench {
namespace {

namespace api = pp::api;
using Clock = std::chrono::steady_clock;

/// Warm reference run (serve.warm_p{50,90,99}_ms): one
/// client sends warm requests back to back, so a host stall delays the
/// request it hits and no other; in an open loop on a shared virtual machine
/// the same stall queues every request behind it, and sub-millisecond
/// latencies measured the host. The run comes in chunks spread over the
/// whole benchmark run, cut into blocks of kRefBlock requests; each
/// percentile reported is the median over all blocks.
constexpr std::size_t kRefBlock = 2500;
/// Warm ladder: the offered-rate grid kLadderBase * kLadderRatio^k. A coarse
/// pass visits every kCoarseEvery-th point until one fails, then a fine pass
/// walks the points in between. Each step is at least kMinStepRequests long
/// so its p99 has 10 samples beyond it.
constexpr double kLadderBase = 1000;
constexpr double kLadderRatio = 1.1;
constexpr int kLadderPoints = 41;  // up to ~45k requests/s
constexpr int kCoarseEvery = 8;
constexpr std::size_t kMinStepRequests = 1200;
constexpr double kStepSeconds = 0.5;
/// A step fails only when this many attempts in a row fail, so a transient
/// stall of the host does not end the ladder early.
constexpr int kStepAttempts = 2;
/// A step passes when its warm p99 stays under this limit...
constexpr double kWarmP99LimitMs = 20.0;
/// ...and the backlog did not grow: the last tenth of its sends went out
/// within this long of their due times (median).
constexpr double kBacklogLagMs = 5.0;
/// Mixed phase: one fixed offered rate; 1 in 16 requests is truly cold.
constexpr double kMixedRate = 100;
constexpr std::size_t kColdEvery = 16;
constexpr std::size_t kMinMixedRequests = 100 * kColdEvery;  // >= 100 cold samples
/// A run whose generator oversleeps its own schedule (with a sender free)
/// by more than one inter-arrival gap of the mixed phase at p99 did not
/// offer the load it claims; the run is invalid.
constexpr double kGenLagLimitMs = 1000.0 / kMixedRate;
/// Every kSampleEvery-th request's body is checked against a direct run.
constexpr std::size_t kSampleEvery = 37;

enum class Cls : std::uint8_t { kWarm, kCold, kRepeat };

struct Request {
  std::string spec;
  std::string format;
  Cls cls = Cls::kWarm;
  bool tcp = false;
};

struct Sent {
  double lat_ms = 0;      // completion - due
  double gen_lag_ms = 0;  // send - max(due, sender free): the generator's own lateness
  double lag_ms = 0;      // send - due
  bool ok = false;
  std::string store_line;
  std::string body;
};

std::uint64_t store_field(const std::string& line, const char* key) {
  const std::string k = std::string(key) + "=";
  const std::size_t at = line.find(k);
  if (at == std::string::npos || (at > 0 && line[at - 1] != ' ')) return ~0ULL;
  return std::strtoull(line.c_str() + at + k.size(), nullptr, 10);
}

}  // namespace

class Rig {
 public:
  std::unique_ptr<api::Server> server;
  std::thread serve_thread;
  api::Endpoint uds, tcp;
  api::SessionOptions session;
  api::Server::Stats base_stats;
  pp::core::ProfileStore::Stats base_store;
  std::atomic<int> queue_max{0};
  std::vector<double> warm_ms_uds, warm_ms_tcp;  // reference run, per transport
  std::vector<double> ref_p50, ref_p90, ref_p99;  // reference run, per block
  std::vector<double> gen_lag_ms;
  std::uint64_t warm_polluted = 0;  // warm replies whose store delta shows a simulation
  std::uint64_t failed = 0;
  std::uint64_t attempted = 0;
  std::vector<std::pair<Request, std::string>> samples;  // (request, served body)

  ~Rig() {
    if (server) server->begin_drain();
    if (serve_thread.joinable()) serve_thread.join();
  }

  /// Run `reqs` open-loop at `rate` and return one Sent per request.
  std::vector<Sent> open_loop(const std::vector<Request>& reqs, double rate) {
    std::vector<Sent> res(reqs.size());
    const OpenLoopSchedule sched(Clock::now() + std::chrono::milliseconds(2), rate);
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> senders;
    for (int t = 0; t < kMaxThreads; ++t) {
      senders.emplace_back([&] {
        Clock::time_point free_at = Clock::now();
        for (std::size_t i = next.fetch_add(1); i < reqs.size(); i = next.fetch_add(1)) {
          const Clock::time_point due = sched.due(i);
          std::this_thread::sleep_until(due);
          const Clock::time_point sent_at = Clock::now();
          const int q = server->stats().queued;
          for (int m = queue_max.load(); q > m && !queue_max.compare_exchange_weak(m, q);) {
          }
          Sent& s = res[i];
          const Clock::time_point done = send(reqs[i], s);
          s.lat_ms = ms_between(due, done);
          s.lag_ms = ms_between(due, sent_at);
          s.gen_lag_ms = ms_between(std::max(due, free_at), sent_at);
          free_at = done;
        }
      });
    }
    for (std::thread& t : senders) t.join();
    tally(res);
    return res;
  }

  /// Run `reqs` back to back from one client; latency runs from send to reply.
  std::vector<Sent> closed_loop(const std::vector<Request>& reqs) {
    std::vector<Sent> res(reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      res[i].lat_ms = ms_between(t0, send(reqs[i], res[i]));
    }
    tally(res);
    return res;
  }

  /// Send one request on a connection of its own, without retries; fills
  /// everything but the timings and returns the completion time.
  Clock::time_point send(const Request& r, Sent& s) {
    api::ClientOptions copts;
    copts.endpoint = r.tcp ? tcp : uds;
    copts.retries = 1;
    api::Client client(copts);
    api::Reply reply;
    const pp::Status st = client.run(r.spec, r.format, 0, reply);
    s.ok = st.ok() && !reply.error.has_value() && !reply.failed;
    s.store_line = std::move(reply.store_line);
    s.body = std::move(reply.body);
    return Clock::now();
  }

  void tally(const std::vector<Sent>& res) {
    attempted += res.size();
    for (const Sent& s : res) {
      if (!s.ok) ++failed;
    }
  }

  void keep_samples(const std::vector<Request>& reqs, std::vector<Sent>& res) {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (i % kSampleEvery != 0 || !res[i].ok) continue;
      samples.emplace_back(reqs[i], std::move(res[i].body));
    }
  }
};

void RigDeleter::operator()(Rig* r) const { delete r; }

RigPtr set_up_rig(const Inputs& in, const std::string& dir, Outcome& out) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir + "/cache", ec);
  RigPtr rig(new Rig);
  rig->session.scale = pp::Scale::kQuick;
  rig->session.fidelity = pp::sim::SimFidelity::kExact;
  rig->session.threads = kMaxThreads / 2;  // two workers x two threads
  rig->session.cache_dir = dir + "/cache";

  api::ServerOptions opts;
  opts.socket_path = dir + "/ppd.sock";
  opts.listen_host = "127.0.0.1";
  opts.listen_port = 0;
  opts.workers = 2;
  opts.max_queue = 8;
  opts.session = rig->session;
  rig->server = std::make_unique<api::Server>(opts);
  std::string err;
  if (!rig->server->listen(&err)) {
    out.fail("serve: cannot listen: " + err);
    return nullptr;
  }
  rig->uds.uds_path = opts.socket_path;
  rig->tcp.host = "127.0.0.1";
  rig->tcp.port = rig->server->tcp_port();
  rig->serve_thread = std::thread([s = rig->server.get()] { (void)s->serve(); });

  // Prewarm: the warm set goes into the server's own store.
  std::vector<api::ExperimentSpec> warm;
  for (const std::string& text : in.warm) {
    auto s = api::ExperimentSpec::parse(text, &err);
    if (!s) {
      out.fail("serve: warm spec does not parse: " + err);
      return nullptr;
    }
    warm.push_back(std::move(*s));
  }
  api::Session prewarm(rig->session.with_threads(kMaxThreads), &rig->server->store());
  for (const api::Result& r : prewarm.run_many(warm)) {
    if (!r.ok()) out.fail("serve: prewarm failed: " + r.error->detail);
  }
  rig->base_stats = rig->server->stats();
  rig->base_store = rig->server->store().stats();
  return rig;
}

namespace {

double ladder_rate(int k) { return std::round(kLadderBase * std::pow(kLadderRatio, k)); }

struct StepResult {
  bool pass = false;
  std::vector<Request> reqs;
  std::vector<Sent> res;
  std::vector<double> lat;
};

std::vector<Request> warm_requests(const Inputs& in, std::size_t n) {
  std::vector<Request> reqs(n);
  for (std::size_t i = 0; i < n; ++i) {
    reqs[i] = {in.warm[(i / 2) % in.warm.size()], in.formats[i % in.formats.size()], Cls::kWarm,
               i % 2 == 1};
  }
  return reqs;
}

/// Warm requests only read the store: no reply may show a simulation.
void check_warm(const std::vector<Sent>& res, Outcome& out) {
  for (const Sent& s : res) {
    if (s.ok && store_field(s.store_line, "simulated") != 0) {
      out.fail("serve_warm: a warm reply shows a simulation: " + s.store_line);
    }
  }
}

StepResult warm_step(Rig& rig, const Inputs& in, double rate, std::size_t n, Outcome& out) {
  StepResult st;
  st.reqs = warm_requests(in, n);
  st.res = rig.open_loop(st.reqs, rate);
  StepVerdictInput v;
  v.attempted = n;
  std::vector<double> end_lag;
  for (std::size_t i = 0; i < n; ++i) {
    st.lat.push_back(st.res[i].lat_ms);
    if (i >= n - n / 10) end_lag.push_back(st.res[i].lag_ms);
    if (!st.res[i].ok) ++v.failed;
  }
  check_warm(st.res, out);
  v.tail_ms = fixed_tail(st.lat, 990);
  v.end_lag_ms = median(end_lag);
  st.pass = step_passes(v, kWarmP99LimitMs, kBacklogLagMs);
  std::printf("serve_warm: %6.0f req/s  n=%zu  p50=%.3f ms  p99=%.3f ms  failed=%zu  "
              "end_lag=%.2f ms  %s\n",
              rate, n, median(st.lat), v.tail_ms, v.failed, v.end_lag_ms,
              st.pass ? "pass" : "FAIL");
  return st;
}

}  // namespace

void run_warm_reference(Rig& rig, const Inputs& in, double budget_s, Outcome& out) {
  const Clock::time_point t0 = Clock::now();
  std::vector<double> p50;
  do {
    const std::vector<Request> reqs = warm_requests(in, kRefBlock);
    std::vector<Sent> res = rig.closed_loop(reqs);
    check_warm(res, out);
    std::vector<double> lat;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      lat.push_back(res[i].lat_ms);
      (reqs[i].tcp ? rig.warm_ms_tcp : rig.warm_ms_uds).push_back(res[i].lat_ms);
    }
    p50.push_back(median(lat));
    rig.ref_p50.push_back(p50.back());
    rig.ref_p90.push_back(fixed_tail(lat, 900));
    rig.ref_p99.push_back(fixed_tail(lat, 990));
    rig.keep_samples(reqs, res);
  } while (ms_between(t0, Clock::now()) < budget_s * 1e3);
  std::printf("serve_warm: closed loop  %zu blocks of %zu  block p50 median=%.3f ms\n", p50.size(),
              kRefBlock, median(p50));
}

void run_ladder(Rig& rig, const Inputs& in, Outcome& out) {
  const auto passes = [&](int k) {
    const double rate = ladder_rate(k);
    const std::size_t n = std::max(kMinStepRequests, static_cast<std::size_t>(rate * kStepSeconds));
    for (int attempt = 0; attempt < kStepAttempts; ++attempt) {
      if (warm_step(rig, in, rate, n, out).pass) return true;
    }
    return false;
  };
  int lo = -1;             // highest grid point known to pass
  int hi = kLadderPoints;  // lowest grid point known to fail
  for (int k = 0; k < kLadderPoints; k += kCoarseEvery) {
    if (!passes(k)) {
      hi = k;
      break;
    }
    lo = k;
  }
  for (int k = lo + 1; k < hi && passes(k); ++k) lo = k;
  out.layer["serve.max_rate_rps"] = {lo >= 0 ? ladder_rate(lo) : 0.0, "1/s"};
}

void run_mixed(Rig& rig, const Inputs& in, double budget_s, Outcome& out) {
  const std::size_t n =
      std::max(kMinMixedRequests, static_cast<std::size_t>(kMixedRate * budget_s) / kColdEvery *
                                      kColdEvery);
  std::vector<Request> reqs(n);
  std::size_t cold_index = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Request& r = reqs[i];
    r.tcp = i % 2 == 1;
    r.format = in.formats[i % in.formats.size()];
    switch (i % kColdEvery) {
      case 0:
        r.spec = in.cold_spec(cold_index++);
        r.cls = Cls::kCold;
        break;
      case 1:
        // In `shared` the cold spec is sent again a few ms later, with the
        // same format, so it can join the in-flight request.
        if (in.repeat_cold()) {
          r.spec = reqs[i - 1].spec;
          r.format = reqs[i - 1].format;
          r.cls = Cls::kRepeat;
          break;
        }
        [[fallthrough]];
      default:
        r.spec = in.warm[(i / 2) % in.warm.size()];
        break;
    }
  }
  std::vector<Sent> res = rig.open_loop(reqs, kMixedRate);
  std::vector<double> warm, cold;
  for (std::size_t i = 0; i < n; ++i) {
    const Sent& s = res[i];
    rig.gen_lag_ms.push_back(s.gen_lag_ms);
    if (!s.ok) continue;
    const std::uint64_t simulated = store_field(s.store_line, "simulated");
    switch (reqs[i].cls) {
      case Cls::kCold:
        cold.push_back(s.lat_ms);
        if (simulated == 0 || simulated == ~0ULL) {
          out.fail("serve_mixed: a cold reply did not simulate: " + s.store_line);
        }
        break;
      case Cls::kRepeat:
        break;
      case Cls::kWarm:
        warm.push_back(s.lat_ms);
        // The store delta covers the request's whole execution window and
        // the store is shared, so a cold simulation finishing inside that
        // window shows up in a warm reply too; count those apart.
        if (simulated != 0) ++rig.warm_polluted;
        if (store_field(s.store_line, "memory_hits") == 0) {
          out.fail("serve_mixed: a warm reply missed the store: " + s.store_line);
        }
        break;
    }
  }
  const Summary c = summarize(cold);
  std::printf("serve_mixed: %.0f req/s  n=%zu  warm p50=%.3f p99=%.3f ms  cold n=%zu p50=%.2f "
              "p%.1f=%.2f ms  failed=%llu\n",
              kMixedRate, n, median(warm), fixed_tail(warm, 990), c.n, c.p50,
              c.tail_permille / 10.0, c.tail, static_cast<unsigned long long>(rig.failed));
  out.layer["serve.mixed_warm_p50_ms"] = {median(warm), "ms"};
  out.layer["serve.mixed_warm_p99_ms"] = {fixed_tail(warm, 990), "ms"};
  out.e2e["cold_p50_ms"] = {c.p50, "ms"};
  out.e2e["cold_p90_ms"] = {fixed_tail(cold, 900), "ms"};
  rig.keep_samples(reqs, res);
}

void report_rig(Rig& rig, Outcome& out) {
  out.attempted += rig.attempted;
  out.failed += rig.failed;
  // Served bytes must equal a direct Session::run of the same spec.
  pp::core::ProfileStore store;
  api::Session direct(rig.session.with_threads(kMaxThreads), &store);
  for (const auto& [r, body] : rig.samples) {
    std::string err;
    auto spec = api::ExperimentSpec::parse(r.spec, &err);
    if (!spec) {
      out.fail("serve: sampled spec does not parse: " + err);
      continue;
    }
    const api::Result res = direct.run(*spec);
    const std::string want = r.format == "json"  ? res.to_json()
                             : r.format == "csv" ? res.to_csv()
                                                 : res.to_text() + "\n";
    if (want != body) {
      out.fail(pp::strformat("serve: %s reply differs from a direct run (%s)",
                             r.tcp ? "tcp" : "uds", r.format.c_str()));
    }
  }
  std::printf("serve: %zu sampled replies checked against direct runs\n", rig.samples.size());

  const Summary lag = summarize(rig.gen_lag_ms);
  if (lag.tail_permille == 0 || quantile(rig.gen_lag_ms, 990) > kGenLagLimitMs) {
    out.fail(pp::strformat("serve: generator ran late (p99 %.2f ms > %.1f ms); run invalid",
                           quantile(rig.gen_lag_ms, 990), kGenLagLimitMs));
  }

  const api::Server::Stats st = rig.server->stats();
  const pp::core::ProfileStore::Stats ss =
      pp::core::ProfileStore::Stats::delta(rig.server->store().stats(), rig.base_store);
  const double lookups =
      static_cast<double>(ss.memory_hits + ss.disk_hits + ss.simulated + ss.coalesced);
  out.layer["store.hit_ratio"] = {
      lookups > 0 ? static_cast<double>(ss.memory_hits + ss.disk_hits) / lookups : 0, "ratio"};
  out.layer["store.simulated"] = {static_cast<double>(ss.simulated), "count"};
  out.layer["store.coalesced"] = {static_cast<double>(ss.coalesced), "count"};
  out.layer["serve.shed"] = {static_cast<double>(st.shed - rig.base_stats.shed), "count"};
  out.layer["serve.deduped_inflight"] = {
      static_cast<double>(st.deduped_inflight - rig.base_stats.deduped_inflight), "count"};
  out.layer["serve.queue_max"] = {static_cast<double>(rig.queue_max.load()), "count"};
  out.layer["serve.warm_delta_polluted"] = {static_cast<double>(rig.warm_polluted), "count"};
  out.layer["serve.fail_ratio"] = {
      rig.attempted > 0 ? static_cast<double>(rig.failed) / static_cast<double>(rig.attempted) : 0,
      "ratio"};
  out.layer["serve.warm_p50_ms"] = {median(rig.ref_p50), "ms"};
  out.layer["serve.warm_p90_ms"] = {median(rig.ref_p90), "ms"};
  out.layer["serve.warm_p99_ms"] = {median(rig.ref_p99), "ms"};
  out.layer["serve.p50_ms.uds"] = {median(rig.warm_ms_uds), "ms"};
  out.layer["serve.p50_ms.tcp"] = {median(rig.warm_ms_tcp), "ms"};
  out.layer["gen.sent"] = {static_cast<double>(rig.attempted), "count"};
  out.layer["gen.lag_ms_p99"] = {quantile(rig.gen_lag_ms, 990), "ms"};

  for (const bool use_tcp : {false, true}) {
    api::ClientOptions copts;
    copts.endpoint = use_tcp ? rig.tcp : rig.uds;
    copts.retries = 1;
    api::Client client(copts);
    std::vector<double> us;
    for (int i = 0; i < 300; ++i) {
      const auto t0 = Clock::now();
      if (!client.ping().ok()) out.fail("serve: ping failed");
      us.push_back(ms_between(t0, Clock::now()) * 1e3);
    }
    out.layer[use_tcp ? "serve.ping_us.tcp" : "serve.ping_us.uds"] = {median(us), "us"};
  }
}

}  // namespace perfbench
