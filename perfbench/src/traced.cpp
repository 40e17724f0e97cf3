// The traced run: requests decomposed into the layers' public functions,
// called in sequence with a span around each —
//   ExperimentSpec::parse -> lower_spec -> ProfileStore::get_or_run (which
//   runs run_scenario on a miss) -> Session result assembly -> rendering ->
//   frame write + read over a socket pair —
// then the same pipeline untraced, to measure what tracing costs.
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>

#include "api/frame.hpp"
#include "api/session.hpp"
#include "lowering.hpp"
#include "perfbench.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace api = pp::api;
using Clock = std::chrono::steady_clock;

constexpr const char* kSpanNames[] = {"request", "parse",  "lower",  "store_hit",
                                      "store_miss", "assemble", "render", "frame"};

struct Pipeline {
  api::SessionOptions base;
  pp::core::ProfileStore& store;
  int fds[2];

  /// One request through every layer; false on any failure.
  bool run(Tracer& tr, const std::string& text, const std::string& format, int rid) {
    auto request = tr.span("request", rid);
    std::optional<api::ExperimentSpec> spec;
    {
      auto s = tr.span("parse", rid);
      spec = api::ExperimentSpec::parse(text);
    }
    if (!spec) return false;
    std::vector<pp::core::Scenario> scenarios;
    {
      auto s = tr.span("lower", rid);
      scenarios = lower(*spec, base, store);
      if (spec->kind == api::ExperimentKind::kCorun) {
        // A corun also needs each flow's solo baseline: the plan of the
        // same flows as an unseeded solo spec.
        api::ExperimentSpec solo = *spec;
        solo.kind = api::ExperimentKind::kSolo;
        solo.seed = 0;
        solo.placement.clear();
        for (pp::core::Scenario& sc : lower(solo, base, store)) scenarios.push_back(std::move(sc));
      }
    }
    for (const pp::core::Scenario& sc : scenarios) {
      auto s = tr.span("store_hit", rid);
      const std::uint64_t before = store.stats().simulated;
      if (!store.get_or_run(sc)) return false;
      if (store.stats().simulated != before) s.rename("store_miss");
    }
    api::Result result;
    {
      auto s = tr.span("assemble", rid);
      api::Session session(base, &store);
      result = session.run(*spec);
    }
    if (!result.ok()) return false;
    std::string body;
    {
      auto s = tr.span("render", rid);
      body = format == "json" ? result.to_json()
             : format == "csv" ? result.to_csv()
                               : result.to_text() + "\n";
    }
    auto s = tr.span("frame", rid);
    const std::string payload = api::join_payload(R"({"ok":true})", body);
    std::string got;
    pp::Status st;
    return api::write_frame(fds[0], payload).ok() &&
           api::read_frame(fds[1], got, api::kDefaultMaxFrameBytes, st) == api::FrameRead::kOk &&
           got == payload;
  }
};

}  // namespace

void run_traced(const Inputs& in, const std::string& dir, const std::string& trace_path,
                Outcome& out) {
  const std::string cache = dir + "/trace-cache";
  std::error_code ec;
  std::filesystem::remove_all(cache, ec);
  std::filesystem::create_directories(cache, ec);
  pp::core::ProfileStore store(cache);
  Pipeline p{{}, store, {-1, -1}};
  p.base.scale = pp::Scale::kQuick;
  p.base.threads = 1;
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, p.fds) != 0) {
    out.fail("traced: socketpair failed");
    return;
  }

  // Traced: each warm-set spec cold and then warm, plus fresh cold specs.
  Tracer tr(true);
  int rid = 0;
  for (std::size_t i = 0; i < in.warm.size(); ++i) {
    for (int pass = 0; pass < 2; ++pass, ++rid) {
      if (!p.run(tr, in.warm[i], in.formats[static_cast<std::size_t>(rid) % in.formats.size()], rid)) {
        out.fail("traced: a decomposed request failed");
      }
    }
  }
  for (std::size_t k = 0; k < 4; ++k, ++rid) {
    if (!p.run(tr, in.cold_spec(1000000 + k), "json", rid)) out.fail("traced: a cold request failed");
  }

  // Overhead: the warm requests again, alternating untraced and traced passes.
  std::vector<double> on_ms, off_ms;
  for (int rep = 0; rep < 10; ++rep) {
    for (const bool traced : {rep % 2 == 0, rep % 2 != 0}) {
      Tracer t(traced);
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < in.warm.size(); ++i) {
        for (int k = 0; k < 20; ++k) {
          if (!p.run(t, in.warm[i], in.formats[i % in.formats.size()], rid)) {
            out.fail("traced: a warm request failed");
          }
        }
      }
      (traced ? on_ms : off_ms).push_back(ms_between(t0, Clock::now()));
    }
  }
  ::close(p.fds[0]);
  ::close(p.fds[1]);

  const auto self = tr.self_ms();
  for (const char* name : kSpanNames) {
    const auto it = self.find(name);
    out.layer[std::string("self_ms.") + name] = {it == self.end() ? 0.0 : it->second, "ms"};
  }
  out.layer["trace.spans"] = {static_cast<double>(tr.spans().size()), "count"};
  out.layer["trace.overhead_pct"] = {100.0 * (median(on_ms) / median(off_ms) - 1.0), "%"};
  if (!tr.write_json(trace_path)) out.fail("traced: cannot write " + trace_path);
  std::printf("traced: %d requests, %zu spans written to %s\n", rid, tr.spans().size(),
              trace_path.c_str());
}

}  // namespace perfbench
