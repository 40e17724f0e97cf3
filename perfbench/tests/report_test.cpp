// Unit tests of the benchmark's reporter, open-loop schedule, ladder pass
// rule and span self-time accounting. Run: ctest in the benchmark build, or
// the perfbench_test binary directly.
#include <cmath>
#include <cstdio>
#include <numeric>

#include "report.hpp"
#include "trace.hpp"

using perfbench::beyond;
using perfbench::quantile_rank;

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK(%s)\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

std::vector<double> iota_samples(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1..n, so value == rank
  return v;
}

void test_quantile_ranks() {
  CHECK(quantile_rank(1000, 990) == 990);
  CHECK(beyond(1000, 990) == 10);
  CHECK(beyond(999, 990) == 9);  // one short of ten beyond p99
  CHECK(quantile_rank(100, 900) == 90);
  CHECK(beyond(100, 900) == 10);
  CHECK(quantile_rank(1, 500) == 1);
  CHECK(quantile_rank(3, 500) == 2);
  CHECK(beyond(0, 500) == 0);
  CHECK(std::isnan(perfbench::quantile({}, 500)));
  CHECK(perfbench::median({3.0, 1.0, 2.0}) == 2.0);
}

void test_summary_picks_highest_supported_tail() {
  using perfbench::summarize;
  // 16 samples (what the old serve bench read p99 from): no tail at all.
  perfbench::Summary s = summarize(iota_samples(16));
  CHECK(s.n == 16);
  CHECK(s.tail_permille == 0);
  CHECK(std::isnan(s.tail));
  CHECK(s.p50 == 8.0);
  // 100 samples: p90 is the highest with 10 beyond it.
  s = summarize(iota_samples(100));
  CHECK(s.tail_permille == 900);
  CHECK(s.tail == 90.0);
  // 1000 samples: p99, exactly 10 beyond.
  s = summarize(iota_samples(1000));
  CHECK(s.tail_permille == 990);
  CHECK(s.tail == 990.0);
  // 10000 samples: p99.9.
  s = summarize(iota_samples(10000));
  CHECK(s.tail_permille == 999);
  CHECK(s.tail == 9990.0);
  // Order of input does not matter.
  std::vector<double> rev = iota_samples(1000);
  std::reverse(rev.begin(), rev.end());
  CHECK(summarize(rev).tail == 990.0);
}

void test_fixed_tail_refuses_thin_samples() {
  CHECK(std::isnan(perfbench::fixed_tail(iota_samples(999), 990)));
  CHECK(perfbench::fixed_tail(iota_samples(1000), 990) == 990.0);
  CHECK(std::isnan(perfbench::fixed_tail(iota_samples(99), 900)));
  CHECK(perfbench::fixed_tail(iota_samples(100), 900) == 90.0);
}

void test_open_loop_schedule() {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0{};
  const perfbench::OpenLoopSchedule s(t0, 200.0);
  CHECK(s.due(0) == t0);
  CHECK(s.due(1) - t0 == std::chrono::milliseconds(5));
  CHECK(s.due(200) - t0 == std::chrono::seconds(1));
  // Due times depend only on the index: no drift accumulates.
  const perfbench::OpenLoopSchedule odd(t0, 3.0);
  CHECK(odd.due(3) - t0 == std::chrono::seconds(1));
  CHECK(odd.due(300000) - t0 == std::chrono::seconds(100000));
  for (std::size_t i = 1; i < 1000; ++i) CHECK(odd.due(i) > odd.due(i - 1));
  CHECK(perfbench::ms_between(s.due(0), s.due(2)) == 10.0);
}

void test_step_rule() {
  perfbench::StepVerdictInput v;
  v.attempted = 1200;
  v.tail_ms = 1.0;
  v.end_lag_ms = 0.5;
  CHECK(perfbench::step_passes(v, 5.0, 5.0));
  v.failed = 1;  // any failure fails the step
  CHECK(!perfbench::step_passes(v, 5.0, 5.0));
  v.failed = 0;
  v.tail_ms = 5.0;  // the limit is strict
  CHECK(!perfbench::step_passes(v, 5.0, 5.0));
  v.tail_ms = std::nan("");  // too few samples for a p99
  CHECK(!perfbench::step_passes(v, 5.0, 5.0));
  v.tail_ms = 1.0;
  v.end_lag_ms = 6.0;  // the backlog grew
  CHECK(!perfbench::step_passes(v, 5.0, 5.0));
  v.attempted = 0;
  v.end_lag_ms = 0;
  CHECK(!perfbench::step_passes(v, 5.0, 5.0));
}

void test_self_time() {
  using perfbench::Span;
  // request [0,100] > parse [0,10], store [10,60] > simulate [20,50]; render [60,90]
  std::vector<Span> spans = {
      {"request", 0, 100'000'000, -1, 1}, {"parse", 0, 10'000'000, 0, 1},
      {"store", 10'000'000, 60'000'000, 0, 1}, {"simulate", 20'000'000, 50'000'000, 2, 1},
      {"render", 60'000'000, 90'000'000, 0, 1},
  };
  const auto self = perfbench::Tracer::self_ms_of(spans);
  CHECK(self.at("request") == 10.0);
  CHECK(self.at("parse") == 10.0);
  CHECK(self.at("store") == 20.0);
  CHECK(self.at("simulate") == 30.0);
  CHECK(self.at("render") == 30.0);

  perfbench::Tracer off(false);
  { auto s = off.span("x", 1); }
  CHECK(off.spans().empty());
  perfbench::Tracer on(true);
  {
    auto outer = on.span("outer", 7);
    auto inner = on.span("inner", 7);
    inner.rename("renamed");
  }
  CHECK(on.spans().size() == 2);
  CHECK(on.spans()[1].parent == 0);
  CHECK(on.spans()[1].name == "renamed");
  CHECK(on.spans()[0].request == 7);
  CHECK(on.spans()[0].end_ns >= on.spans()[1].end_ns);
}

}  // namespace

int main() {
  test_quantile_ranks();
  test_summary_picks_highest_supported_tail();
  test_fixed_tail_refuses_thin_samples();
  test_open_loop_schedule();
  test_step_rule();
  test_self_time();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::puts("perfbench_test: all checks passed");
  return 0;
}
