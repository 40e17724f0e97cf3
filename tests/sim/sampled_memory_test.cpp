// SimFidelity::kSampled at the memory-system level: the sampled residue
// class is replayed bit-identically to exact mode, pinned hot ranges are
// exempt from modeling, modeled outcomes keep the counter algebra sound,
// and everything is deterministic for a fixed seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/fixtures.hpp"
#include "sim/address_space.hpp"
#include "sim/memory_system.hpp"

namespace pp::sim {
namespace {

// seed 0 -> tracked residue 0
MachineConfig sampled_config(std::uint64_t seed = 0) { return pp::test::sampled_machine(seed); }

Addr addr_of_line(Addr line) { return line << kLineShift; }

TEST(SampledMemory, TrackedResidueClassification) {
  const MachineConfig cfg = sampled_config(0);
  MemorySystem ms(cfg);
  EXPECT_TRUE(ms.line_is_exact(0));
  EXPECT_TRUE(ms.line_is_exact(16));
  EXPECT_TRUE(ms.line_is_exact(4096));
  EXPECT_FALSE(ms.line_is_exact(1));
  EXPECT_FALSE(ms.line_is_exact(7));
  EXPECT_FALSE(ms.line_is_exact(4097));

  // The tracked residue follows the seed.
  MemorySystem ms5(sampled_config(5));
  EXPECT_TRUE(ms5.line_is_exact(5));
  EXPECT_TRUE(ms5.line_is_exact(16 + 5));
  EXPECT_FALSE(ms5.line_is_exact(0));
}

TEST(SampledMemory, ExactModeTracksEverything) {
  MachineConfig cfg;  // default kExact
  MemorySystem ms(cfg);
  for (Addr line = 0; line < 64; ++line) EXPECT_TRUE(ms.line_is_exact(line));
}

TEST(SampledMemory, PinnedRangesStayExact) {
  const MachineConfig cfg = sampled_config(0);
  AddressSpace as(cfg.sockets);
  const Addr base = as.alloc(64 * kLineBytes, 0);
  as.pin_hot(base, 64 * kLineBytes);

  MemorySystem ms(cfg);
  ms.bind_pins(&as);
  const Addr first = line_of(base);
  for (Addr line = first; line < first + 64; ++line) {
    EXPECT_TRUE(ms.line_is_exact(line)) << line;
  }
  // A line outside every pin with an untracked residue is modeled.
  EXPECT_FALSE(ms.line_is_exact(first + 64 + 1));
}

TEST(AddressSpacePins, MergeAndLookup) {
  AddressSpace as(1);
  const Addr a = as.alloc(4 * kLineBytes, 0);
  const Addr b = as.alloc(4 * kLineBytes, 0);  // adjacent to a
  const Addr far = as.alloc(kLineBytes, 0, 1 << 16);
  as.pin_hot(a, 4 * kLineBytes);
  as.pin_hot(b, 4 * kLineBytes);
  as.pin_hot(far, kLineBytes);
  EXPECT_EQ(as.pinned_ranges(), 2U);  // a and b coalesce
  EXPECT_TRUE(as.is_pinned_line(line_of(a)));
  EXPECT_TRUE(as.is_pinned_line(line_of(b) + 3));
  EXPECT_TRUE(as.is_pinned_line(line_of(far)));
  EXPECT_FALSE(as.is_pinned_line(line_of(far) - 1));
  EXPECT_FALSE(as.is_pinned_line(line_of(b) + 4));
}

// Accesses confined to the tracked residue class must behave bit-identically
// to exact mode: same latencies, same counter deltas, in any order.
TEST(SampledMemory, TrackedAccessesBitIdenticalToExact) {
  MachineConfig exact_cfg;
  const MachineConfig samp_cfg = sampled_config(0);
  MemorySystem exact(exact_cfg);
  MemorySystem sampled(samp_cfg);

  std::uint64_t s = 42;
  Cycles now = 0;
  for (int i = 0; i < 5000; ++i) {
    // Lines with residue 0 mod 16, spread over many sets and both domains.
    const Addr line = ((splitmix64(s) % (1u << 18)) * 16) |
                      ((i % 3 == 0) ? (Addr{1} << (kDomainShift - kLineShift)) : 0);
    const AccessType t = (i % 4 == 3) ? AccessType::kWrite : AccessType::kRead;
    const int core = i % 12;
    const MemorySystem::Outcome a = exact.access(core, addr_of_line(line), t, now);
    const MemorySystem::Outcome b = sampled.access(core, addr_of_line(line), t, now);
    ASSERT_EQ(a.latency, b.latency) << "access " << i;
    ASSERT_EQ(a.delta.l1_hit, b.delta.l1_hit);
    ASSERT_EQ(a.delta.l2_hit, b.delta.l2_hit);
    ASSERT_EQ(a.delta.l3_ref, b.delta.l3_ref);
    ASSERT_EQ(a.delta.l3_miss, b.delta.l3_miss);
    ASSERT_EQ(a.delta.xcore_hit, b.delta.xcore_hit);
    ASSERT_EQ(a.delta.mc_queue, b.delta.mc_queue);
    now += 7;
  }
}

// Modeled accesses must keep the counter algebra coherent: exactly one of
// l1_hit / l2_hit / l3_hit / l3_miss per access, l3_ref set iff the access
// reached the shared cache, and a repeat touch of the same line is an L1 hit.
TEST(SampledMemory, ModeledOutcomesAreSane) {
  MemorySystem ms(sampled_config(0));
  std::uint64_t s = 7;
  Cycles now = 0;
  for (int i = 0; i < 20000; ++i) {
    Addr line = splitmix64(s) % (1u << 20);
    if ((line & 15) == 0) ++line;  // force the modeled path
    const MemorySystem::Outcome o = ms.access(0, addr_of_line(line), AccessType::kRead, now);
    const auto& d = o.delta;
    const int levels = d.l1_hit + d.l2_hit + (d.l3_ref - d.l3_miss) + d.l3_miss;
    ASSERT_EQ(levels, 1);
    ASSERT_EQ(d.l1_hit + d.l1_miss, 1);
    if (d.l3_ref != 0) {
      ASSERT_EQ(d.l2_miss, 1);
    }
    if (d.l1_hit != 0) {
      ASSERT_EQ(o.latency, 0U);
    }

    // Immediate repeat: guaranteed L1 hit (modeled MRU).
    const MemorySystem::Outcome r = ms.access(0, addr_of_line(line), AccessType::kRead, now);
    ASSERT_EQ(r.delta.l1_hit, 1);
    ASSERT_EQ(r.latency, 0U);
    now += 3;
  }
}

TEST(SampledMemory, DeterministicForFixedSeed) {
  MemorySystem a(sampled_config(99));
  MemorySystem b(sampled_config(99));
  std::uint64_t s = 1234;
  Cycles now = 0;
  std::uint64_t lat_a = 0;
  std::uint64_t lat_b = 0;
  std::uint64_t miss_a = 0;
  std::uint64_t miss_b = 0;
  for (int i = 0; i < 30000; ++i) {
    const Addr line = splitmix64(s) % (1u << 20);
    const AccessType t = (i & 7) == 0 ? AccessType::kWrite : AccessType::kRead;
    const int core = i % 12;
    const MemorySystem::Outcome oa = a.access(core, addr_of_line(line), t, now);
    const MemorySystem::Outcome ob = b.access(core, addr_of_line(line), t, now);
    lat_a += oa.latency;
    lat_b += ob.latency;
    miss_a += oa.delta.l3_miss;
    miss_b += ob.delta.l3_miss;
    ASSERT_EQ(oa.latency, ob.latency) << i;
    now += 2;
  }
  EXPECT_EQ(lat_a, lat_b);
  EXPECT_EQ(miss_a, miss_b);
  EXPECT_GT(miss_a, 0U);
}

// The counter-scaling property behind set sampling: a uniform random access
// stream's modeled hit/miss mix must track the exactly-replayed mix of the
// same stream, because the tracked residue class is an unbiased 1/16 sample
// of it. (This is "scaling the sampled sets' counters by the sampling
// factor" expressed through the calibrated estimator.)
TEST(SampledMemory, ModeledMissRateTracksExact) {
  MachineConfig exact_cfg;
  MemorySystem exact(exact_cfg);
  MemorySystem sampled(sampled_config(0));

  const Addr lines = 1u << 19;  // 32 MB working set: misses dominate
  std::uint64_t s1 = 5;
  std::uint64_t s2 = 5;
  Cycles now = 0;
  std::uint64_t exact_miss = 0;
  std::uint64_t exact_refs = 0;
  std::uint64_t samp_miss = 0;
  std::uint64_t samp_refs = 0;
  // Warm into steady state first: the compulsory-miss ramp is a moving
  // target the calibration necessarily trails by its decay window.
  const int warm = 700000;
  const int n = 300000;
  for (int i = 0; i < warm + n; ++i) {
    const Addr la = splitmix64(s1) % lines;
    const Addr lb = splitmix64(s2) % lines;
    const auto oa = exact.access(0, addr_of_line(la), AccessType::kRead, now);
    const auto ob = sampled.access(0, addr_of_line(lb), AccessType::kRead, now);
    if (i >= warm) {
      exact_miss += oa.delta.l3_miss;
      exact_refs += 1;
      samp_miss += ob.delta.l3_miss;
      samp_refs += 1;
    }
    now += 2;
  }
  const double exact_rate = static_cast<double>(exact_miss) / static_cast<double>(exact_refs);
  const double samp_rate = static_cast<double>(samp_miss) / static_cast<double>(samp_refs);
  EXPECT_NEAR(samp_rate, exact_rate, 0.02)
      << "modeled miss rate diverged from the exact replay";
}

}  // namespace
}  // namespace pp::sim
