// Fault soak: sweep seeded fault schedules across every coherence scheme
// on two benchmarks and hold the plane to its two contracts —
//  * correctness: the checksum under any fault schedule equals the
//    fault-free checksum (the protocol recovers everything it loses),
//  * determinism: re-running the same (spec, seed) produces a
//    byte-identical binary trace, faults and retransmissions included.
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <tuple>

#include "olden/bench/benchmark.hpp"
#include "olden/fault/fault_spec.hpp"
#include "olden/trace/observer.hpp"
#include "trace_digest.hpp"

namespace olden::bench {
namespace {

constexpr std::uint64_t kFaultSeeds[] = {1, 2, 3, 5, 8, 13, 21, 34};

class FaultSoak : public ::testing::TestWithParam<
                      std::tuple<const char*, Coherence>> {};

/// FNV-1a digests of the soak's binary traces, one per entry of
/// kFaultSeeds. Reruns agreeing with each other proves determinism; these
/// pins prove the schedule itself has not moved.
struct PinnedSoak {
  const char* benchmark;
  Coherence scheme;
  std::uint64_t digests[std::size(kFaultSeeds)];
};
constexpr PinnedSoak kPinnedSoaks[] = {
    {"TreeAdd",
     Coherence::kLocalKnowledge,
     {0xcc44110e87cc1027ULL, 0xf9f17f03138ebc80ULL,
      0xe9c3df5229a11840ULL, 0xc6939cf8837c4656ULL,
      0xaed8b0db8c1cd2fcULL, 0x636b6513bc635db1ULL,
      0x3766a528e4d83dd9ULL, 0x1b733b80af1096f7ULL}},
    {"TreeAdd",
     Coherence::kEagerGlobal,
     {0x3a65c466dd789484ULL, 0xd8683d5aef3c2d31ULL,
      0x88267da04fdfe6feULL, 0x5d83772e92ccb100ULL,
      0x4084204f99d57abfULL, 0x070fa85ebe415791ULL,
      0xd487b5019e322134ULL, 0xa2f36c0a4f437a1eULL}},
    {"TreeAdd",
     Coherence::kBilateral,
     {0xae963e733ecffd4bULL, 0xa10bda9b8e905a26ULL,
      0x4c4c40c7c17902edULL, 0x7c62faba9913f916ULL,
      0x9c65e7c9e13e9ad2ULL, 0x635a5ff9b3a0ae9bULL,
      0xe496651835da68f0ULL, 0xb31398f6a395bfbeULL}},
    {"EM3D",
     Coherence::kLocalKnowledge,
     {0xdc0f9f179e7260fbULL, 0x22fc59822d6ddfc1ULL,
      0xba95bf531899fdbbULL, 0x539805328b6c68f7ULL,
      0x80867c6ebf28e16bULL, 0xa80ec626d71a2a9dULL,
      0x5cfda9ce665b28e0ULL, 0x7d0171f317890cd5ULL}},
    {"EM3D",
     Coherence::kEagerGlobal,
     {0xa9985466b7652f0eULL, 0x6265f5f7f08746e1ULL,
      0x6c588cb9c03a00c4ULL, 0x1a9fd718095ede43ULL,
      0x9b3fea828b3138f2ULL, 0x4bcbe7ee7a9e81aeULL,
      0x682423869f0a316aULL, 0x47df9c2af55b5c81ULL}},
    {"EM3D",
     Coherence::kBilateral,
     {0x050adff3992b1c67ULL, 0x585faf6ec9bc8221ULL,
      0x53e03c8fe5aae73dULL, 0x0cd99abb4a75b00fULL,
      0xbf85712fe591e694ULL, 0xefb3ac1270042bfeULL,
      0xe115052ba13d4785ULL, 0x2360d10374048f92ULL}},
};

std::uint64_t pinned_soak(const char* name, Coherence scheme,
                          std::size_t seed_index) {
  for (const PinnedSoak& p : kPinnedSoaks) {
    if (std::string(name) == p.benchmark && scheme == p.scheme) {
      return p.digests[seed_index];
    }
  }
  return 0;
}

TEST_P(FaultSoak, ChecksumsAndTracesAreStableAcrossSeeds) {
  const auto [name, scheme] = GetParam();
  const Benchmark* b = find_benchmark(name);
  ASSERT_NE(b, nullptr);

  fault::FaultSpec spec;
  std::string err;
  ASSERT_TRUE(fault::parse_fault_spec(
      "drop=0.1,dup=0.05,delay=0.15:300,hiccup=0.02:150,timeout=4000", &spec,
      &err))
      << err;

  BenchConfig clean_cfg{.nprocs = 4, .scheme = scheme};
  clean_cfg.tiny = true;
  const BenchResult clean = b->run(clean_cfg);

  for (std::size_t i = 0; i < std::size(kFaultSeeds); ++i) {
    const std::uint64_t seed = kFaultSeeds[i];
    std::string bytes[2];
    for (int rerun = 0; rerun < 2; ++rerun) {
      trace::Observer obs;
      obs.set_trace_enabled(true);
      obs.begin_run("soak");
      BenchConfig cfg = clean_cfg;
      cfg.observer = &obs;
      cfg.faults = &spec;
      cfg.fault_seed = seed;
      const BenchResult r = b->run(cfg);
      EXPECT_EQ(r.checksum, clean.checksum)
          << name << " seed " << seed << " rerun " << rerun;
      bytes[rerun] = test::trace_bytes(obs);
    }
    EXPECT_EQ(bytes[0], bytes[1]) << name << " seed " << seed;
    EXPECT_EQ(test::fnv1a(bytes[0]), pinned_soak(name, scheme, i))
        << "pin " << name << " " << static_cast<int>(scheme) << " seed "
        << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    TreeAddAndEm3d, FaultSoak,
    ::testing::Combine(::testing::Values("TreeAdd", "EM3D"),
                       ::testing::Values(Coherence::kLocalKnowledge,
                                         Coherence::kEagerGlobal,
                                         Coherence::kBilateral)));

// --- coherence-class soak --------------------------------------------------
//
// Same sweep, but the injector is restricted to the coherence message
// classes (fill, invalidate, ts_check): migrations and return stubs ride
// a perfect wire while every cache fill, invalidation push and timestamp
// round trip can drop, duplicate or straggle. The contracts are the same
// — fault-free checksums, and a clean drain (no pending protocol state
// left behind) after every seed.

class CoherenceFaultSoak : public ::testing::TestWithParam<
                               std::tuple<const char*, Coherence>> {};

TEST_P(CoherenceFaultSoak, ChecksumsInvariantAndProtocolDrainsClean) {
  const auto [name, scheme] = GetParam();
  const Benchmark* b = find_benchmark(name);
  ASSERT_NE(b, nullptr);

  fault::FaultSpec spec;
  std::string err;
  // The timeout must exceed the slowest fault-free round trip (a
  // migration ack, ~1770 cycles), or classes riding the perfect wire
  // would retransmit spuriously and trip the migration rows below.
  ASSERT_TRUE(fault::parse_fault_spec(
      "drop=0.15,dup=0.1,delay=0.25:700,timeout=2500,"
      "classes=fill:invalidate:ts_check",
      &spec, &err))
      << err;

  BenchConfig clean_cfg{.nprocs = 4, .scheme = scheme};
  clean_cfg.tiny = true;
  const BenchResult clean = b->run(clean_cfg);

  for (std::uint64_t seed : kFaultSeeds) {
    BenchConfig cfg = clean_cfg;
    cfg.faults = &spec;
    cfg.fault_seed = seed;
    const BenchResult r = b->run(cfg);
    EXPECT_EQ(r.checksum, clean.checksum) << name << " seed " << seed;
    // A run that terminates drained its protocol state (the machine
    // asserts this internally); the per-class ledger must agree that only
    // coherence classes were ever touched.
    const auto idx = [](MsgClass c) { return static_cast<std::size_t>(c); };
    EXPECT_EQ(r.stats.class_drops[idx(MsgClass::kMigration)], 0u);
    EXPECT_EQ(r.stats.class_dups[idx(MsgClass::kMigration)], 0u);
    EXPECT_EQ(r.stats.class_retries[idx(MsgClass::kMigration)], 0u);
    EXPECT_EQ(r.stats.class_drops[idx(MsgClass::kReturnStub)], 0u);
    EXPECT_EQ(r.stats.class_retries[idx(MsgClass::kReturnStub)], 0u);
    const std::uint64_t coherence_drops =
        r.stats.class_drops[idx(MsgClass::kFill)] +
        r.stats.class_drops[idx(MsgClass::kInvalidate)] +
        r.stats.class_drops[idx(MsgClass::kTsCheck)];
    EXPECT_EQ(r.stats.fault_drops, coherence_drops)
        << name << " seed " << seed;
    EXPECT_EQ(r.stats.class_retries[idx(MsgClass::kFill)] +
                  r.stats.class_retries[idx(MsgClass::kInvalidate)] +
                  r.stats.class_retries[idx(MsgClass::kTsCheck)],
              r.stats.retransmissions)
        << name << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    TreeAddAndEm3d, CoherenceFaultSoak,
    ::testing::Combine(::testing::Values("TreeAdd", "EM3D"),
                       ::testing::Values(Coherence::kLocalKnowledge,
                                         Coherence::kEagerGlobal,
                                         Coherence::kBilateral)));

// Breadth over depth: every benchmark in the suite, every scheme, one
// coherence-fault schedule — each cell's checksum must match the
// fault-free run and reproduce exactly on a rerun.
void check_all_benchmarks_under_coherence_faults(ProcId nprocs) {
  fault::FaultSpec spec;
  std::string err;
  ASSERT_TRUE(fault::parse_fault_spec(
      "drop=0.1,dup=0.05,delay=0.2:500,timeout=1200,"
      "classes=fill:invalidate:ts_check",
      &spec, &err))
      << err;
  for (const Benchmark* b : suite()) {
    for (Coherence scheme : {Coherence::kLocalKnowledge,
                             Coherence::kEagerGlobal, Coherence::kBilateral}) {
      BenchConfig cfg{.nprocs = nprocs, .scheme = scheme};
      cfg.tiny = true;
      const BenchResult clean = b->run(cfg);
      cfg.faults = &spec;
      cfg.fault_seed = 21;
      const BenchResult faulty = b->run(cfg);
      const BenchResult again = b->run(cfg);
      EXPECT_EQ(faulty.checksum, clean.checksum)
          << b->name() << " scheme " << static_cast<int>(scheme);
      EXPECT_EQ(again.checksum, faulty.checksum) << b->name();
      EXPECT_EQ(again.total_cycles, faulty.total_cycles)
          << b->name() << " scheme " << static_cast<int>(scheme);
    }
  }
}

TEST(CoherenceFaultSuite, AllBenchmarksAllSchemesStayCorrect) {
  check_all_benchmarks_under_coherence_faults(4);
}

// At p=8 a processor whose thread parks on a fill can go idle and steal a
// continuation while lazy task creation still holds the parent's writes
// in the parked thread's write log (Barnes-Hut global and bilateral).
TEST(CoherenceFaultSuite, AllBenchmarksAllSchemesStayCorrectAtP8) {
  check_all_benchmarks_under_coherence_faults(8);
}

}  // namespace
}  // namespace olden::bench
