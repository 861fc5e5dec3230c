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
     {0x2dfc87a958f238beULL, 0x759d274c12b2a92bULL,
      0xb3c79c54fed8c6d5ULL, 0x8d76970f05b4ca97ULL,
      0x6ba952fa9e4bc0baULL, 0x7be0bfb76f49ba9aULL,
      0x78040e6212151ddfULL, 0x8977270dd0e27a49ULL}},
    {"TreeAdd",
     Coherence::kEagerGlobal,
     {0x7196cbe8abbaf8b7ULL, 0x99bb2ed9cf296b09ULL,
      0x6d07706532ba7d36ULL, 0xa0eff252c37ec9d6ULL,
      0xe51e5368f6e07a52ULL, 0xb2ac53bc8c8b9a52ULL,
      0x078255ac894e1249ULL, 0x2278307362ea5082ULL}},
    {"TreeAdd",
     Coherence::kBilateral,
     {0x11e373de93a15ccdULL, 0x5d3010fbb0dac352ULL,
      0xeaf2f26950ade1b5ULL, 0x6517cf5779a6368cULL,
      0x0c9dbe80e5f79219ULL, 0x5661b50ba7e00d08ULL,
      0x851f55cb4751d43aULL, 0xc37e06fe5d7dabbbULL}},
    {"EM3D",
     Coherence::kLocalKnowledge,
     {0x317dff97853ed47bULL, 0xfdec3e1c19de7483ULL,
      0xb9b75ef0757daa63ULL, 0x7fddc9f4ae7829d8ULL,
      0x74c712cbc8c530d6ULL, 0xf6edee4b3a78fb8cULL,
      0x9f1d68c9de135fafULL, 0xd316e000256963a7ULL}},
    {"EM3D",
     Coherence::kEagerGlobal,
     {0xea22f41c438ecc46ULL, 0xb613f8988105f30fULL,
      0xe0e963a86ab3461bULL, 0x555acfa4a759697eULL,
      0x257a3638551f6400ULL, 0xea5f39e988f7f7f5ULL,
      0x5c51150f207a31e8ULL, 0x3eec8ea3e481473eULL}},
    {"EM3D",
     Coherence::kBilateral,
     {0x27544d1952da6ee4ULL, 0xe9809e8e8ba837fcULL,
      0x19f04d31630e6f78ULL, 0xda29e53e0885d380ULL,
      0xb1bd7ea339c5cc52ULL, 0xdc87c7bd86e6dafdULL,
      0xd8ab2fc912b50220ULL, 0xf381f837f1b443c2ULL}},
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
      test::StreamedObserver obs;
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

// At p=8 other processors steal continuations while a future body that
// lazy task creation runs as its parent's thread still holds the
// parent's writes in its write log and its fills fight the wire
// (Barnes-Hut global and bilateral): the stolen continuation must still
// read current lines.
TEST(CoherenceFaultSuite, AllBenchmarksAllSchemesStayCorrectAtP8) {
  check_all_benchmarks_under_coherence_faults(8);
}

}  // namespace
}  // namespace olden::bench
