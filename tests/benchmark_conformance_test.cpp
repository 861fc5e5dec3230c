// Suite-wide conformance: every benchmark must produce its host-reference
// checksum under every machine size, coherence scheme, and mechanism mode.
// This is the repository's strongest correctness net: a stale cache line,
// a mis-routed migration, or a broken coherence protocol shows up here as
// a checksum mismatch, not just as odd statistics.
#include <gtest/gtest.h>

#include "olden/bench/benchmark.hpp"

namespace olden::bench {
namespace {

struct Case {
  const char* name;
  ProcId nprocs;
  Coherence scheme;
  bool migrate_only;
};

std::string case_name(const ::testing::TestParamInfo<
                      std::tuple<const Benchmark*, Case>>& info) {
  const auto& [b, c] = info.param;
  std::string n = b->name() + std::string("_") + c.name;
  for (char& ch : n) {
    if (!isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return n;
}

class Conformance
    : public ::testing::TestWithParam<std::tuple<const Benchmark*, Case>> {};

TEST_P(Conformance, MatchesHostReference) {
  const auto& [b, c] = GetParam();
  BenchConfig cfg;
  cfg.nprocs = c.nprocs;
  cfg.scheme = c.scheme;
  cfg.migrate_only = c.migrate_only;
  const BenchResult res = b->run(cfg);
  EXPECT_EQ(res.checksum, b->reference_checksum(cfg))
      << b->name() << " diverged at P=" << c.nprocs << " scheme "
      << to_string(c.scheme) << (c.migrate_only ? " (migrate-only)" : "");
  EXPECT_GT(res.total_cycles, 0u);
}

const Case kCases[] = {
    {"seq1", 1, Coherence::kLocalKnowledge, false},
    {"local4", 4, Coherence::kLocalKnowledge, false},
    {"local32", 32, Coherence::kLocalKnowledge, false},
    {"global32", 32, Coherence::kEagerGlobal, false},
    {"bilateral32", 32, Coherence::kBilateral, false},
    {"migonly8", 8, Coherence::kLocalKnowledge, true},
};

INSTANTIATE_TEST_SUITE_P(
    Suite, Conformance,
    ::testing::Combine(::testing::ValuesIn(suite()),
                       ::testing::ValuesIn(kCases)),
    case_name);

// The heuristic must land on the choice column of Table 2: benchmarks the
// paper lists as "M" satisfy all remote references by migration alone.
TEST(SuiteShape, HeuristicChoiceMatchesTable2) {
  BenchConfig cfg;
  cfg.nprocs = 32;
  for (const Benchmark* b : suite()) {
    const BenchResult res = b->run(cfg);
    const bool uses_remote_caching = res.stats.remote_cacheable() > 0;
    if (b->heuristic_choice() == "M") {
      EXPECT_EQ(res.stats.remote_cacheable(), 0u)
          << b->name() << " should satisfy remote references by migration";
    } else {
      EXPECT_TRUE(uses_remote_caching)
          << b->name() << " should use software caching for remote data";
      EXPECT_GT(res.stats.migrations, 0u)
          << b->name() << " should also migrate";
    }
  }
}

// The cell runner computes one host reference per benchmark for all the
// cells of a table, so a reference may read the size and seed and nothing
// that varies between cells: not the processor count, the scheme or the
// role.
TEST(SuiteShape, ReferenceReadsOnlySizeAndSeed) {
  for (const Benchmark* b : suite()) {
    BenchConfig base;
    base.tiny = true;
    const std::uint64_t want = b->reference_checksum(base);
    for (const ProcId nprocs : {1u, 8u}) {
      for (const Coherence scheme : {Coherence::kLocalKnowledge,
                                     Coherence::kEagerGlobal,
                                     Coherence::kBilateral}) {
        for (int role = 0; role < 3; ++role) {
          BenchConfig cfg = base;
          cfg.nprocs = nprocs;
          cfg.scheme = scheme;
          cfg.sequential_baseline = role == 1;
          cfg.migrate_only = role == 2;
          EXPECT_EQ(b->reference_checksum(cfg), want)
              << b->name() << " at P=" << nprocs << " scheme "
              << to_string(scheme) << " role " << role;
        }
      }
    }
  }
}

}  // namespace
}  // namespace olden::bench
