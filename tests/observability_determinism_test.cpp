// The zero-overhead contract: attaching an observer — even with full event
// tracing and an event limit small enough to exercise the drop path — must
// not change a single virtual cycle or checksum. TreeAdd and EM3D are run
// A/B (observer off vs on) across processor counts and all three coherence
// schemes; any drift means an instrumentation hook touched the clocks.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "olden/bench/benchmark.hpp"
#include "olden/trace/observer.hpp"
#include "trace_digest.hpp"

namespace olden::bench {
namespace {

class ObservabilityAB
    : public ::testing::TestWithParam<
          std::tuple<const char*, ProcId, Coherence>> {};

TEST_P(ObservabilityAB, TracingDoesNotPerturbTheRun) {
  const auto [name, nprocs, scheme] = GetParam();
  const Benchmark* b = find_benchmark(name);
  ASSERT_NE(b, nullptr);

  BenchConfig cfg{.nprocs = nprocs, .scheme = scheme};
  const BenchResult off = b->run(cfg);

  trace::Observer obs;
  obs.set_trace_enabled(true);
  obs.set_event_limit(1000);  // small: force the drop path mid-run
  obs.begin_run(std::string(name) + "/ab");
  cfg.observer = &obs;
  const BenchResult on = b->run(cfg);

  EXPECT_EQ(on.checksum, off.checksum);
  EXPECT_EQ(on.total_cycles, off.total_cycles);
  EXPECT_EQ(on.kernel_cycles, off.kernel_cycles);
  EXPECT_EQ(on.build_cycles, off.build_cycles);
  EXPECT_EQ(on.stats.migrations, off.stats.migrations);
  EXPECT_EQ(on.stats.cache_misses, off.stats.cache_misses);
  EXPECT_EQ(on.stats.futurecalls, off.stats.futurecalls);

  // The observed run actually observed something.
  ASSERT_GE(obs.runs().size(), 1u);
  std::uint64_t events = 0;
  for (const auto& r : obs.runs()) {
    EXPECT_TRUE(r.counters.contains("makespan_cycles")) << r.label;
    events += r.events.size() + r.events_dropped;
  }
  EXPECT_GT(events, 0u);

  // Third arm: tracing plus the profiling plane. Profiling hooks charge
  // zero virtual cycles, so the run and even the trace byte stream must
  // match the profile-off traced run exactly.
  trace::Observer obs_prof;
  obs_prof.set_trace_enabled(true);
  obs_prof.set_event_limit(1000);
  obs_prof.enable_profile();
  obs_prof.begin_run(std::string(name) + "/ab");
  cfg.observer = &obs_prof;
  const BenchResult prof = b->run(cfg);

  EXPECT_EQ(prof.checksum, off.checksum);
  EXPECT_EQ(prof.total_cycles, off.total_cycles);
  EXPECT_EQ(prof.kernel_cycles, off.kernel_cycles);
  EXPECT_EQ(test::trace_bytes(obs_prof), test::trace_bytes(obs));
  ASSERT_GE(obs_prof.runs().size(), 1u);
  EXPECT_FALSE(obs_prof.runs().back().profile.sites.empty());
}

INSTANTIATE_TEST_SUITE_P(
    TreeAddAndEm3d, ObservabilityAB,
    ::testing::Combine(::testing::Values("TreeAdd", "EM3D"),
                       ::testing::Values(ProcId{1}, ProcId{4}, ProcId{8}),
                       ::testing::Values(Coherence::kLocalKnowledge,
                                         Coherence::kEagerGlobal,
                                         Coherence::kBilateral)));

// Causal-chain assignment (chain ids, event ids, parent links) must be as
// deterministic as the run itself: two identical runs produce
// byte-identical binary traces, so a committed trace diff is always a
// behavioral diff, never id-assignment noise.
TEST(ObservabilityDeterminism, RepeatedRunsProduceByteIdenticalTraces) {
  const Benchmark* b = find_benchmark("TreeAdd");
  ASSERT_NE(b, nullptr);
  std::string bytes[2];
  std::uint64_t cycles[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    trace::Observer obs;
    obs.set_trace_enabled(true);
    obs.begin_run("repeat");
    BenchConfig cfg{.nprocs = 4};
    cfg.tiny = true;
    cfg.observer = &obs;
    const BenchResult r = b->run(cfg);
    cycles[i] = r.total_cycles;
    bytes[i] = test::trace_bytes(obs);
  }
  EXPECT_EQ(cycles[0], cycles[1]);
  EXPECT_EQ(bytes[0], bytes[1]);
}

// Chain bookkeeping must never leak into the simulation: a run traced
// with a tight retention limit (different drop pattern, same events
// emitted) costs exactly the same virtual cycles as an untraced run —
// new_chain() and id assignment read the clocks, they never advance them
// or consume simulation RNG.
TEST(ObservabilityDeterminism, ChainAssignmentIsFreeUnderAnyRetention) {
  const Benchmark* b = find_benchmark("TreeAdd");
  ASSERT_NE(b, nullptr);
  BenchConfig cfg{.nprocs = 8};
  cfg.tiny = true;
  const BenchResult off = b->run(cfg);
  for (std::uint64_t limit : {std::uint64_t{1}, std::uint64_t{1000000}}) {
    trace::Observer obs;
    obs.set_trace_enabled(true);
    obs.set_event_limit(limit);
    obs.begin_run("limit=" + std::to_string(limit));
    cfg.observer = &obs;
    const BenchResult on = b->run(cfg);
    EXPECT_EQ(on.total_cycles, off.total_cycles) << limit;
    EXPECT_EQ(on.checksum, off.checksum) << limit;
  }
}

}  // namespace
}  // namespace olden::bench
