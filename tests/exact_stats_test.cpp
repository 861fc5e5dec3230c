// The exact stats-only run is the measurement behind Table 2's speedups,
// Table 3's coherence events and Figure 5's cycle breakdown. For every
// benchmark under every scheme, on a clean wire and under CI's coherence
// fault spec, the Observer's record must agree with the Machine's counts:
// attaching it changes no checksum, cycle or counter; each processor's
// buckets tile the makespan; every counted machine event has one trace
// event behind it; and the histograms fed by the same hooks agree with
// those counts. The byte pins in cache_equivalence_test.cpp say that the
// document changed; these say which number went wrong.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "olden/bench/benchmark.hpp"
#include "olden/fault/fault_spec.hpp"
#include "olden/trace/observer.hpp"
#include "suite_grid.hpp"

namespace olden::bench {
namespace {

void expect_record_agrees(const trace::RunRecord& r, const BenchResult& run,
                          const char* scheme) {
  EXPECT_EQ(r.nprocs, ProcId{8});
  EXPECT_EQ(r.scheme, scheme);
  // Stats-only: events are counted, never streamed or dropped.
  EXPECT_EQ(r.events_streamed, 0u);
  EXPECT_EQ(r.events_dropped, 0u);
  EXPECT_EQ(r.makespan, run.total_cycles);

  const auto c = [&](const char* key) -> std::uint64_t {
    const auto it = r.counters.find(key);
    EXPECT_NE(it, r.counters.end()) << key;
    return it == r.counters.end() ? 0 : it->second;
  };
  EXPECT_EQ(c("makespan_cycles"), r.makespan);
  EXPECT_EQ(c("cache_hits"), run.stats.cache_hits);
  EXPECT_EQ(c("fault_messages"), run.stats.fault_messages);

  // Figure 5: every processor's buckets tile the whole run.
  ASSERT_EQ(r.breakdown.size(), r.nprocs);
  for (ProcId p = 0; p < r.nprocs; ++p) {
    std::uint64_t total = 0;
    for (Cycles b : r.breakdown[p]) total += b;
    EXPECT_EQ(total, r.makespan) << "proc " << p;
    EXPECT_LE(r.proc_clock[p], r.makespan) << "proc " << p;
  }

  using trace::EventKind;
  const auto events = [&](EventKind k) {
    return r.event_counts[static_cast<std::size_t>(k)];
  };
  EXPECT_EQ(events(EventKind::kCacheHit), c("cache_hits"));
  EXPECT_EQ(events(EventKind::kCacheMiss), c("cache_misses"));
  EXPECT_EQ(events(EventKind::kMigrationDepart), c("migrations"));
  EXPECT_EQ(events(EventKind::kMigrationArrive), c("migrations"));
  EXPECT_EQ(events(EventKind::kReturnStubSend), c("return_migrations"));
  EXPECT_EQ(events(EventKind::kReturnStubArrive), c("return_migrations"));
  EXPECT_EQ(events(EventKind::kFutureCreate), c("futurecalls"));
  EXPECT_EQ(events(EventKind::kFutureSteal), c("futures_stolen"));
  EXPECT_EQ(events(EventKind::kTouchBlock), c("touches_blocked"));
  EXPECT_EQ(events(EventKind::kCacheFlush), c("cache_flushes"));
  EXPECT_EQ(events(EventKind::kFaultDrop), c("fault_drops"));
  EXPECT_EQ(events(EventKind::kFaultDuplicate), c("fault_duplicates"));
  EXPECT_EQ(events(EventKind::kRetransmit), c("retransmissions"));
  EXPECT_EQ(events(EventKind::kDupSuppressed), c("duplicates_suppressed"));
  EXPECT_EQ(events(EventKind::kHiccup), c("hiccups_injected"));
  EXPECT_EQ(events(EventKind::kFaultDelay), c("fault_delays"));

  using trace::Hist;
  const auto hist = [&](Hist h) -> const trace::Histogram& {
    return r.hists[static_cast<std::size_t>(h)];
  };
  EXPECT_EQ(hist(Hist::kMissFillCycles).count(), c("cache_misses"));
  EXPECT_EQ(hist(Hist::kMigrationLatency).count(), c("migrations"));
  EXPECT_EQ(hist(Hist::kReturnLatency).count(), c("return_migrations"));
  EXPECT_EQ(hist(Hist::kWorklistDepth).count(), c("futurecalls"));
  EXPECT_EQ(hist(Hist::kPageHeat).sum(),
            c("cacheable_reads_remote") + c("cacheable_writes_remote"));
}

class ExactStats : public ::testing::TestWithParam<test::GridCell> {};

TEST_P(ExactStats, ObserverAgreesWithMachine) {
  const auto& [name, scheme] = GetParam();
  const Benchmark* b = find_benchmark(name);
  ASSERT_NE(b, nullptr);
  fault::FaultSpec spec;
  std::string err;
  ASSERT_TRUE(fault::parse_fault_spec(
      "drop=0.1,dup=0.05,delay=0.2:500,classes=fill:invalidate:ts_check",
      &spec, &err))
      << err;

  const fault::FaultSpec* const wires[] = {nullptr, &spec};
  for (const fault::FaultSpec* faults : wires) {
    SCOPED_TRACE(faults == nullptr ? "clean wire" : "coherence faults");
    BenchConfig cfg{.nprocs = 8, .scheme = scheme.scheme};
    cfg.tiny = true;
    cfg.faults = faults;
    cfg.fault_seed = 21;
    const BenchResult off = b->run(cfg);

    trace::Observer obs;
    obs.begin_run(name + "/exact");
    cfg.observer = &obs;
    const BenchResult on = b->run(cfg);

    EXPECT_EQ(on.checksum, off.checksum);
    EXPECT_EQ(on.build_cycles, off.build_cycles);
    EXPECT_EQ(on.total_cycles, off.total_cycles);
    EXPECT_TRUE(on.stats == off.stats);
    ASSERT_EQ(obs.runs().size(), 1u);
    expect_record_agrees(obs.runs()[0], on, scheme.name);
  }
}

INSTANTIATE_TEST_SUITE_P(FullSuite, ExactStats, test::grid(),
                         test::grid_name);

}  // namespace
}  // namespace olden::bench
