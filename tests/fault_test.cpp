// Fault plane unit + property tests: spec parsing, the checksum-preserving
// contract of the reliable-delivery protocol, retry-bucket accounting,
// hiccup injection, a plane that injects nothing moving no cycle, and the
// hang watchdog.
#include <gtest/gtest.h>

#include <regex>
#include <string>

#include "olden/bench/benchmark.hpp"
#include "olden/fault/fault_plane.hpp"
#include "olden/fault/fault_spec.hpp"
#include "olden/olden.hpp"
#include "olden/profile/feedback.hpp"
#include "olden/trace/observer.hpp"
#include "suite_grid.hpp"
#include "trace_digest.hpp"

namespace olden {
namespace {

using fault::FaultSpec;
using fault::parse_fault_spec;

// --- spec grammar ----------------------------------------------------------

TEST(FaultSpecParse, FullGrammarRoundTrips) {
  FaultSpec s;
  std::string err;
  ASSERT_TRUE(parse_fault_spec(
      "drop=0.1,dup=0.05,delay=0.2:300,hiccup=0.01:500,timeout=6000,"
      "retries=10",
      &s, &err))
      << err;
  EXPECT_TRUE(s.enabled);
  EXPECT_DOUBLE_EQ(s.drop, 0.1);
  EXPECT_DOUBLE_EQ(s.dup, 0.05);
  EXPECT_DOUBLE_EQ(s.delay, 0.2);
  EXPECT_EQ(s.delay_cycles, 300u);
  EXPECT_DOUBLE_EQ(s.hiccup, 0.01);
  EXPECT_EQ(s.hiccup_cycles, 500u);
  EXPECT_EQ(s.ack_timeout, 6000u);
  EXPECT_EQ(s.max_retries, 10u);
}

TEST(FaultSpecParse, DisabledSpellings) {
  for (const char* text : {"", "none", "off"}) {
    FaultSpec s;
    std::string err;
    ASSERT_TRUE(parse_fault_spec(text, &s, &err)) << text << ": " << err;
    EXPECT_FALSE(s.enabled) << text;
  }
}

TEST(FaultSpecParse, RejectsMalformedSpecs) {
  const char* bad[] = {
      "drop",                 // no value
      "drop=",                // empty value
      "drop=abc",             // not a number
      "drop=1.5",             // probability out of range
      "drop=-0.1",            // negative probability
      "drop=nan",             // NaN passes every range comparison
      "delay=nan:300",        // likewise for a delay probability
      "hiccup=nan:5",         // and a hiccup probability
      "delay=0.5",            // missing :CYCLES
      "delay=0.5:0",          // zero delay cycles with positive probability
      "burst=100:200:2",      // unknown key: there are no burst windows
      "burst=0:0:2",          // likewise
      "hiccup=0.5",           // missing :CYCLES
      "timeout=0",            // protocol needs a positive timeout
      "retries=0",            // zero retries can never deliver through a drop
      "retries=100000",       // past the documented cap
      "frobnicate=1",         // unknown key
      "drop=0.1,,dup=0.1",    // empty field
      "drop=0.1,drop=0.2",    // duplicate key (last-wins would hide typos)
      "timeout=99999999999999999999",  // overflows uint64
      "timeout=4294967297",   // past 2^32 cycles: backoff would wrap
      "delay=0.1:4294967297",  // likewise for an injected delay
      "hiccup=0.1:4294967297",  // and a hiccup
      "burst=100:50:inf",     // unknown key, whatever the fields
      "burst=100:50:nan",     // likewise
      "classes=",             // empty class mask
      "classes=fill:fill",    // duplicate class
      "classes=fill:frobs",   // unknown class
  };
  for (const char* text : bad) {
    FaultSpec s;
    std::string err;
    EXPECT_FALSE(parse_fault_spec(text, &s, &err)) << text;
    EXPECT_FALSE(err.empty()) << text;
  }
}

TEST(FaultSpecParse, ErrorsNameTheOffendingToken) {
  // A spec error in a long CI invocation is only actionable if the
  // message points at the exact token that failed.
  const struct {
    const char* text;
    const char* token;
  } cases[] = {
      {"drop=0.1,drop=0.2", "duplicate key 'drop'"},
      {"timeout=99999999999999999999", "99999999999999999999"},
      {"timeout=4294967297", "'timeout' must be at most 4294967296"},
      {"delay=0.1:4294967297", "'delay cycles' must be at most"},
      {"hiccup=0.1:4294967297", "'hiccup cycles' must be at most"},
      {"burst=100:50:inf", "unknown key 'burst'"},
      {"delay=nan:300", "'delay' needs a probability in [0,1], got 'nan'"},
      {"classes=fill:frobs", "unknown class 'frobs'"},
      {"classes=fill:fill", "duplicate class 'fill'"},
      {"classes=", "unknown class ''"},
      {"drop=0.1,,dup=0.1", "expected key=value"},
      {"warble=1", "unknown key 'warble'"},
  };
  for (const auto& c : cases) {
    FaultSpec s;
    std::string err;
    ASSERT_FALSE(parse_fault_spec(c.text, &s, &err)) << c.text;
    EXPECT_NE(err.find(c.token), std::string::npos)
        << c.text << " -> " << err;
  }
}

TEST(FaultSpecParse, ClassMaskRoundTripsAndGates) {
  FaultSpec s;
  std::string err;
  ASSERT_TRUE(
      parse_fault_spec("drop=0.5,classes=fill:ts_check,timeout=900", &s, &err))
      << err;
  EXPECT_TRUE(s.class_enabled(MsgClass::kFill));
  EXPECT_TRUE(s.class_enabled(MsgClass::kTsCheck));
  EXPECT_FALSE(s.class_enabled(MsgClass::kMigration));
  EXPECT_FALSE(s.class_enabled(MsgClass::kInvalidate));

  // An omitted classes key means every class.
  FaultSpec all;
  ASSERT_TRUE(parse_fault_spec("drop=0.1", &all, &err)) << err;
  EXPECT_EQ(all.class_mask, FaultSpec::kAllClasses);
}

// --- protocol correctness --------------------------------------------------

FaultSpec moderate_spec() {
  FaultSpec s;
  std::string err;
  EXPECT_TRUE(parse_fault_spec(
      "drop=0.15,dup=0.1,delay=0.2:400,hiccup=0.05:200,timeout=4000", &s,
      &err))
      << err;
  return s;
}

TEST(FaultPlane, ChecksumsSurviveFaultsAcrossSchemes) {
  const bench::Benchmark* b = bench::find_benchmark("TreeAdd");
  ASSERT_NE(b, nullptr);
  const FaultSpec spec = moderate_spec();
  for (Coherence scheme : {Coherence::kLocalKnowledge, Coherence::kEagerGlobal,
                           Coherence::kBilateral}) {
    bench::BenchConfig cfg{.nprocs = 4, .scheme = scheme};
    cfg.tiny = true;
    const bench::BenchResult clean = b->run(cfg);

    cfg.faults = &spec;
    cfg.fault_seed = 42;
    const bench::BenchResult faulty = b->run(cfg);

    EXPECT_EQ(faulty.checksum, clean.checksum);
    // The wire actually misbehaved and the protocol actually recovered.
    EXPECT_GT(faulty.stats.fault_messages, 0u);
    EXPECT_GT(faulty.stats.fault_drops, 0u);
    EXPECT_GT(faulty.stats.retransmissions, 0u);
    EXPECT_GT(faulty.stats.acks_sent, 0u);
    // Recovery costs time; it must never cost correctness.
    EXPECT_GE(faulty.total_cycles, clean.total_cycles);
  }
}

TEST(FaultPlane, SameSeedReproducesByteIdenticalTraces) {
  const bench::Benchmark* b = bench::find_benchmark("TreeAdd");
  ASSERT_NE(b, nullptr);
  const FaultSpec spec = moderate_spec();
  std::string bytes[2];
  for (int i = 0; i < 2; ++i) {
    test::StreamedObserver obs;
    obs.begin_run("fault-repeat");
    bench::BenchConfig cfg{.nprocs = 4};
    cfg.tiny = true;
    cfg.observer = &obs;
    cfg.faults = &spec;
    cfg.fault_seed = 7;
    (void)b->run(cfg);
    bytes[i] = test::trace_bytes(obs);
  }
  EXPECT_EQ(bytes[0], bytes[1]);
}

TEST(FaultPlane, RetryBucketChargedAndAccountingStaysExhaustive) {
  const bench::Benchmark* b = bench::find_benchmark("TreeAdd");
  ASSERT_NE(b, nullptr);
  const FaultSpec spec = moderate_spec();
  trace::Observer obs;
  obs.begin_run("fault-buckets");
  bench::BenchConfig cfg{.nprocs = 4};
  cfg.tiny = true;
  cfg.observer = &obs;
  cfg.faults = &spec;
  cfg.fault_seed = 3;
  const bench::BenchResult r = b->run(cfg);

  ASSERT_EQ(obs.runs().size(), 1u);
  const trace::RunRecord& run = obs.runs()[0];
  const auto retry =
      static_cast<std::size_t>(trace::CycleBucket::kRetry);
  std::uint64_t retry_total = 0;
  for (const trace::BucketCycles& row : run.breakdown) {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < trace::kNumBuckets; ++i) sum += row[i];
    // Exhaustive accounting: every processor's buckets tile the makespan
    // exactly, protocol overhead included.
    EXPECT_EQ(sum, run.makespan);
    retry_total += row[retry];
  }
  EXPECT_GT(retry_total, 0u);
  EXPECT_EQ(run.makespan, r.total_cycles);
}

TEST(FaultPlane, HiccupsStallAndAreCounted) {
  const bench::Benchmark* b = bench::find_benchmark("TreeAdd");
  ASSERT_NE(b, nullptr);
  FaultSpec spec;
  std::string err;
  ASSERT_TRUE(parse_fault_spec("hiccup=1.0:50", &spec, &err)) << err;
  bench::BenchConfig cfg{.nprocs = 4};
  cfg.tiny = true;
  cfg.faults = &spec;
  const bench::BenchResult r = b->run(cfg);

  EXPECT_GT(r.stats.hiccups_injected, 0u);
  // hiccup=1.0:50 stalls every delivery by exactly [1,50] cycles.
  EXPECT_GE(r.stats.hiccup_cycles, r.stats.hiccups_injected);
  EXPECT_LE(r.stats.hiccup_cycles, r.stats.hiccups_injected * 50);
  EXPECT_EQ(r.checksum, b->run({.nprocs = 4, .tiny = true}).checksum);
}

// --- a plane that injects nothing moves no cycle ---------------------------

/// A stats document with the wire ledger zeroed: the counts of messages
/// the plane saw, which a run without a plane leaves at 0.
std::string zero_wire_ledger(const std::string& stats) {
  static const std::regex ledger(
      "\"(fault_messages|acks_sent|coherence_requests|sent)\":[0-9]+");
  return std::regex_replace(stats, ledger, "\"$1\":0");
}

class ZeroFaults : public ::testing::TestWithParam<test::GridCell> {};

// Installing a plane, disabled or injecting nothing, must not perturb a
// byte of any observability artifact: the trace, the feedback document,
// and the stats document apart from the plane's own wire ledger (the
// messages it saw, all of which arrived on time).
TEST_P(ZeroFaults, ByteIdenticalToNoPlane) {
  const auto& [name, scheme] = GetParam();
  const bench::Benchmark* b = bench::find_benchmark(name);
  ASSERT_NE(b, nullptr);
  FaultSpec disabled;
  FaultSpec zero;
  std::string err;
  ASSERT_TRUE(parse_fault_spec("none", &disabled, &err)) << err;
  ASSERT_TRUE(parse_fault_spec("drop=0", &zero, &err)) << err;
  const FaultSpec* const specs[] = {nullptr, &disabled, &zero};
  const char* const labels[] = {"no plane", "none", "drop=0"};

  for (const ProcId nprocs : {ProcId{8}, ProcId{5}}) {
    std::string traces[3], stats[3], profiles[3];
    for (int i = 0; i < 3; ++i) {
      test::StreamedObserver obs;
      obs.enable_profile();
      obs.begin_run("zero-ab", {{"benchmark", name}});
      bench::BenchConfig cfg{.nprocs = nprocs, .scheme = scheme.scheme};
      cfg.tiny = true;
      cfg.observer = &obs;
      cfg.faults = specs[i];
      (void)b->run(cfg);
      traces[i] = test::trace_bytes(obs);
      stats[i] = zero_wire_ledger(trace::stats_json(obs));
      profiles[i] = profile::feedback_from_profile(obs.runs());
    }
    for (int i = 1; i < 3; ++i) {
      SCOPED_TRACE(std::string(labels[i]) + " at p=" +
                   std::to_string(nprocs));
      EXPECT_TRUE(traces[i] == traces[0])
          << "trace digest " << test::fnv1a(traces[i]) << " vs "
          << test::fnv1a(traces[0]);
      EXPECT_EQ(stats[i], stats[0]);
      EXPECT_TRUE(profiles[i] == profiles[0]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FullSuite, ZeroFaults, test::grid(),
                         test::grid_name);

// --- coherence traffic on the lossy wire -----------------------------------

/// A spec that only faults coherence classes, aggressively enough that
/// fills retransmit while late replies are still in flight (timeout well
/// under the max injected delay), forcing duplicate replies.
FaultSpec coherence_spec() {
  FaultSpec s;
  std::string err;
  EXPECT_TRUE(parse_fault_spec(
      "drop=0.25,dup=0.4,delay=0.3:900,timeout=600,"
      "classes=fill:invalidate:ts_check",
      &s, &err))
      << err;
  return s;
}

TEST(FaultPlane, CoherenceChecksumsSurviveFaultsAcrossSchemes) {
  // EM3D is an "M+C" benchmark: the heuristic picks cached sites, so the
  // kernel actually generates fill (and, per scheme, invalidate/ts-check)
  // traffic for the injector to chew on.
  const bench::Benchmark* b = bench::find_benchmark("EM3D");
  ASSERT_NE(b, nullptr);
  const FaultSpec spec = coherence_spec();
  for (Coherence scheme : {Coherence::kLocalKnowledge, Coherence::kEagerGlobal,
                           Coherence::kBilateral}) {
    bench::BenchConfig cfg{.nprocs = 4, .scheme = scheme};
    cfg.tiny = true;
    const bench::BenchResult clean = b->run(cfg);

    cfg.faults = &spec;
    cfg.fault_seed = 9;
    const bench::BenchResult faulty = b->run(cfg);

    EXPECT_EQ(faulty.checksum, clean.checksum) << static_cast<int>(scheme);
    // Coherence traffic actually rode the lossy wire...
    EXPECT_GT(faulty.stats.coherence_requests, 0u);
    EXPECT_GT(
        faulty.stats.class_sent[static_cast<std::size_t>(MsgClass::kFill)],
        0u);
    // ...and the excluded migration class never lost a message.
    EXPECT_EQ(
        faulty.stats
            .class_drops[static_cast<std::size_t>(MsgClass::kMigration)],
        0u);
    EXPECT_EQ(
        faulty.stats
            .class_dups[static_cast<std::size_t>(MsgClass::kMigration)],
        0u);
  }
}

TEST(FaultPlane, DuplicatedRepliesAreIdempotent) {
  // Timeout far below the delay ceiling: requests retransmit while the
  // original (delayed) reply is still in flight, so the requester sees
  // surplus replies. They must be counted and discarded, never
  // double-applied — the checksum is the witness.
  const bench::Benchmark* b = bench::find_benchmark("EM3D");
  ASSERT_NE(b, nullptr);
  const FaultSpec spec = coherence_spec();
  for (Coherence scheme :
       {Coherence::kLocalKnowledge, Coherence::kBilateral}) {
    bench::BenchConfig cfg{.nprocs = 4, .scheme = scheme};
    cfg.tiny = true;
    const bench::BenchResult clean = b->run(cfg);

    bool saw_surplus = false;
    for (std::uint64_t seed : {3u, 11u, 27u}) {
      cfg.faults = &spec;
      cfg.fault_seed = seed;
      const bench::BenchResult faulty = b->run(cfg);
      EXPECT_EQ(faulty.checksum, clean.checksum)
          << static_cast<int>(scheme) << " seed " << seed;
      saw_surplus = saw_surplus || faulty.stats.replies_ignored > 0;
    }
    // At least one schedule per scheme actually produced a surplus reply;
    // otherwise this test proves nothing about idempotency.
    EXPECT_TRUE(saw_surplus) << static_cast<int>(scheme);
  }
}

// --- watchdog --------------------------------------------------------------

struct Node {
  std::int64_t val;
};

Task<std::int64_t> watchdog_root(Machine& m) {
  auto n = m.alloc<Node>(1);
  co_await wr(n, &Node::val, std::int64_t{41}, SiteId{0});
  co_return co_await rd(n, &Node::val, SiteId{0}) + 1;
}

TEST(FaultWatchdog, TotalDropBecomesStructuredDiagnostic) {
  FaultSpec spec;
  std::string err;
  // Every transmission attempt is dropped: no message can ever deliver,
  // so the first migration exhausts its retransmit budget.
  ASSERT_TRUE(
      parse_fault_spec("drop=1.0,timeout=200,retries=3", &spec, &err))
      << err;
  Machine m({.nprocs = 2, .faults = &spec, .fault_seed = 1});
  m.set_site_mechanisms({Mechanism::kMigrate});
  try {
    (void)run_program(m, watchdog_root(m));
    FAIL() << "a 100%-drop schedule must not terminate normally";
  } catch (const fault::WatchdogError& e) {
    const fault::WatchdogDiagnostic& d = e.diagnostic();
    EXPECT_EQ(d.reason, "retry-cap-exceeded");
    EXPECT_EQ(d.retries, 3u);
    EXPECT_GT(d.sim_time, 0u);
    EXPECT_STREQ(d.msg_class, "migration");
    EXPECT_EQ(d.src, 0u);
    EXPECT_EQ(d.dst, 1u);
    const std::string what = e.what();
    EXPECT_NE(what.find("watchdog"), std::string::npos) << what;
    EXPECT_NE(what.find("retry-cap-exceeded"), std::string::npos) << what;
    EXPECT_NE(what.find("class migration"), std::string::npos) << what;
  }
}

Task<std::int64_t> cached_read_root(Machine& m) {
  auto n = m.alloc<Node>(1);
  co_return co_await rd(n, &Node::val, SiteId{0});
}

TEST(FaultWatchdog, CoherenceRetryStormNamesTheMessageClass) {
  FaultSpec spec;
  std::string err;
  // Only fill traffic is lossy — and 100% lossy, so the very first cache
  // miss retransmits its fill request into the cap. The diagnostic must
  // say so in coherence terms, not just "a message got stuck".
  ASSERT_TRUE(parse_fault_spec(
      "drop=1.0,timeout=200,retries=3,classes=fill", &spec, &err))
      << err;
  Machine m({.nprocs = 2, .faults = &spec, .fault_seed = 1});
  m.set_site_mechanisms({Mechanism::kCache});
  try {
    (void)run_program(m, cached_read_root(m));
    FAIL() << "a 100%-drop fill schedule must not terminate normally";
  } catch (const fault::WatchdogError& e) {
    const fault::WatchdogDiagnostic& d = e.diagnostic();
    EXPECT_EQ(d.reason, "retry-cap-exceeded");
    EXPECT_EQ(d.retries, 3u);
    EXPECT_STREQ(d.msg_class, "fill");
    const std::string what = e.what();
    EXPECT_NE(what.find("class fill"), std::string::npos) << what;
  }
}

TEST(FaultWatchdog, RecoverableDropRateStillCompletes) {
  FaultSpec spec;
  std::string err;
  // Half the attempts drop, but 24 retries make delivery all but certain:
  // the watchdog must stay quiet and the answer must be right.
  ASSERT_TRUE(parse_fault_spec("drop=0.5,timeout=500", &spec, &err)) << err;
  Machine m({.nprocs = 2, .faults = &spec, .fault_seed = 5});
  m.set_site_mechanisms({Mechanism::kMigrate});
  EXPECT_EQ(run_program(m, watchdog_root(m)), 42);
  EXPECT_GT(m.stats().retransmissions, 0u);
}

}  // namespace
}  // namespace olden
