// The interval-sampled profiling plane (src/olden/profile/): the
// zero-virtual-cycle invariant (profiling on/off yields byte-identical
// traces and equal makespans, with or without fault injection), profile
// determinism across repeats and across serial-vs-merged observers,
// interval splitting arithmetic, the feedback-file grammar and its
// application order in Benchmark::site_table, the profile JSON reader,
// and the scoreboard grading rules.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "olden/analyze/profile_report.hpp"
#include "olden/bench/benchmark.hpp"
#include "olden/fault/fault_spec.hpp"
#include "olden/profile/feedback.hpp"
#include "olden/profile/profile.hpp"
#include "olden/profile/profile_reader.hpp"
#include "olden/trace/observer.hpp"
#include "trace_digest.hpp"

namespace olden {
namespace {

using bench::BenchConfig;
using bench::BenchResult;
using bench::Benchmark;
using bench::find_benchmark;

// --- interval splitting ----------------------------------------------------

TEST(ProfileIntervals, CycleSpansSplitExactlyAcrossBoundaries) {
  profile::RunProfile rp;
  rp.enabled = true;
  rp.interval_cycles = 100;
  rp.add_cycles(95, 205, trace::CycleBucket::kCompute);
  const auto bi = static_cast<std::size_t>(trace::CycleBucket::kCompute);
  ASSERT_EQ(rp.intervals.size(), 3u);
  EXPECT_EQ(rp.intervals[0].cycles[bi], 5u);
  EXPECT_EQ(rp.intervals[1].cycles[bi], 100u);
  EXPECT_EQ(rp.intervals[2].cycles[bi], 5u);
}

TEST(ProfileIntervals, ExactBoundarySpansTouchOneInterval) {
  profile::RunProfile rp;
  rp.enabled = true;
  rp.interval_cycles = 100;
  rp.add_cycles(100, 200, trace::CycleBucket::kIdle);
  const auto bi = static_cast<std::size_t>(trace::CycleBucket::kIdle);
  ASSERT_EQ(rp.intervals.size(), 1u);
  EXPECT_EQ(rp.intervals.count(1), 1u);
  EXPECT_EQ(rp.intervals[1].cycles[bi], 100u);
}

TEST(ProfileIntervals, EmptySpansAreIgnored) {
  profile::RunProfile rp;
  rp.enabled = true;
  rp.interval_cycles = 100;
  rp.add_cycles(0, 0, trace::CycleBucket::kCompute);
  rp.add_cycles(42, 42, trace::CycleBucket::kCompute);
  EXPECT_TRUE(rp.intervals.empty());
}

TEST(ProfileIntervals, LastCycleBeforeBoundaryStaysInItsInterval) {
  profile::RunProfile rp;
  rp.enabled = true;
  rp.interval_cycles = 100;
  rp.add_cycles(99, 100, trace::CycleBucket::kRetry);
  const auto bi = static_cast<std::size_t>(trace::CycleBucket::kRetry);
  ASSERT_EQ(rp.intervals.size(), 1u);
  EXPECT_EQ(rp.intervals[0].cycles[bi], 1u);
}

TEST(ProfileIntervals, IntervalLargerThanSpanLandsEntirelyInIntervalZero) {
  // --profile-interval larger than the whole makespan: everything the run
  // did belongs to interval 0, and nothing is lost or double-counted.
  profile::RunProfile rp;
  rp.enabled = true;
  rp.interval_cycles = 1ull << 40;
  rp.add_cycles(0, 12345, trace::CycleBucket::kCompute);
  rp.add_cycles(12345, 20000, trace::CycleBucket::kIdle);
  const auto ci = static_cast<std::size_t>(trace::CycleBucket::kCompute);
  const auto ii = static_cast<std::size_t>(trace::CycleBucket::kIdle);
  ASSERT_EQ(rp.intervals.size(), 1u);
  ASSERT_EQ(rp.intervals.count(0), 1u);
  EXPECT_EQ(rp.intervals[0].cycles[ci], 12345u);
  EXPECT_EQ(rp.intervals[0].cycles[ii], 20000u - 12345u);
}

TEST(ProfileIntervals, SpanEndingExactlyOnBoundaryCreatesNoEmptyTail) {
  // A makespan that lands exactly on an interval boundary must not open
  // an empty trailing interval: cycle [199] is the last cycle of interval
  // 1, and interval 2 never exists.
  profile::RunProfile rp;
  rp.enabled = true;
  rp.interval_cycles = 100;
  rp.add_cycles(0, 200, trace::CycleBucket::kCompute);
  const auto bi = static_cast<std::size_t>(trace::CycleBucket::kCompute);
  ASSERT_EQ(rp.intervals.size(), 2u);
  EXPECT_EQ(rp.intervals[0].cycles[bi], 100u);
  EXPECT_EQ(rp.intervals[1].cycles[bi], 100u);
  EXPECT_EQ(rp.intervals.count(2), 0u);
}

TEST(ProfileIntervals, ZeroCycleTailAtExactBoundaryConservesTotals) {
  // Mirrors Observer::finish() when a processor's clock already equals
  // the makespan and both sit exactly on an interval boundary: the
  // trailing-idle add is a zero-cycle span, adds nothing, and the summed
  // interval cycles still equal nprocs * makespan.
  constexpr std::uint64_t kMakespan = 300;
  profile::RunProfile rp;
  rp.enabled = true;
  rp.interval_cycles = 100;
  rp.add_cycles(0, kMakespan, trace::CycleBucket::kCompute);  // proc A
  rp.add_cycles(0, 250, trace::CycleBucket::kCompute);        // proc B...
  rp.add_cycles(250, kMakespan, trace::CycleBucket::kIdle);   // ...then idle
  rp.add_cycles(kMakespan, kMakespan, trace::CycleBucket::kIdle);  // zero tail
  std::uint64_t sum = 0;
  for (const auto& [idx, iv] : rp.intervals) {
    for (std::size_t b = 0; b < trace::kNumBuckets; ++b) sum += iv.cycles[b];
  }
  EXPECT_EQ(sum, 2 * kMakespan);
  EXPECT_EQ(rp.intervals.count(3), 0u);  // boundary opened no new interval
}

// --- zero perturbation -----------------------------------------------------

TEST(ProfileZeroPerturbation, ProfilingChangesNoCycleOrTraceByte) {
  const Benchmark* b = find_benchmark("TreeAdd");
  ASSERT_NE(b, nullptr);
  BenchConfig cfg{.nprocs = 8};
  cfg.tiny = true;
  const BenchResult bare = b->run(cfg);

  // Traced, profiling off: the reference byte stream.
  trace::Observer off;
  off.set_trace_enabled(true);
  off.begin_run("ab");
  cfg.observer = &off;
  const BenchResult r_off = b->run(cfg);

  // Traced, profiling on (small interval: many boundary crossings).
  trace::Observer on;
  on.set_trace_enabled(true);
  on.enable_profile(1024);
  on.begin_run("ab");
  cfg.observer = &on;
  const BenchResult r_on = b->run(cfg);

  EXPECT_EQ(r_on.checksum, bare.checksum);
  EXPECT_EQ(r_on.total_cycles, bare.total_cycles);
  EXPECT_EQ(r_off.total_cycles, bare.total_cycles);
  EXPECT_EQ(test::trace_bytes(on), test::trace_bytes(off));

  // And the profile actually recorded the run.
  ASSERT_EQ(on.runs().size(), 1u);
  const profile::RunProfile& p = on.runs()[0].profile;
  EXPECT_TRUE(p.enabled);
  EXPECT_GT(p.total_accesses(), 0u);
  EXPECT_FALSE(p.intervals.empty());
}

TEST(ProfileZeroPerturbation, HoldsUnderFaultInjection) {
  const Benchmark* b = find_benchmark("EM3D");
  ASSERT_NE(b, nullptr);
  fault::FaultSpec spec;
  std::string err;
  ASSERT_TRUE(
      fault::parse_fault_spec("drop=0.05,dup=0.02,delay=0.1:200", &spec, &err))
      << err;

  BenchConfig cfg{.nprocs = 8, .scheme = Coherence::kBilateral};
  cfg.tiny = true;
  cfg.faults = &spec;
  const BenchResult bare = b->run(cfg);

  std::string profiles[2];
  for (int i = 0; i < 2; ++i) {
    trace::Observer obs;
    obs.enable_profile(4096);
    obs.begin_run("faulty", {{"benchmark", b->name()}});
    cfg.observer = &obs;
    const BenchResult r = b->run(cfg);
    EXPECT_EQ(r.checksum, bare.checksum);
    EXPECT_EQ(r.total_cycles, bare.total_cycles);
    profiles[i] = profile::profile_json(obs);
  }
  // The profile itself is as deterministic as the (seeded) fault plane.
  EXPECT_EQ(profiles[0], profiles[1]);
}

// --- determinism and merging ----------------------------------------------

TEST(ProfileDeterminism, RepeatedRunsProduceByteIdenticalProfiles) {
  const Benchmark* b = find_benchmark("MST");
  ASSERT_NE(b, nullptr);
  std::string profiles[2];
  for (int i = 0; i < 2; ++i) {
    trace::Observer obs;
    obs.enable_profile();
    obs.begin_run("repeat", {{"benchmark", b->name()}});
    BenchConfig cfg{.nprocs = 4};
    cfg.tiny = true;
    cfg.observer = &obs;
    (void)b->run(cfg);
    profiles[i] = profile::profile_json(obs);
  }
  EXPECT_EQ(profiles[0], profiles[1]);
}

TEST(ProfileDeterminism, AdoptedWorkerProfilesMatchSerial) {
  const Benchmark* b = find_benchmark("TreeAdd");
  ASSERT_NE(b, nullptr);
  const Coherence schemes[2] = {Coherence::kLocalKnowledge,
                                Coherence::kEagerGlobal};
  const char* labels[2] = {"cell/local", "cell/global"};

  trace::Observer serial;
  serial.enable_profile(8192);
  for (int i = 0; i < 2; ++i) {
    serial.begin_run(labels[i], {{"benchmark", b->name()}});
    BenchConfig cfg{.nprocs = 8, .scheme = schemes[i]};
    cfg.tiny = true;
    cfg.observer = &serial;
    (void)b->run(cfg);
  }

  // The bench_cell --jobs pattern: private observers, merged in cell order.
  trace::Observer main_obs;
  trace::Observer workers[2];
  for (int i = 0; i < 2; ++i) {
    workers[i].enable_profile(8192);
    workers[i].begin_run(labels[i], {{"benchmark", b->name()}});
    BenchConfig cfg{.nprocs = 8, .scheme = schemes[i]};
    cfg.tiny = true;
    cfg.observer = &workers[i];
    (void)b->run(cfg);
  }
  main_obs.adopt_runs_from(workers[0]);
  main_obs.adopt_runs_from(workers[1]);

  EXPECT_EQ(profile::profile_json(main_obs), profile::profile_json(serial));
}

// --- conservation ----------------------------------------------------------

TEST(ProfileConservation, IntervalCyclesSumToNprocsTimesMakespan) {
  const Benchmark* b = find_benchmark("Power");
  ASSERT_NE(b, nullptr);
  trace::Observer obs;
  obs.enable_profile(2048);
  obs.begin_run("conserve", {{"benchmark", b->name()}});
  BenchConfig cfg{.nprocs = 8};
  cfg.tiny = true;
  cfg.observer = &obs;
  (void)b->run(cfg);

  ASSERT_EQ(obs.runs().size(), 1u);
  const trace::RunRecord& run = obs.runs()[0];
  std::uint64_t cycle_sum = 0;
  std::uint64_t access_sum = 0;
  for (const auto& [idx, iv] : run.profile.intervals) {
    for (std::size_t bkt = 0; bkt < trace::kNumBuckets; ++bkt) {
      cycle_sum += iv.cycles[bkt];
    }
    access_sum += iv.accesses;
  }
  EXPECT_EQ(cycle_sum,
            static_cast<std::uint64_t>(run.nprocs) * run.makespan);
  EXPECT_EQ(access_sum, run.profile.total_accesses());
  std::uint64_t timeline_sum = 0;
  for (const auto& [site, s] : run.profile.sites) {
    std::uint64_t per_site = 0;
    for (const auto& [iv, n] : s.timeline) per_site += n;
    EXPECT_EQ(per_site, s.accesses()) << "site " << site;
    timeline_sum += per_site;
  }
  EXPECT_EQ(timeline_sum, access_sum);
}

TEST(ProfileConservation, HoldsWhenIntervalExceedsMakespan) {
  // End-to-end arm of the interval-larger-than-makespan case: one giant
  // interval absorbs the whole run and the conservation identity holds.
  const Benchmark* b = find_benchmark("TreeAdd");
  ASSERT_NE(b, nullptr);
  trace::Observer obs;
  obs.enable_profile(1ull << 40);
  obs.begin_run("one-interval", {{"benchmark", b->name()}});
  BenchConfig cfg{.nprocs = 8};
  cfg.tiny = true;
  cfg.observer = &obs;
  (void)b->run(cfg);

  ASSERT_EQ(obs.runs().size(), 1u);
  const trace::RunRecord& run = obs.runs()[0];
  ASSERT_EQ(run.profile.intervals.size(), 1u);
  ASSERT_EQ(run.profile.intervals.count(0), 1u);
  std::uint64_t cycle_sum = 0;
  for (const auto& [idx, iv] : run.profile.intervals) {
    for (std::size_t bkt = 0; bkt < trace::kNumBuckets; ++bkt) {
      cycle_sum += iv.cycles[bkt];
    }
  }
  EXPECT_EQ(cycle_sum,
            static_cast<std::uint64_t>(run.nprocs) * run.makespan);
}

// --- feedback file grammar -------------------------------------------------

TEST(Feedback, ParsesRowsAndComments) {
  profile::FeedbackTable t;
  std::string err;
  ASSERT_TRUE(t.parse("# olden-profile-feedback v1\n"
                      "# a comment\n"
                      "\n"
                      "TreeAdd 0 migrate\n"
                      "TreeAdd 1 cache\n",
                      &err))
      << err;
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.lookup("TreeAdd", 0), Mechanism::kMigrate);
  EXPECT_EQ(t.lookup("TreeAdd", 1), Mechanism::kCache);
  EXPECT_EQ(t.lookup("TreeAdd", 2), std::nullopt);
  EXPECT_EQ(t.lookup("MST", 0), std::nullopt);
}

TEST(Feedback, DuplicateRowIsAStructuredParseError) {
  // Two rows for one (benchmark, site) mean the file was merged or
  // hand-edited badly; the old behavior (silent last-wins) applied a
  // mechanism nobody reviewed. The error names both lines and the uid.
  profile::FeedbackTable t;
  std::string err;
  EXPECT_FALSE(t.parse("# olden-profile-feedback v1\n"
                       "TreeAdd 0 migrate\n"
                       "TreeAdd 1 cache\n"
                       "TreeAdd 0 cache\n",
                       &err));
  EXPECT_NE(err.find("line 4"), std::string::npos) << err;
  EXPECT_NE(err.find("duplicate"), std::string::npos) << err;
  EXPECT_NE(err.find("TreeAdd#0"), std::string::npos) << err;
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  EXPECT_TRUE(t.empty());  // failed parses leave the table unchanged

  // Same site index under different benchmarks is not a duplicate.
  ASSERT_TRUE(t.parse("# olden-profile-feedback v1\n"
                      "TreeAdd 0 migrate\n"
                      "MST 0 cache\n",
                      &err))
      << err;
  EXPECT_EQ(t.size(), 2u);
}

TEST(Feedback, StaleSiteUidsAreReportedByName) {
  // A row whose site index falls outside the benchmark's table is stale
  // (written against an older build). stale_uids names the exact tokens
  // so the consumer's warning tells the user what to regenerate.
  profile::FeedbackTable t;
  std::string err;
  ASSERT_TRUE(t.parse("# olden-profile-feedback v1\n"
                      "TreeAdd 0 migrate\n"
                      "TreeAdd 9 cache\n"
                      "MST 7 cache\n",
                      &err))
      << err;
  const std::vector<std::string> stale = t.stale_uids("TreeAdd", 8);
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0], "TreeAdd#9");
  // Site 9 would need a 10-site table; with one it is in range.
  EXPECT_TRUE(t.stale_uids("TreeAdd", 10).empty());
  // Other benchmarks' rows never leak into this benchmark's report.
  const std::vector<std::string> mst = t.stale_uids("MST", 4);
  ASSERT_EQ(mst.size(), 1u);
  EXPECT_EQ(mst[0], "MST#7");
}

TEST(Feedback, RejectsMissingOrUnknownVersionHeader) {
  profile::FeedbackTable t;
  std::string err;
  EXPECT_FALSE(t.parse("TreeAdd 0 migrate\n", &err));
  EXPECT_NE(err.find("header"), std::string::npos) << err;
  EXPECT_FALSE(t.parse("# olden-profile-feedback v2\nTreeAdd 0 cache\n",
                       &err));
  EXPECT_TRUE(t.empty());  // failed parses leave the table unchanged
}

TEST(Feedback, RejectsMalformedRows) {
  profile::FeedbackTable t;
  std::string err;
  EXPECT_FALSE(t.parse("# olden-profile-feedback v1\nTreeAdd 0\n", &err));
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  EXPECT_FALSE(
      t.parse("# olden-profile-feedback v1\nTreeAdd x migrate\n", &err));
  EXPECT_FALSE(
      t.parse("# olden-profile-feedback v1\nTreeAdd 0 sideways\n", &err));
  EXPECT_TRUE(t.empty());
}

TEST(Feedback, HeuristicSpecStaticAndProfileFile) {
  profile::FeedbackTable t;
  bool use = true;
  std::string err;
  ASSERT_TRUE(profile::parse_heuristic_spec("static", &t, &use, &err));
  EXPECT_FALSE(use);

  const std::string path = ::testing::TempDir() + "profile_feedback_ok.txt";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("# olden-profile-feedback v1\nHealth 3 migrate\n", f);
  std::fclose(f);
  ASSERT_TRUE(profile::parse_heuristic_spec("profile:" + path, &t, &use,
                                            &err))
      << err;
  EXPECT_TRUE(use);
  EXPECT_EQ(t.lookup("Health", 3), Mechanism::kMigrate);

  EXPECT_FALSE(profile::parse_heuristic_spec("bogus", &t, &use, &err));
  EXPECT_FALSE(profile::parse_heuristic_spec(
      "profile:/nonexistent/feedback.txt", &t, &use, &err));
}

// --- feedback application order in site_table -----------------------------

TEST(Feedback, SiteTableAppliesFeedbackAfterHeuristicBeforeOverrides) {
  const Benchmark* b = find_benchmark("TreeAdd");
  ASSERT_NE(b, nullptr);
  BenchConfig cfg{.nprocs = 8};
  cfg.tiny = true;
  const std::vector<Mechanism> base = b->site_table(cfg, nullptr);

  profile::FeedbackTable t;
  for (std::size_t s = 0; s < b->num_sites(); ++s) {
    t.set(b->name(), static_cast<SiteId>(s), Mechanism::kCache);
  }
  cfg.feedback = &t;
  const std::vector<Mechanism> fed = b->site_table(cfg, nullptr);
  ASSERT_EQ(fed.size(), base.size());

  std::vector<bool> overridden(fed.size(), false);
  for (const auto& [site, mech] : b->site_overrides()) {
    ASSERT_LT(site, fed.size());
    overridden[site] = true;
    EXPECT_EQ(fed[site], mech) << "builder override lost at site " << site;
  }
  for (std::size_t s = 0; s < fed.size(); ++s) {
    if (!overridden[s]) {
      EXPECT_EQ(fed[s], Mechanism::kCache) << "feedback ignored at site " << s;
    }
  }

  // Feedback for another benchmark must not leak in.
  profile::FeedbackTable other;
  for (std::size_t s = 0; s < b->num_sites(); ++s) {
    other.set("NotTreeAdd", static_cast<SiteId>(s), Mechanism::kCache);
  }
  cfg.feedback = &other;
  EXPECT_EQ(b->site_table(cfg, nullptr), base);
}

TEST(Feedback, FeedbackRunStillValidatesChecksum) {
  const Benchmark* b = find_benchmark("TreeAdd");
  ASSERT_NE(b, nullptr);
  profile::FeedbackTable t;
  for (std::size_t s = 0; s < b->num_sites(); ++s) {
    t.set(b->name(), static_cast<SiteId>(s), Mechanism::kCache);
  }
  BenchConfig cfg{.nprocs = 8};
  cfg.tiny = true;
  cfg.feedback = &t;
  const BenchResult r = b->run(cfg);
  EXPECT_EQ(r.checksum, b->reference_checksum(cfg));
}

// --- profile JSON reader ---------------------------------------------------

TEST(ProfileReader, RoundTripsAnEmittedProfile) {
  const Benchmark* b = find_benchmark("Health");
  ASSERT_NE(b, nullptr);
  trace::Observer obs;
  obs.enable_profile();
  obs.begin_run("rt", {{"benchmark", b->name()}});
  BenchConfig cfg{.nprocs = 4};
  cfg.tiny = true;
  cfg.observer = &obs;
  (void)b->run(cfg);

  profile::ProfileDoc doc;
  std::string err;
  ASSERT_TRUE(profile::parse_profile_json(profile::profile_json(obs), &doc, &err))
      << err;
  EXPECT_EQ(doc.schema_version, profile::kProfileSchemaVersion);
  ASSERT_EQ(doc.runs.size(), 1u);
  const profile::ProfileRun& run = doc.runs[0];
  EXPECT_EQ(run.benchmark, b->name());
  EXPECT_EQ(run.total_accesses, obs.runs()[0].profile.total_accesses());
  EXPECT_EQ(run.sites.size(), obs.runs()[0].profile.sites.size());
  ASSERT_FALSE(run.sites.empty());
  EXPECT_EQ(run.sites[0].site_uid,
            b->name() + "#" + std::to_string(run.sites[0].site));
}

TEST(ProfileReader, RejectsCorruptAndWrongVersionDocuments) {
  profile::ProfileDoc doc;
  std::string err;
  EXPECT_FALSE(profile::parse_profile_json("{", &doc, &err));
  EXPECT_FALSE(profile::parse_profile_json("not json at all", &doc, &err));
  EXPECT_FALSE(profile::parse_profile_json(
      R"({"profile_schema_version":99,"generator":"olden-profile","runs":[]})",
      &doc, &err));
  EXPECT_NE(err.find("99"), std::string::npos) << err;
  EXPECT_EQ(doc.schema_version, 99);  // reported so callers can say why
  EXPECT_FALSE(profile::parse_profile_json(
      R"({"profile_schema_version":1,"generator":"other","runs":[]})", &doc,
      &err));
  // Deep nesting is an error, not a stack overflow: past the depth bound
  // the parser stops at the byte where the bound was crossed.
  for (const std::string& open : {std::string("["), std::string("{\"a\":")}) {
    std::string deep;
    for (int i = 0; i < 100000; ++i) deep += open;
    err.clear();
    EXPECT_FALSE(profile::parse_profile_json(deep, &doc, &err));
    EXPECT_NE(err.find("profile JSON byte " + std::to_string(32 * open.size()) +
                       ": nesting deeper than 32 levels"),
              std::string::npos)
        << err;
  }
}

TEST(ProfileReader, EveryTruncationFailsCleanly) {
  const Benchmark* b = find_benchmark("TreeAdd");
  ASSERT_NE(b, nullptr);
  trace::Observer obs;
  obs.enable_profile();
  obs.begin_run("cut", {{"benchmark", b->name()}});
  BenchConfig cfg{.nprocs = 8};
  cfg.tiny = true;
  cfg.observer = &obs;
  (void)b->run(cfg);
  std::string text = profile::profile_json(obs);
  // Without its trailing newline the document is still whole; every
  // shorter prefix is not.
  while (!text.empty() && text.back() == '\n') text.pop_back();
  profile::ProfileDoc doc;
  std::string err;
  ASSERT_TRUE(profile::parse_profile_json(text, &doc, &err)) << err;
  ASSERT_GT(text.size(), 4096u);
  for (std::size_t len = 0; len < text.size(); ++len) {
    profile::ProfileDoc cut;
    err.clear();
    EXPECT_FALSE(profile::parse_profile_json(text.substr(0, len), &cut, &err))
        << "a " << len << "-byte prefix parsed as complete";
    EXPECT_FALSE(err.empty()) << len;
  }
}

// --- scoreboard grading ----------------------------------------------------

profile::SiteRow site_row(const char* mech, std::uint64_t local_reads,
                          std::uint64_t hits, std::uint64_t misses,
                          std::uint64_t write_throughs,
                          std::uint64_t migrations) {
  profile::SiteRow s;
  s.mechanism = mech;
  s.local_reads = local_reads;
  s.cache_hits = hits;
  s.cache_misses = misses;
  s.write_throughs = write_throughs;
  s.migrations = migrations;
  s.accesses = local_reads + hits + misses + write_throughs + migrations;
  return s;
}

TEST(Scoreboard, MigrateSiteBelowAffinityBarFlipsToCache) {
  const auto g =
      analyze::grade_site(site_row("migrate", 50, 0, 0, 0, 50));
  EXPECT_FALSE(g.agree);
  EXPECT_EQ(g.recommended, Mechanism::kCache);

  const auto ok =
      analyze::grade_site(site_row("migrate", 95, 0, 0, 0, 5));
  EXPECT_TRUE(ok.agree);
}

TEST(Scoreboard, CacheSiteFlipsOnlyOnRemoteTrafficWithPoorReuse) {
  const auto bad = analyze::grade_site(site_row("cache", 0, 10, 90, 0, 0));
  EXPECT_FALSE(bad.agree);
  EXPECT_EQ(bad.recommended, Mechanism::kMigrate);

  const auto reuse = analyze::grade_site(site_row("cache", 0, 90, 10, 0, 0));
  EXPECT_TRUE(reuse.agree);

  // Write-only remote traffic: no reuse signal, never flipped.
  const auto writes = analyze::grade_site(site_row("cache", 0, 0, 0, 100, 0));
  EXPECT_TRUE(writes.agree);

  const auto idle = analyze::grade_site(site_row("cache", 0, 0, 0, 0, 0));
  EXPECT_TRUE(idle.agree);
}

// The bars are exact: the scoreboard grades in integers
// (graded_mechanism), so no rounding moves a site across a bar.
TEST(Scoreboard, BarsAreIntegerExact) {
  // Exactly 90% local meets the affinity bar.
  const auto at_bar =
      analyze::grade_site(site_row("migrate", 900, 0, 0, 0, 100));
  EXPECT_TRUE(at_bar.agree);
  // 899 of 1000 local falls just below it.
  const auto below =
      analyze::grade_site(site_row("migrate", 899, 0, 0, 0, 101));
  EXPECT_FALSE(below.agree);
  EXPECT_EQ(below.recommended, Mechanism::kCache);
  // Exactly 50% hits meets the hit-rate floor, however remote the site.
  EXPECT_TRUE(analyze::grade_site(site_row("cache", 0, 50, 50, 0, 0)).agree);
  EXPECT_FALSE(analyze::grade_site(site_row("cache", 0, 49, 51, 0, 0)).agree);
}

}  // namespace
}  // namespace olden
