// The profiling plane (src/olden/profile/): the zero-virtual-cycle
// invariant (profiling on/off yields byte-identical traces and equal
// makespans, with or without fault injection), determinism of the
// feedback document across repeats and across serial-vs-merged
// observers, the site counts against the Machine's, the feedback-file
// grammar and its application order in Benchmark::site_table, and the
// scoreboard grading rules.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "olden/bench/benchmark.hpp"
#include "olden/bench/obs_cli.hpp"
#include "olden/fault/fault_spec.hpp"
#include "olden/profile/feedback.hpp"
#include "olden/profile/profile.hpp"
#include "olden/trace/observer.hpp"
#include "suite_grid.hpp"
#include "trace_digest.hpp"

namespace olden {
namespace {

using bench::BenchConfig;
using bench::BenchResult;
using bench::Benchmark;
using bench::find_benchmark;

// --- zero perturbation -----------------------------------------------------

TEST(ProfileZeroPerturbation, ProfilingChangesNoCycleOrTraceByte) {
  const Benchmark* b = find_benchmark("TreeAdd");
  ASSERT_NE(b, nullptr);
  BenchConfig cfg{.nprocs = 8};
  cfg.tiny = true;
  const BenchResult bare = b->run(cfg);

  // Traced, profiling off: the reference byte stream.
  test::StreamedObserver off;
  off.begin_run("ab");
  cfg.observer = &off;
  const BenchResult r_off = b->run(cfg);

  // Traced, profiling on.
  test::StreamedObserver on;
  on.enable_profile();
  on.begin_run("ab");
  cfg.observer = &on;
  const BenchResult r_on = b->run(cfg);

  EXPECT_EQ(r_on.checksum, bare.checksum);
  EXPECT_EQ(r_on.total_cycles, bare.total_cycles);
  EXPECT_EQ(r_off.total_cycles, bare.total_cycles);
  EXPECT_EQ(test::trace_bytes(on), test::trace_bytes(off));

  // And the profile actually recorded the run.
  ASSERT_EQ(on.runs().size(), 1u);
  EXPECT_FALSE(on.runs()[0].profile.sites.empty());
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
    obs.enable_profile();
    obs.begin_run("faulty", {{"benchmark", b->name()}});
    cfg.observer = &obs;
    const BenchResult r = b->run(cfg);
    EXPECT_EQ(r.checksum, bare.checksum);
    EXPECT_EQ(r.total_cycles, bare.total_cycles);
    profiles[i] = profile::feedback_from_profile(obs.runs());
  }
  // The document is as deterministic as the (seeded) fault plane.
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
    profiles[i] = profile::feedback_from_profile(obs.runs());
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
  serial.enable_profile();
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
    workers[i].enable_profile();
    workers[i].begin_run(labels[i], {{"benchmark", b->name()}});
    BenchConfig cfg{.nprocs = 8, .scheme = schemes[i]};
    cfg.tiny = true;
    cfg.observer = &workers[i];
    (void)b->run(cfg);
  }
  for (trace::Observer& worker : workers) {
    std::string err;
    EXPECT_TRUE(bench::adopt_cell(main_obs, worker, "", &err)) << err;
  }

  EXPECT_EQ(profile::feedback_from_profile(main_obs.runs()),
            profile::feedback_from_profile(serial.runs()));
}

// --- site counts against the machine --------------------------------------

// The site table is the grader's only input, so on every cell, on a clean
// wire and under CI's coherence fault spec, its six counters must account
// for the Machine's own counts. A migrated access is counted at its site
// once, at departure, while the Machine also counts the local access the
// thread completes on arrival; local accesses at cache sites are counted
// by the Machine only as cacheable reads and writes.
class SiteProfile : public ::testing::TestWithParam<test::GridCell> {};

TEST_P(SiteProfile, CountsAgreeWithMachine) {
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
    trace::Observer obs;
    obs.enable_profile();
    obs.begin_run(name + "/sites", {{"benchmark", name}});
    BenchConfig cfg{.nprocs = 8, .scheme = scheme.scheme};
    cfg.tiny = true;
    cfg.faults = faults;
    cfg.fault_seed = 21;
    cfg.observer = &obs;
    const BenchResult r = b->run(cfg);
    ASSERT_EQ(obs.runs().size(), 1u);

    std::uint64_t local = 0, hits = 0, misses = 0, writes = 0, migrations = 0;
    for (const auto& [site, s] : obs.runs()[0].profile.sites) {
      local += s.local_reads + s.local_writes;
      hits += s.cache_hits;
      misses += s.cache_misses;
      writes += s.write_throughs;
      migrations += s.migrations;
      EXPECT_TRUE(s.migrations == 0 ||
                  s.cache_hits + s.cache_misses + s.write_throughs == 0)
          << "site " << site << " both migrated and cached";
    }
    const MachineStats& m = r.stats;
    EXPECT_EQ(hits, m.cache_hits);
    EXPECT_EQ(misses, m.cache_misses);
    EXPECT_EQ(writes, m.cacheable_writes_remote);
    EXPECT_EQ(migrations, m.migrations);
    EXPECT_EQ(local, m.local_reads + m.local_writes - m.migrations +
                         (m.cacheable_reads - m.cacheable_reads_remote) +
                         (m.cacheable_writes - m.cacheable_writes_remote));
  }
}

INSTANTIATE_TEST_SUITE_P(FullSuite, SiteProfile, test::grid(),
                         test::grid_name);

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
  // Site indices are plain digits: no sign, and no index past SiteId.
  for (const char* index : {"+2", "-0", "4294967297"}) {
    err.clear();
    EXPECT_FALSE(t.parse(std::string("# olden-profile-feedback v1\nMST ") +
                             index + " cache\n",
                         &err))
        << index;
    EXPECT_NE(err.find(std::string("bad site index \"") + index + "\""),
              std::string::npos)
        << err;
  }
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

// --- the document --profile writes -----------------------------------------

TEST(Feedback, DocumentCarriesEvidenceAndParsesBack) {
  // One row per site, each after a comment naming the site's uid and its
  // evidence, then the scoreboard line; the grammar reads it all back.
  const Benchmark* b = find_benchmark("MST");
  ASSERT_NE(b, nullptr);
  trace::Observer obs;
  obs.enable_profile();
  obs.begin_run("doc", {{"benchmark", b->name()}});
  BenchConfig cfg{.nprocs = 8};
  cfg.tiny = true;
  cfg.observer = &obs;
  (void)b->run(cfg);
  // A run without a benchmark name has no uid to join on and adds nothing.
  obs.begin_run("anonymous");
  (void)b->run(cfg);

  const std::string doc = profile::feedback_from_profile(obs.runs());
  EXPECT_EQ(doc.rfind("# olden-profile-feedback v1\n", 0), 0u) << doc;
  EXPECT_NE(doc.find("\n# MST#2 "), std::string::npos) << doc;
  EXPECT_NE(doc.find("DISAGREE (recommend cache)\nMST 2 cache\n"),
            std::string::npos)
      << doc;
  const std::size_t sites = obs.runs()[0].profile.sites.size();
  profile::FeedbackTable t;
  std::string err;
  ASSERT_TRUE(t.parse(doc, &err)) << err;
  EXPECT_EQ(t.size(), sites);
  EXPECT_NE(doc.find("# scoreboard: " + std::to_string(sites) + " sites, " +
                     std::to_string(sites - 2) + " agree, 2 disagree\n"),
            std::string::npos)
      << doc;
}

// --- scoreboard grading ----------------------------------------------------

profile::SiteProfile counts(Mechanism chosen, std::uint64_t local_reads,
                            std::uint64_t hits, std::uint64_t misses,
                            std::uint64_t write_throughs,
                            std::uint64_t migrations) {
  profile::SiteProfile s;
  s.mechanism = chosen;
  s.local_reads = local_reads;
  s.cache_hits = hits;
  s.cache_misses = misses;
  s.write_throughs = write_throughs;
  s.migrations = migrations;
  return s;
}

constexpr Mechanism kMig = Mechanism::kMigrate;
constexpr Mechanism kCache = Mechanism::kCache;

TEST(Scoreboard, MigrateSiteBelowAffinityBarFlipsToCache) {
  const auto g = profile::grade_site(counts(kMig, 50, 0, 0, 0, 50));
  EXPECT_FALSE(g.agree);
  EXPECT_EQ(g.recommended, Mechanism::kCache);

  const auto ok = profile::grade_site(counts(kMig, 95, 0, 0, 0, 5));
  EXPECT_TRUE(ok.agree);
}

TEST(Scoreboard, CacheSiteFlipsOnlyOnRemoteTrafficWithPoorReuse) {
  const auto bad = profile::grade_site(counts(kCache, 0, 10, 90, 0, 0));
  EXPECT_FALSE(bad.agree);
  EXPECT_EQ(bad.recommended, Mechanism::kMigrate);

  const auto reuse = profile::grade_site(counts(kCache, 0, 90, 10, 0, 0));
  EXPECT_TRUE(reuse.agree);

  // Write-only remote traffic: no reuse signal, never flipped.
  const auto writes = profile::grade_site(counts(kCache, 0, 0, 0, 100, 0));
  EXPECT_TRUE(writes.agree);

  const auto idle = profile::grade_site(counts(kCache, 0, 0, 0, 0, 0));
  EXPECT_TRUE(idle.agree);
}

// The bars are exact: the scoreboard grades in integers
// (graded_mechanism), so no rounding moves a site across a bar.
TEST(Scoreboard, BarsAreIntegerExact) {
  // Exactly 90% local meets the affinity bar.
  const auto at_bar = profile::grade_site(counts(kMig, 900, 0, 0, 0, 100));
  EXPECT_TRUE(at_bar.agree);
  // 899 of 1000 local falls just below it.
  const auto below = profile::grade_site(counts(kMig, 899, 0, 0, 0, 101));
  EXPECT_FALSE(below.agree);
  EXPECT_EQ(below.recommended, Mechanism::kCache);
  // Exactly 50% hits meets the hit-rate floor, however remote the site.
  EXPECT_TRUE(profile::grade_site(counts(kCache, 0, 50, 50, 0, 0)).agree);
  EXPECT_FALSE(profile::grade_site(counts(kCache, 0, 49, 51, 0, 0)).agree);
}

}  // namespace
}  // namespace olden
