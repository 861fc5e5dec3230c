// Cross-run trace diffing (src/olden/analyze/diff.hpp).
//
// The load-bearing property is exactness: the per-bucket, per-site,
// per-page and per-edge delta attributions must each sum to precisely the
// makespan delta — no residuals, no double counting — because a report
// that "roughly" explains a regression cannot be trusted to name its
// cause. That invariant is held here across benchmarks x scheme pairs,
// with and without fault injection, and through the top-N/other rollup.
// The rendered documents are pinned, and byte-identical across repeats
// and across the cell runner's job counts (bench::run_cells).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "olden/analyze/diff.hpp"
#include "olden/analyze/streaming.hpp"
#include "olden/bench/benchmark.hpp"
#include "olden/bench/runner.hpp"
#include "olden/fault/fault_spec.hpp"
#include "olden/trace/observer.hpp"
#include "trace_digest.hpp"

namespace olden::bench {
namespace {

void run_cell(trace::Observer& obs, const std::string& name, Coherence scheme,
              const fault::FaultSpec* faults = nullptr) {
  const Benchmark* b = find_benchmark(name);
  ASSERT_NE(b, nullptr) << name;
  obs.begin_run(name + "/diff");
  BenchConfig cfg{.nprocs = 4, .scheme = scheme};
  cfg.tiny = true;
  cfg.observer = &obs;
  cfg.faults = faults;
  (void)b->run(cfg);
}

/// The diff profile of every run `obs` streamed, read back from disk.
std::vector<analyze::DiffProfile> profiles_of(test::StreamedObserver& obs) {
  analyze::TraceFile file;
  std::vector<analyze::RunReport> reports;
  std::vector<analyze::DiffProfile> profiles;
  test::analyze_observer(obs, 10, &file, &reports, &profiles);
  return profiles;
}

/// Trace one cell and return its diff profile.
analyze::DiffProfile profile_cell(const std::string& name, Coherence scheme,
                                  const fault::FaultSpec* faults = nullptr) {
  test::StreamedObserver obs;
  run_cell(obs, name, scheme, faults);
  std::vector<analyze::DiffProfile> profiles = profiles_of(obs);
  EXPECT_EQ(profiles.size(), 1u);
  return profiles.empty() ? analyze::DiffProfile{} : std::move(profiles[0]);
}

/// Every partition of the report — including the emitted top rows plus
/// their other-rollup — must balance to the makespan delta.
void expect_exact(const analyze::DiffReport& rep) {
  EXPECT_EQ(rep.makespan_delta, static_cast<std::int64_t>(rep.b.makespan) -
                                    static_cast<std::int64_t>(rep.a.makespan));
  EXPECT_EQ(rep.bucket_delta_sum, rep.makespan_delta);
  EXPECT_EQ(rep.site_delta_sum, rep.makespan_delta);
  EXPECT_EQ(rep.page_delta_sum, rep.makespan_delta);
  EXPECT_EQ(rep.edge_delta_sum, rep.makespan_delta);

  std::int64_t buckets = 0;
  for (const analyze::DiffRow& row : rep.buckets) buckets += row.delta;
  EXPECT_EQ(buckets, rep.makespan_delta);

  std::int64_t sites = rep.sites_other.delta;
  for (const analyze::SiteDiff& s : rep.sites) sites += s.row.delta;
  EXPECT_EQ(sites, rep.makespan_delta);

  std::int64_t pages = rep.pages_other.delta;
  for (const analyze::PageDiff& p : rep.pages) pages += p.row.delta;
  EXPECT_EQ(pages, rep.makespan_delta);

  std::int64_t edges = rep.edges_other.delta;
  for (const analyze::EdgeDiff& e : rep.edges) edges += e.row.delta;
  EXPECT_EQ(edges, rep.makespan_delta);
}

class DiffExactness
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::pair<Coherence, Coherence>>> {};

TEST_P(DiffExactness, EveryPartitionSumsToTheMakespanDelta) {
  const auto& [name, schemes] = GetParam();
  const analyze::DiffProfile a = profile_cell(name, schemes.first);
  const analyze::DiffProfile b = profile_cell(name, schemes.second);

  // Per-run exactness first: each profile's partitions sum to its own
  // makespan (the critical-path telescoping property the diff builds on).
  for (const analyze::DiffProfile* p : {&a, &b}) {
    std::uint64_t total = 0;
    for (const std::uint64_t c : p->buckets) total += c;
    EXPECT_EQ(total, p->makespan) << p->label;
    std::uint64_t site_total = 0;
    for (const auto& [site, c] : p->site_cycles) site_total += c;
    EXPECT_EQ(site_total, p->makespan) << p->label;
    std::uint64_t edge_total = 0;
    for (const auto& [key, c] : p->edge_cycles) edge_total += c;
    EXPECT_EQ(edge_total, p->makespan) << p->label;
  }

  // A small top_n forces the other-rollup path; exactness must survive it.
  for (const std::size_t top_n : {std::size_t{100}, std::size_t{2}}) {
    analyze::DiffReport rep;
    std::string err;
    ASSERT_TRUE(analyze::diff_runs(a, b, top_n, &rep, &err)) << err;
    expect_exact(rep);
    EXPECT_LE(rep.sites.size(), top_n);
    EXPECT_LE(rep.pages.size(), top_n);
    EXPECT_LE(rep.edges.size(), top_n);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cells, DiffExactness,
    ::testing::Combine(
        ::testing::Values("TreeAdd", "MST", "Health"),
        ::testing::Values(
            std::pair{Coherence::kLocalKnowledge, Coherence::kEagerGlobal},
            std::pair{Coherence::kLocalKnowledge, Coherence::kBilateral},
            std::pair{Coherence::kEagerGlobal, Coherence::kBilateral})),
    [](const auto& info) {
      auto s = [](Coherence c) {
        return c == Coherence::kLocalKnowledge ? "local"
               : c == Coherence::kEagerGlobal  ? "global"
                                               : "bilateral";
      };
      return std::get<0>(info.param) + "_" + s(std::get<1>(info.param).first) +
             "_vs_" + s(std::get<1>(info.param).second);
    });

TEST(Diff, SelfDiffIsZeroEverywhereAndFullyAligned) {
  const analyze::DiffProfile p =
      profile_cell("TreeAdd", Coherence::kLocalKnowledge);
  analyze::DiffReport rep;
  std::string err;
  ASSERT_TRUE(analyze::diff_runs(p, p, 1000, &rep, &err)) << err;
  expect_exact(rep);
  EXPECT_EQ(rep.makespan_delta, 0);
  for (const analyze::DiffRow& row : rep.buckets) EXPECT_EQ(row.delta, 0);
  for (const analyze::SiteDiff& s : rep.sites) EXPECT_EQ(s.row.delta, 0);
  for (const analyze::PageDiff& g : rep.pages) EXPECT_EQ(g.row.delta, 0);
  for (const analyze::EdgeDiff& e : rep.edges) EXPECT_EQ(e.row.delta, 0);
  EXPECT_EQ(rep.chains_a, rep.chains_b);
  EXPECT_EQ(rep.chains_aligned, rep.chains_a);
  EXPECT_GT(rep.chains_a, 0u);
}

TEST(Diff, ExactnessHoldsUnderFaultInjection) {
  fault::FaultSpec spec;
  std::string err;
  ASSERT_TRUE(
      fault::parse_fault_spec("drop=0.05,dup=0.02,delay=0.1:800", &spec, &err))
      << err;
  const analyze::DiffProfile clean =
      profile_cell("TreeAdd", Coherence::kBilateral);
  const analyze::DiffProfile faulty =
      profile_cell("TreeAdd", Coherence::kBilateral, &spec);
  analyze::DiffReport rep;
  ASSERT_TRUE(analyze::diff_runs(clean, faulty, 10, &rep, &err)) << err;
  expect_exact(rep);
}

/// The diff documents of a healthy, a truncated and a fault-injected run
/// match their pinned digests byte for byte.
TEST(Diff, ReportsMatchPins) {
  fault::FaultSpec spec;
  std::string err;
  ASSERT_TRUE(
      fault::parse_fault_spec("drop=0.05,dup=0.02,delay=0.1:800", &spec, &err))
      << err;
  test::StreamedObserver obs;
  obs.set_event_limit(20'000);  // truncates the middle run
  run_cell(obs, "TreeAdd", Coherence::kLocalKnowledge);
  run_cell(obs, "MST", Coherence::kEagerGlobal);
  run_cell(obs, "Health", Coherence::kBilateral, &spec);
  const std::vector<analyze::DiffProfile> profiles = profiles_of(obs);
  ASSERT_EQ(profiles.size(), 3u);
  EXPECT_TRUE(profiles[1].truncated);  // the limit actually bit

  std::vector<analyze::DiffReport> reports;
  std::string human;
  for (std::size_t i = 0; i + 1 < profiles.size(); ++i) {
    analyze::DiffReport rep;
    ASSERT_TRUE(analyze::diff_runs(profiles[i], profiles[i + 1], 10, &rep,
                                   &err))
        << err;
    expect_exact(rep);
    human += analyze::human_diff(rep);
    reports.push_back(std::move(rep));
  }
  // Both pairwise diffs of this file, as one JSON document and as the
  // human tables.
  EXPECT_EQ(test::fnv1a(analyze::json_diff(reports)), 0x6b76bf7872065c27ULL);
  EXPECT_EQ(test::fnv1a(human), 0xfd024757baa6cec2ULL);
}

/// A clean run diffed against a coherence-faulted run attributes the new
/// retransmissions to the coherence classes — never to migration, never
/// to "unknown" (the encoding is present in freshly produced traces).
TEST(Diff, RetryAttributionSplitsByMessageClass) {
  fault::FaultSpec spec;
  std::string err;
  ASSERT_TRUE(fault::parse_fault_spec(
      "drop=0.3,dup=0.2,timeout=2500,classes=fill:invalidate:ts_check", &spec,
      &err))
      << err;
  const analyze::DiffProfile clean =
      profile_cell("EM3D", Coherence::kLocalKnowledge);
  const analyze::DiffProfile faulty =
      profile_cell("EM3D", Coherence::kLocalKnowledge, &spec);

  const auto idx = [](MsgClass c) { return static_cast<std::size_t>(c); };
  EXPECT_EQ(clean.retries_by_class, decltype(clean.retries_by_class){});
  EXPECT_GT(faulty.retries_by_class[idx(MsgClass::kFill)], 0u);
  EXPECT_EQ(faulty.retries_by_class[idx(MsgClass::kMigration)], 0u);
  EXPECT_EQ(faulty.retries_by_class[kNumMsgClasses], 0u);  // no "unknown"

  analyze::DiffReport rep;
  ASSERT_TRUE(analyze::diff_runs(clean, faulty, 10, &rep, &err)) << err;
  const analyze::DiffRow& fill = rep.retries_by_class[idx(MsgClass::kFill)];
  EXPECT_EQ(fill.a, 0u);
  EXPECT_EQ(fill.b, faulty.retries_by_class[idx(MsgClass::kFill)]);
  EXPECT_EQ(fill.delta, static_cast<std::int64_t>(fill.b));

  const std::string json = analyze::json_diff({rep});
  EXPECT_NE(json.find("\"retries_by_class\""), std::string::npos);
  EXPECT_NE(json.find("\"unknown\""), std::string::npos);
  const std::string human = analyze::human_diff(rep);
  EXPECT_NE(human.find("retransmits by message class"), std::string::npos)
      << human;
  EXPECT_NE(human.find("fill"), std::string::npos) << human;
}

/// Determinism: the same workload pair diffed twice, and diffed from
/// traces the cell runner merged at one job and at four, yields
/// byte-identical documents. (CellRunner holds those traces to the cells
/// streamed serially.)
TEST(Diff, OutputBytesInvariantAcrossRepeatsAndTraceProduction) {
  const Benchmark* tree = find_benchmark("TreeAdd");
  const std::vector<Cell> cells = {{tree, 4, Coherence::kLocalKnowledge},
                                   {tree, 4, Coherence::kEagerGlobal}};

  fault::FaultSpec spec;
  {
    std::string err;
    ASSERT_TRUE(fault::parse_fault_spec("drop=0.05,delay=0.1:800", &spec, &err))
        << err;
  }
  // Runs `cells` and, under `spec`, the global cell again through the
  // runner at `jobs` (deterministic replay of the fault plane is part of
  // the byte-identity promise), and diffs runs 0 -> 1 and 1 -> 2: both
  // documents and tables.
  const auto diff_documents = [&](std::size_t jobs) {
    test::StreamedObserver obs;
    BenchConfig cfg;
    cfg.tiny = true;
    cfg.observer = &obs;
    std::vector<CellResult> results = run_cells("diff", cells, cfg, jobs);
    cfg.faults = &spec;
    results.push_back(run_cells("diff", {cells[1]}, cfg, jobs)[0]);
    for (const CellResult& r : results) EXPECT_TRUE(r.ok) << r.error;
    const std::vector<analyze::DiffProfile> p = profiles_of(obs);
    EXPECT_EQ(p.size(), 3u);
    if (p.size() != 3) return std::string{};
    analyze::DiffReport rep;
    std::string err;
    EXPECT_TRUE(analyze::diff_runs(p[0], p[1], 10, &rep, &err)) << err;
    analyze::DiffReport faulty;
    EXPECT_TRUE(analyze::diff_runs(p[1], p[2], 10, &faulty, &err)) << err;
    return analyze::json_diff({rep, faulty}) + analyze::human_diff(rep) +
           analyze::human_diff(faulty);
  };
  const std::string first = diff_documents(1);
  EXPECT_EQ(diff_documents(1), first);
  EXPECT_EQ(diff_documents(4), first);
}

}  // namespace
}  // namespace olden::bench
