// Tests for the offline trace-analysis engine: the v2 round trip of every
// causal field through the reader, the exact-makespan critical-path
// invariant on real traces, min-idle path selection checked against an
// exhaustive search over random small runs, and heaviest-edge order and
// hot-site / ping-pong detection on synthetic runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "olden/analyze/classify.hpp"
#include "olden/analyze/streaming.hpp"
#include "olden/bench/benchmark.hpp"
#include "olden/support/rng.hpp"
#include "olden/trace/observer.hpp"
#include "trace_digest.hpp"

namespace olden::analyze {
namespace {

using trace::CycleBucket;
using trace::EventKind;
using trace::TraceEvent;

// --- helpers -------------------------------------------------------------

/// A traced tiny TreeAdd run through the real machine, into `obs`.
void observed_treeadd(trace::Observer& obs, ProcId nprocs,
                      std::uint64_t* makespan) {
  const bench::Benchmark* b = bench::find_benchmark("TreeAdd");
  bench::BenchConfig cfg;
  cfg.nprocs = nprocs;
  cfg.tiny = true;
  cfg.observer = &obs;
  obs.begin_run("analyze-test/TreeAdd");
  const bench::BenchResult r = b->run(cfg);
  if (makespan != nullptr) *makespan = r.total_cycles;
}

TraceEvent make_event(std::uint64_t id, Cycles time, ProcId proc,
                      EventKind kind, std::uint64_t arg0 = 0,
                      std::uint64_t arg1 = 0,
                      std::uint64_t parent = trace::kNoEvent) {
  TraceEvent e;
  e.id = id;
  e.time = time;
  e.proc = proc;
  e.kind = kind;
  e.arg0 = arg0;
  e.arg1 = arg1;
  e.parent = parent;
  e.chain = 0;
  return e;
}

/// Analyze a synthetic run: `events` carry dense ids in emission order.
RunReport analyze_events(ProcId nprocs, Cycles makespan,
                         const std::vector<TraceEvent>& events) {
  TraceRun header;
  header.label = "synthetic";
  header.nprocs = nprocs;
  header.makespan = makespan;
  header.num_events = events.size();
  StreamingRunAnalyzer an(header, 10);
  for (const TraceEvent& e : events) EXPECT_TRUE(an.add(e)) << an.error();
  RunReport rep;
  std::string err;
  EXPECT_TRUE(an.finish(&rep, &err)) << err;
  return rep;
}

Cycles bucket(const CriticalPath& path, CycleBucket b) {
  return path.attribution[static_cast<std::size_t>(b)];
}

// --- reader --------------------------------------------------------------

TEST(TraceReader, RoundTripsV2IncludingCausalFields) {
  test::StreamedObserver obs;
  observed_treeadd(obs, 4, nullptr);
  ASSERT_EQ(obs.runs().size(), 1u);
  const trace::RunRecord& rec = obs.runs()[0];
  ASSERT_GT(rec.events_streamed, 0u);

  std::string err;
  TraceStream ts;
  ASSERT_TRUE(ts.open(obs.path(), &err)) << err;
  EXPECT_EQ(ts.version(), trace::kBinaryTraceVersion);
  EXPECT_EQ(ts.num_runs(), 1u);
  TraceRun run;
  ASSERT_TRUE(ts.next_run(&run, &err)) << err;
  EXPECT_EQ(run.label, rec.label);
  EXPECT_EQ(run.nprocs, rec.nprocs);
  EXPECT_EQ(run.makespan, rec.makespan);
  EXPECT_EQ(run.events_dropped, rec.events_dropped);
  EXPECT_EQ(run.num_events, rec.events_streamed);
  std::vector<TraceEvent> events;
  std::vector<TraceEvent> batch;
  while (ts.next_events(&batch, 1000, &err)) {
    events.insert(events.end(), batch.begin(), batch.end());
  }
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_FALSE(ts.next_run(&run, &err));
  EXPECT_TRUE(err.empty()) << err;

  // Every field of every record is held to StreamingSink's round trip;
  // here the runtime's own stream reads back whole and in order, with
  // per-kind counts that match the observer's.
  ASSERT_EQ(events.size(), rec.events_streamed);
  std::array<std::uint64_t, trace::kNumEventKinds> kinds{};
  bool any_parent = false;
  bool any_chain = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& got = events[i];
    EXPECT_EQ(got.id, i);
    EXPECT_LT(got.proc, 4u) << i;
    EXPECT_LE(got.time, rec.makespan) << i;
    ++kinds[static_cast<std::size_t>(got.kind)];
    any_parent = any_parent || got.parent != trace::kNoEvent;
    any_chain = any_chain || got.chain != trace::kNoChain;
  }
  EXPECT_EQ(kinds, rec.event_counts);
  // A multi-processor TreeAdd definitely produced causal links and chains.
  EXPECT_TRUE(any_parent);
  EXPECT_TRUE(any_chain);
}

// --- critical path -------------------------------------------------------

TEST(CriticalPathTest, TotalEqualsMakespanOnRealTrace) {
  // The acceptance invariant: on a real 8-processor TreeAdd trace the
  // extracted path's weight is the traced makespan, exactly, and the
  // per-bucket attribution tiles it with no remainder.
  std::uint64_t makespan = 0;
  test::StreamedObserver obs;
  observed_treeadd(obs, 8, &makespan);
  TraceFile file;
  std::vector<RunReport> reports;
  test::analyze_observer(obs, 10, &file, &reports);
  ASSERT_EQ(reports.size(), 1u);
  const TraceRun& run = file.runs.at(0);
  ASSERT_EQ(run.makespan, makespan);
  ASSERT_FALSE(run.truncated());

  const CriticalPath& path = reports[0].path;
  EXPECT_EQ(path.total_cycles, makespan);
  std::uint64_t attributed = 0;
  for (std::uint64_t w : path.attribution) attributed += w;
  EXPECT_EQ(attributed, path.total_cycles);
  EXPECT_GT(path.edges, kHeaviestEdges);
  ASSERT_EQ(path.heaviest.size(), kHeaviestEdges);
  for (std::size_t i = 1; i < path.heaviest.size(); ++i) {
    EXPECT_GE(path.heaviest[i - 1].weight, path.heaviest[i].weight) << i;
  }
}

TEST(CriticalPathTest, EmptyRunIsOneOpaqueEdge) {
  const RunReport rep = analyze_events(2, 100, {});
  EXPECT_EQ(rep.path.total_cycles, 100u);
  EXPECT_EQ(bucket(rep.path, CycleBucket::kIdle), 100u);
  EXPECT_EQ(rep.path.edges, 1u);
  ASSERT_EQ(rep.path.heaviest.size(), 1u);
  EXPECT_EQ(rep.path.heaviest[0].weight, 100u);
  EXPECT_EQ(rep.path.heaviest[0].src_kind, kSourceNode);
  EXPECT_EQ(rep.path.heaviest[0].dst_kind, kSinkNode);
}

TEST(CriticalPathTest, PrefersThePathWithLeastIdle) {
  // Two routes to the sink: straight up proc 1 (idle until its only event
  // at t=90), or through proc 0's work at t=50 and the causal edge to
  // proc 1. Both telescope to the makespan; the extractor must take the
  // one that works longer.
  const RunReport rep = analyze_events(
      2, 100,
      {make_event(0, 50, 0, EventKind::kCacheHit, 7),
       make_event(1, 90, 1, EventKind::kCacheHit, 7, 0, /*parent=*/0)});
  EXPECT_EQ(rep.path.total_cycles, 100u);
  // SOURCE -> e0 (50 compute) -> e1 (40 causal compute) -> SINK (10 idle).
  EXPECT_EQ(bucket(rep.path, CycleBucket::kIdle), 10u);
  EXPECT_EQ(bucket(rep.path, CycleBucket::kCompute), 90u);
  EXPECT_EQ(rep.path.edges, 3u);
  ASSERT_EQ(rep.path.heaviest.size(), 3u);
  EXPECT_EQ(rep.path.heaviest[0].weight, 50u);
  EXPECT_EQ(rep.path.heaviest[0].src_kind, kSourceNode);
  EXPECT_EQ(rep.path.heaviest[0].proc, 0u);
  EXPECT_EQ(rep.path.heaviest[1].weight, 40u);
  EXPECT_EQ(rep.path.heaviest[1].proc, 1u);
  EXPECT_EQ(rep.path.heaviest[1].time, 90u);
  EXPECT_EQ(rep.path.heaviest[2].dst_kind, kSinkNode);
}

TEST(CriticalPathTest, MigrationTransitIsAttributedToMigration) {
  const RunReport rep = analyze_events(
      2, 60,
      {make_event(0, 10, 0, EventKind::kMigrationDepart, /*target=*/1),
       make_event(1, 40, 1, EventKind::kMigrationArrive, /*src=*/0,
                  /*transit=*/30, /*parent=*/0)});
  EXPECT_EQ(rep.path.total_cycles, 60u);
  EXPECT_EQ(bucket(rep.path, CycleBucket::kMigration), 30u);
}

TEST(CriticalPathTest, EqualWeightEdgesKeepSourceToSinkOrder) {
  // One processor, three 10-cycle gaps and a 20-cycle tail: the heaviest
  // table lists the tail first, then the equal edges in path order.
  const RunReport rep = analyze_events(
      1, 50,
      {make_event(0, 10, 0, EventKind::kCacheHit, 1),
       make_event(1, 20, 0, EventKind::kCacheMiss, 2),
       make_event(2, 30, 0, EventKind::kCacheHit, 3)});
  ASSERT_EQ(rep.path.heaviest.size(), 4u);
  EXPECT_EQ(rep.path.heaviest[0].weight, 20u);
  EXPECT_EQ(rep.path.heaviest[0].dst_kind, kSinkNode);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(rep.path.heaviest[i].weight, 10u) << i;
    EXPECT_EQ(rep.path.heaviest[i].time, 10 * i) << i;
  }
  EXPECT_EQ(rep.path.heaviest[2].bucket, CycleBucket::kCacheStall);
}

// --- an oracle for the DP ------------------------------------------------
//
// The critical-path DAG (critical_path.hpp) built as an explicit edge
// list from its three rules, and searched exhaustively: on a small run
// every SOURCE -> SINK path can be enumerated, so the minimum idle over
// all of them needs no second extractor to check the analyzer's DP.

struct OracleEdge {
  std::size_t dst;
  Cycles weight;
  CycleBucket bucket;
};

/// The least idle over every SOURCE -> SINK path of a run. Nodes are the
/// events, then SOURCE (= n), then SINK (= n + 1).
Cycles min_idle_over_all_paths(ProcId nprocs, Cycles makespan,
                               const std::vector<TraceEvent>& events) {
  const std::size_t n = events.size();
  const std::size_t source = n;
  const std::size_t sink = n + 1;
  std::vector<std::vector<OracleEdge>> out(n + 2);
  const auto time_of = [&](std::size_t node) {
    return node == source ? Cycles{0}
           : node == sink ? makespan
                          : events[node].time;
  };
  const auto add = [&](std::size_t src, std::size_t dst, CycleBucket b) {
    if (time_of(dst) < time_of(src)) return;  // negative: not an edge
    out[src].push_back({dst, time_of(dst) - time_of(src), b});
  };

  // Per-processor order, with the SOURCE -> first-event boundary edges.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (events[a].time != events[b].time) {
      return events[a].time < events[b].time;
    }
    return a < b;
  });
  std::vector<std::size_t> last(nprocs, source);
  for (const std::size_t i : order) {
    const TraceEvent& e = events[i];
    const std::size_t prev = last[e.proc];
    if (prev == source) {
      add(source, i,
          e.proc == 0 ? classify::dst_bucket(e.kind, e.arg0 > 0)
                      : CycleBucket::kIdle);
    } else {
      add(prev, i,
          classify::chain_bucket(events[prev].kind, e.kind, e.arg0 > 0));
    }
    last[e.proc] = i;
  }
  // Last-event -> SINK boundary edges, or one SOURCE -> SINK edge.
  bool any = false;
  for (const std::size_t l : last) {
    if (l == source) continue;
    any = true;
    add(l, sink, CycleBucket::kIdle);
  }
  if (!any) add(source, sink, CycleBucket::kIdle);
  // Causal parent links (a parent past the run was dropped).
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t par = events[i].parent;
    if (par == trace::kNoEvent || par >= n) continue;
    add(par, i,
        classify::causal_bucket(events[par].kind, events[i].kind,
                                events[i].arg0 > 0));
  }

  Cycles best = ~Cycles{0};
  const std::function<void(std::size_t, Cycles)> dfs = [&](std::size_t node,
                                                           Cycles idle) {
    if (node == sink) {
      best = std::min(best, idle);
      return;
    }
    for (const OracleEdge& e : out[node]) {
      dfs(e.dst, idle + (e.bucket == CycleBucket::kIdle ? e.weight : 0));
    }
  };
  dfs(source, 0);
  return best;
}

TEST(CriticalPathProperty, IdleIsTheMinimumOverEveryPath) {
  // Small random runs: dense ids, backward (or dropped) parents, equal
  // times, and parents later in time than their child, whose edge would
  // be negative.
  Rng rng(20261017);
  for (int trial = 0; trial < 400; ++trial) {
    const ProcId nprocs = static_cast<ProcId>(1 + rng.next_below(3));
    const std::size_t n = rng.next_below(11);
    std::vector<TraceEvent> events;
    Cycles latest = 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t parent = trace::kNoEvent;
      const std::uint64_t roll = rng.next_below(4);
      if (roll == 1 && i > 0) parent = rng.next_below(i);
      if (roll == 2) parent = n + rng.next_below(3);  // dropped
      const Cycles time = rng.next_below(12) * 5;
      const auto proc = static_cast<ProcId>(rng.next_below(nprocs));
      const auto kind =
          static_cast<EventKind>(rng.next_below(trace::kNumEventKinds));
      events.push_back(
          make_event(i, time, proc, kind, rng.next_below(2), 0, parent));
      latest = std::max(latest, events.back().time);
    }
    const Cycles makespan = latest + rng.next_below(20);
    const RunReport rep = analyze_events(nprocs, makespan, events);

    EXPECT_EQ(rep.path.total_cycles, makespan) << "trial " << trial;
    Cycles attributed = 0;
    for (const Cycles c : rep.path.attribution) attributed += c;
    EXPECT_EQ(attributed, makespan) << "trial " << trial;
    EXPECT_EQ(bucket(rep.path, CycleBucket::kIdle),
              min_idle_over_all_paths(nprocs, makespan, events))
        << "trial " << trial;
    EXPECT_GE(rep.path.edges, 1u) << "trial " << trial;
    EXPECT_LE(rep.path.heaviest.size(), kHeaviestEdges) << "trial " << trial;
  }
}

// --- run reports ---------------------------------------------------------

TEST(AnalyzeReport, HotSitesMatchArrivalsToDepartures) {
  TraceEvent dep = make_event(0, 10, 0, EventKind::kMigrationDepart, 1);
  dep.site = 7;
  TraceEvent dep2 = make_event(2, 40, 1, EventKind::kMigrationDepart, 0);
  dep2.site = 7;
  const RunReport rep = analyze_events(
      2, 100,
      {dep,
       make_event(1, 35, 1, EventKind::kMigrationArrive, /*src=*/0,
                  /*transit=*/25, /*parent=*/0),
       dep2,
       // Second arrival's depart was dropped at the trace limit: unmatched.
       make_event(3, 70, 0, EventKind::kMigrationArrive, /*src=*/1,
                  /*transit=*/30, /*parent=*/99)});
  ASSERT_EQ(rep.hot_sites.size(), 1u);
  EXPECT_EQ(rep.hot_sites[0].site, 7u);
  EXPECT_EQ(rep.hot_sites[0].departs, 2u);
  EXPECT_EQ(rep.hot_sites[0].arrives_matched, 1u);
  EXPECT_EQ(rep.hot_sites[0].transit_cycles, 25u);
}

TEST(AnalyzeReport, DetectsPingPongAndFalseSharing) {
  const std::uint64_t page = 5;
  // Proc 0 and proc 1 both fill the page; proc 1 is invalidated and then
  // refills: one ping-pong with two sharers = false-sharing suspect.
  const RunReport rep = analyze_events(
      2, 100,
      {make_event(0, 10, 0, EventKind::kCacheLineFill, page, 0),
       make_event(1, 20, 1, EventKind::kCacheLineFill, page, 1),
       make_event(2, 30, 1, EventKind::kLineInvalidate, page, /*dropped=*/2),
       make_event(3, 40, 1, EventKind::kCacheLineFill, page, 1),
       // An invalidate that dropped nothing must not arm ping-pong
       // detection.
       make_event(4, 50, 0, EventKind::kLineInvalidate, page, /*dropped=*/0),
       make_event(5, 60, 0, EventKind::kCacheHit, page)});
  EXPECT_EQ(rep.pages_tracked, 1u);
  EXPECT_EQ(rep.ping_pong_total, 1u);
  ASSERT_EQ(rep.hot_pages.size(), 1u);
  const PageStats& p = rep.hot_pages[0];
  EXPECT_EQ(p.page, page);
  EXPECT_EQ(p.heat, 1u);
  EXPECT_EQ(p.fills, 3u);
  EXPECT_EQ(p.invalidates, 1u);
  EXPECT_EQ(p.ping_pongs, 1u);
  EXPECT_EQ(p.sharers, 2u);
  EXPECT_TRUE(p.false_sharing_suspect);
}

TEST(AnalyzeReport, JsonReportIsSchemaVersioned) {
  test::StreamedObserver obs;
  observed_treeadd(obs, 4, nullptr);
  TraceFile file;
  std::vector<RunReport> reports;
  test::analyze_observer(obs, 5, &file, &reports);
  ASSERT_EQ(reports.size(), 1u);
  const std::string json = json_report(file, reports);
  EXPECT_NE(json.find("\"analysis_schema_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"generator\":\"olden-analyze\""), std::string::npos);
  EXPECT_NE(json.find("\"critical_path\""), std::string::npos);
  EXPECT_NE(json.find("\"hot_sites\""), std::string::npos);
  const std::string human = human_report(file.runs[0], reports[0]);
  EXPECT_NE(human.find("critical path:"), std::string::npos);
  EXPECT_NE(human.find("heaviest edges:"), std::string::npos);
}

}  // namespace
}  // namespace olden::analyze
