// Edge cases in the runtime: deep nesting, future/migration interleavings,
// multi-line object transfers, write-through visibility, and the
// accounting invariants DESIGN.md §7 promises.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "olden/fault/fault_spec.hpp"
#include "olden/olden.hpp"

namespace olden {
namespace {

struct Big {
  // Spans three 64-byte lines; single accesses must fetch them all.
  std::int64_t words[20];
};

struct Node {
  std::int64_t val;
  GPtr<Node> next;
};

enum Site : SiteId { kCache0, kMig0, kNumSites };

std::vector<Mechanism> table() {
  return {Mechanism::kCache, Mechanism::kMigrate};
}

// --- multi-line cached transfers ----------------------------------------

Task<std::int64_t> big_roundtrip(Machine& m) {
  auto b = m.alloc<Big>(2);
  Big v{};
  for (int i = 0; i < 20; ++i) v.words[i] = 1000 + i;
  co_await wr_obj(b, v, kCache0);           // write-through, 3 lines
  const Big back = co_await rd_obj(b, kCache0);  // fetch 3 lines
  std::int64_t acc = 0;
  for (int i = 0; i < 20; ++i) acc += back.words[i] - v.words[i];
  co_return acc;
}

Task<std::int64_t> big_roundtrip_first_line_cached(Machine& m) {
  auto b = m.alloc<Big>(2);
  Big v{};
  for (int i = 0; i < 20; ++i) v.words[i] = 1000 + i;
  co_await wr_obj(b, v, kCache0);
  // Cache only the object's first line, then read the whole object.
  const std::int64_t first =
      co_await rd_elem(GPtr<std::int64_t>(b.addr()), 0, kCache0);
  const Big back = co_await rd_obj(b, kCache0);
  std::int64_t acc = first - v.words[0];
  for (int i = 0; i < 20; ++i) acc += back.words[i] - v.words[i];
  co_return acc;
}

TEST(RuntimeEdge, MultiLineObjectTransfers) {
  Machine m({.nprocs = 4});
  m.set_site_mechanisms(table());
  EXPECT_EQ(run_program(m, big_roundtrip(m)), 0);
  // One logical read access, but the line-grain fetch moved 3 lines: the
  // miss counter is per access, pages per (proc, page).
  EXPECT_EQ(m.stats().cache_misses, 1u);
  EXPECT_GE(m.stats().pages_cached, 1u);

  // With the first line already cached, the object read completes chunk
  // 1 from the cache and fills chunks 2 and 3: three fills in all, each a
  // blocking round trip. A fault plane that injects nothing counts them
  // on its ledger and changes nothing else.
  Machine n({.nprocs = 4});
  n.set_site_mechanisms(table());
  EXPECT_EQ(run_program(n, big_roundtrip_first_line_cached(n)), 0);
  EXPECT_EQ(n.stats().cache_misses, 2u);  // the word, then the object

  fault::FaultSpec spec;
  std::string err;
  ASSERT_TRUE(fault::parse_fault_spec("drop=0", &spec, &err)) << err;
  Machine f({.nprocs = 4, .faults = &spec});
  f.set_site_mechanisms(table());
  EXPECT_EQ(run_program(f, big_roundtrip_first_line_cached(f)), 0);
  EXPECT_EQ(f.stats().coherence_requests, 3u);
  MachineStats ledgerless = f.stats();
  ledgerless.fault_messages = 0;
  ledgerless.acks_sent = 0;
  ledgerless.coherence_requests = 0;
  for (std::uint64_t& sent : ledgerless.class_sent) sent = 0;
  EXPECT_TRUE(ledgerless == n.stats());
  EXPECT_EQ(f.makespan(), n.makespan());
}

// --- write-through visibility --------------------------------------------

Task<std::int64_t> write_then_remote_read(Machine& m) {
  auto n = m.alloc<Node>(3);
  co_await wr(n, &Node::val, std::int64_t{41}, kCache0);  // write-through
  // Cached copy updated in place on a second write after a read:
  const auto v1 = co_await rd(n, &Node::val, kCache0);    // miss, caches
  co_await wr(n, &Node::val, v1 + 1, kCache0);            // updates both
  co_return co_await rd(n, &Node::val, kCache0);          // hit, current
}

TEST(RuntimeEdge, WriteThroughKeepsCachedCopyCurrent) {
  Machine m({.nprocs = 4});
  m.set_site_mechanisms(table());
  EXPECT_EQ(run_program(m, write_then_remote_read(m)), 42);
  EXPECT_EQ(m.stats().cache_misses, 1u);
  EXPECT_EQ(m.stats().cache_hits, 1u);
}

// --- deep call nesting across migrations ----------------------------------

Task<std::int64_t> bounce(Machine& m, const std::vector<GPtr<Node>>& ring,
                          std::size_t i) {
  if (i == ring.size()) co_return 0;
  // Each level migrates to a different processor, then returns through
  // the whole stub chain.
  const auto v = co_await rd(ring[i], &Node::val, kMig0);
  co_return v + co_await bounce(m, ring, i + 1);
}

Task<std::int64_t> bounce_root(Machine& m, int depth) {
  std::vector<GPtr<Node>> ring;
  for (int i = 0; i < depth; ++i) {
    auto n = m.alloc<Node>(static_cast<ProcId>(i % m.nprocs()));
    co_await wr(n, &Node::val, std::int64_t{1}, kCache0);
    ring.push_back(n);
  }
  const auto before = m.cur_proc();
  const auto sum = co_await bounce(m, ring, 0);
  EXPECT_EQ(m.cur_proc(), before);  // every stub unwound home
  co_return sum;
}

TEST(RuntimeEdge, DeepMigrationChainsUnwind) {
  Machine m({.nprocs = 8});
  m.set_site_mechanisms(table());
  const int depth = 500;
  EXPECT_EQ(run_program(m, bounce_root(m, depth)), depth);
  EXPECT_GT(m.stats().return_migrations, 0u);
}

// --- futures: many outstanding, touched in reverse ------------------------

Task<std::int64_t> leafwork(GPtr<Node> n) {
  co_return co_await rd(n, &Node::val, kMig0);  // migrates
}

Task<std::int64_t> reverse_touch(Machine& m, int count) {
  std::vector<GPtr<Node>> nodes;
  for (int i = 0; i < count; ++i) {
    auto n = m.alloc<Node>(static_cast<ProcId>(i % m.nprocs()));
    co_await wr(n, &Node::val, std::int64_t{i}, kCache0);
    nodes.push_back(n);
  }
  std::vector<Future<std::int64_t>> fs;
  for (int i = 0; i < count; ++i) {
    fs.push_back(co_await futurecall(leafwork(nodes[i])));
  }
  std::int64_t acc = 0;
  for (int i = count - 1; i >= 0; --i) {
    acc += co_await touch(fs[static_cast<std::size_t>(i)]);
  }
  co_return acc;
}

TEST(RuntimeEdge, OutstandingFuturesTouchedInAnyOrder) {
  Machine m({.nprocs = 8});
  m.set_site_mechanisms(table());
  const int n = 64;
  EXPECT_EQ(run_program(m, reverse_touch(m, n)), n * (n - 1) / 2);
  EXPECT_EQ(m.cells_live(), 0u);
  EXPECT_EQ(m.stats().futurecalls,
            m.stats().futures_inlined + m.stats().futures_stolen);
}

// --- future cells: recycled at touch ----------------------------------------

Task<std::int64_t> unit(Machine& m) {
  m.work(1);
  co_return 1;
}

/// host_perf's FuturecallInline program: every body returns inline and
/// takes its continuation back off the work list.
Task<std::int64_t> future_storm(Machine& m, int n) {
  std::int64_t acc = 0;
  for (int i = 0; i < n; ++i) {
    auto f = co_await futurecall(unit(m));
    acc += co_await touch(f);
  }
  co_return acc;
}

TEST(FutureCells, InlinedFuturecallsReuseOneCell) {
  Machine m({.nprocs = 4});
  m.set_site_mechanisms(table());
  EXPECT_EQ(run_program(m, future_storm(m, 100'000)), 100'000);
  EXPECT_EQ(m.stats().futures_inlined, 100'000u);
  // Each touch frees the cell the next futurecall takes.
  EXPECT_EQ(m.cells_created(), 1u);
  EXPECT_EQ(m.cells_live(), 0u);
}

/// Runs inline under the root's futurecall. Touching `first` frees its
/// cell; the futurecall after it takes that cell, and its body migrates,
/// so this processor idles and steals.
Task<std::int64_t> middle(Future<std::int64_t> first, GPtr<Node> far,
                          std::vector<int>* order) {
  const std::int64_t v = co_await touch(first);
  auto f = co_await futurecall(leafwork(far));
  order->push_back(2);
  co_return v + co_await touch(f);
}

Task<std::int64_t> recycled_root(Machine& m, std::vector<int>* order) {
  auto far = m.alloc<Node>(1);
  co_await wr(far, &Node::val, std::int64_t{5}, kCache0);
  auto first = co_await futurecall(unit(m));
  auto mid = co_await futurecall(middle(first, far, order));
  order->push_back(1);
  co_return co_await touch(mid);
}

/// The recycled cell left processor 0's work list when first's body
/// returned inline, and rejoins it at the tail: when the processor idles
/// the list holds mid's cell (the root's continuation), then the recycled
/// cell (middle's). The steal must take the oldest, the root's; a cell
/// relinked where first's stood would resume middle's continuation first.
TEST(FutureCells, StealSkipsTheOldEntryOfARecycledCell) {
  Machine m({.nprocs = 2});
  m.set_site_mechanisms(table());
  std::vector<int> order;
  EXPECT_EQ(run_program(m, recycled_root(m, &order)), 6);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(m.stats().futures_stolen, 2u);
  EXPECT_EQ(m.cells_created(), 2u);
  EXPECT_EQ(m.cells_live(), 0u);
}

// --- nested futures: grandchildren write, grandparent reads ---------------

Task<std::int64_t> grandchild(GPtr<Node> n) {
  const auto v = co_await rd(n, &Node::val, kMig0);  // migrate + local write
  co_await wr(n, &Node::val, v * 2, kMig0);
  co_return 0;
}

Task<std::int64_t> child(GPtr<Node> a, GPtr<Node> b) {
  auto f1 = co_await futurecall(grandchild(a));
  auto f2 = co_await futurecall(grandchild(b));
  co_await touch(f1);
  co_await touch(f2);
  co_return 0;
}

Task<std::int64_t> grandparent(Machine& m) {
  auto a = m.alloc<Node>(2);
  auto b = m.alloc<Node>(3);
  co_await wr(a, &Node::val, std::int64_t{10}, kCache0);
  co_await wr(b, &Node::val, std::int64_t{20}, kCache0);
  // Prime this processor's cache with stale-to-be values.
  (void)co_await rd(a, &Node::val, kCache0);
  (void)co_await rd(b, &Node::val, kCache0);
  auto f = co_await futurecall(child(a, b));
  co_await touch(f);
  // The grandchildren's writes must be visible through our cache: the
  // written-set propagates through the nested touches (the coherence
  // hole a naive return-invalidation scheme would have).
  co_return co_await rd(a, &Node::val, kCache0) +
      co_await rd(b, &Node::val, kCache0);
}

class GrandchildVisibility
    : public ::testing::TestWithParam<Coherence> {};

TEST_P(GrandchildVisibility, WritesReachTheGrandparent) {
  Machine m({.nprocs = 6, .scheme = GetParam()});
  m.set_site_mechanisms(table());
  EXPECT_EQ(run_program(m, grandparent(m)), 60);
}

INSTANTIATE_TEST_SUITE_P(Schemes, GrandchildVisibility,
                         ::testing::Values(Coherence::kLocalKnowledge,
                                           Coherence::kEagerGlobal,
                                           Coherence::kBilateral));

// --- allocator exhaustion is a clean failure, not corruption --------------

TEST(RuntimeEdge, HeapSectionsAreBounded) {
  DistHeap h(1);
  // Fill most of the 64 MB section; the final over-size request dies via
  // OLDEN_REQUIRE (checked with EXPECT_DEATH to keep the harness alive).
  (void)h.allocate(0, kMaxLocalBytes - 4096, 8);
  EXPECT_DEATH((void)h.allocate(0, 8192, 8), "exhausted");
}

// --- machine accounting -----------------------------------------------------

Task<int> noop_root(Machine& m) {
  m.work(1);
  co_return 0;
}

TEST(RuntimeEdge, EmptyProgramTerminates) {
  Machine m({.nprocs = 32});
  m.set_site_mechanisms({});
  EXPECT_EQ(run_program(m, noop_root(m)), 0);
  EXPECT_EQ(m.makespan(), 1u);
  EXPECT_TRUE(m.root_done());
}

TEST(RuntimeEdge, ClocksAreMonotoneAcrossConfigs) {
  for (ProcId p : {1u, 3u, 32u}) {
    Machine m({.nprocs = p});
    m.set_site_mechanisms(table());
    run_program(m, reverse_touch(m, 32));
    Cycles max_clock = 0;
    for (ProcId q = 0; q < p; ++q) {
      max_clock = std::max(max_clock, m.proc_clock(q));
    }
    EXPECT_EQ(max_clock, m.makespan());
    EXPECT_GT(m.makespan(), 0u);
  }
}

}  // namespace
}  // namespace olden
