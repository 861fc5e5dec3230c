// End-to-end smoke tests of the runtime core: allocation, local and remote
// access under both mechanisms, migration with return stubs, futures with
// lazy task creation, and basic determinism.
#include <gtest/gtest.h>

#include "olden/olden.hpp"

namespace olden {
namespace {

struct Node {
  std::int64_t val;
  GPtr<Node> next;
};

enum Site : SiteId { kSiteVal, kSiteNext, kNumSites };

std::vector<Mechanism> all_cache() {
  return {Mechanism::kCache, Mechanism::kCache};
}
std::vector<Mechanism> all_migrate() {
  return {Mechanism::kMigrate, Mechanism::kMigrate};
}

/// Builds an N-element list with values 1..n, element i on proc
/// owner(i); returns the head.
Task<GPtr<Node>> build_list(Machine& m, int n,
                            std::function<ProcId(int)> owner) {
  GPtr<Node> head;
  GPtr<Node> tail;
  for (int i = 0; i < n; ++i) {
    auto node = m.alloc<Node>(owner(i));
    co_await wr(node, &Node::val, std::int64_t{i + 1}, kSiteVal);
    co_await wr(node, &Node::next, GPtr<Node>{}, kSiteNext);
    if (!head) {
      head = node;
    } else {
      co_await wr(tail, &Node::next, node, kSiteNext);
    }
    tail = node;
  }
  co_return head;
}

Task<std::int64_t> sum_list(Machine& m, GPtr<Node> l) {
  std::int64_t acc = 0;
  while (l) {
    acc += co_await rd(l, &Node::val, kSiteVal);
    l = co_await rd(l, &Node::next, kSiteNext);
    m.work(4);
  }
  co_return acc;
}

Task<std::int64_t> list_root(Machine& m, int n,
                             std::function<ProcId(int)> owner) {
  GPtr<Node> head = co_await build_list(m, n, owner);
  co_return co_await sum_list(m, head);
}

TEST(RuntimeSmoke, SingleProcLocalList) {
  Machine m({.nprocs = 1});
  m.set_site_mechanisms(all_cache());
  auto r = run_program(m, list_root(m, 100, [](int) { return ProcId{0}; }));
  EXPECT_EQ(r, 100 * 101 / 2);
  EXPECT_EQ(m.stats().migrations, 0u);
  EXPECT_EQ(m.stats().cache_misses, 0u);
  EXPECT_GT(m.makespan(), 0u);
}

TEST(RuntimeSmoke, CachedCyclicList) {
  Machine m({.nprocs = 4});
  m.set_site_mechanisms(all_cache());
  auto r = run_program(m, list_root(m, 100, [](int i) {
                         return static_cast<ProcId>(i % 4);
                       }));
  EXPECT_EQ(r, 100 * 101 / 2);
  EXPECT_EQ(m.stats().migrations, 0u);
  EXPECT_GT(m.stats().cache_misses, 0u);
  EXPECT_GT(m.stats().cacheable_reads_remote, 0u);
}

TEST(RuntimeSmoke, MigratedBlockedList) {
  Machine m({.nprocs = 4});
  m.set_site_mechanisms(all_migrate());
  auto r = run_program(m, list_root(m, 100, [](int i) {
                         return static_cast<ProcId>(i / 25);
                       }));
  EXPECT_EQ(r, 100 * 101 / 2);
  // Build phase writes remotely (one migration per element placement off
  // the current processor); the traversal adds only P-1 = 3 forward moves.
  EXPECT_GT(m.stats().migrations, 0u);
  EXPECT_EQ(m.stats().cache_misses, 0u);
}

// --- migration + return stub -------------------------------------------

// A dedicated migrate site for the helper's read, so the test can pin the
// setup writes to caching (which do not move the thread) and the kernel
// read to migration (which does).
enum StubSite : SiteId { kStubCacheVal = 0, kStubMigrateVal = 1 };

Task<std::int64_t> read_remote_then_return(Machine& m, GPtr<Node> far) {
  // This dereference migrates us to far's processor...
  std::int64_t v = co_await rd(far, &Node::val, kStubMigrateVal);
  m.work(10);
  co_return v;  // ...and the return stub must bring control back.
}

Task<std::int64_t> stub_root(Machine& m) {
  auto far = m.alloc<Node>(3);
  // Cache site: write-through, the root thread stays on processor 0.
  co_await wr(far, &Node::val, std::int64_t{77}, kStubCacheVal);
  const auto before = m.cur_proc();
  std::int64_t v = co_await read_remote_then_return(m, far);
  // After the call returns we are back on the caller's processor.
  EXPECT_EQ(m.cur_proc(), before);
  co_return v;
}

TEST(RuntimeSmoke, ReturnStubRestoresProcessor) {
  Machine m({.nprocs = 4});
  m.set_site_mechanisms({Mechanism::kCache, Mechanism::kMigrate});
  auto r = run_program(m, stub_root(m));
  EXPECT_EQ(r, 77);
  EXPECT_EQ(m.stats().migrations, 1u);
  EXPECT_EQ(m.stats().return_migrations, 1u);
}

// --- futures -------------------------------------------------------------

Task<std::int64_t> local_work(Machine& m, std::int64_t x) {
  m.work(50);
  co_return x * 2;
}

Task<std::int64_t> inline_future_root(Machine& m) {
  auto f = co_await futurecall(local_work(m, 21));
  std::int64_t v = co_await touch(f);
  co_return v;
}

TEST(RuntimeSmoke, FutureWithoutMigrationCreatesNoThread) {
  Machine m({.nprocs = 4});
  m.set_site_mechanisms(all_cache());
  auto r = run_program(m, inline_future_root(m));
  EXPECT_EQ(r, 42);
  EXPECT_EQ(m.stats().futurecalls, 1u);
  EXPECT_EQ(m.stats().futures_inlined, 1u);
  EXPECT_EQ(m.stats().futures_stolen, 0u);
  EXPECT_EQ(m.threads_created(), 1u);  // just the root
  EXPECT_EQ(m.cells_live(), 0u);
}

Task<std::int64_t> remote_work(Machine& m, GPtr<Node> far) {
  std::int64_t v = co_await rd(far, &Node::val, kStubMigrateVal);  // migrates
  m.work(500);
  co_return v;
}

Task<std::int64_t> stolen_future_root(Machine& m) {
  auto far = m.alloc<Node>(2);
  co_await wr(far, &Node::val, std::int64_t{5}, kStubCacheVal);
  auto f = co_await futurecall(remote_work(m, far));
  m.work(100);  // runs in parallel with the body, on proc 0
  std::int64_t v = co_await touch(f);
  co_return v;
}

TEST(RuntimeSmoke, FutureStealingAfterMigration) {
  Machine m({.nprocs = 4});
  m.set_site_mechanisms({Mechanism::kCache, Mechanism::kMigrate});
  auto r = run_program(m, stolen_future_root(m));
  EXPECT_EQ(r, 5);
  EXPECT_EQ(m.stats().futurecalls, 1u);
  EXPECT_EQ(m.stats().futures_stolen, 1u);
  EXPECT_EQ(m.cells_live(), 0u);
}

// Recursive parallel sum over a tree distributed across processors: the
// canonical Olden pattern (TreeAdd in miniature).
struct TNode {
  std::int64_t val;
  GPtr<TNode> left, right;
};
enum TSite : SiteId { kTVal, kTLeft, kTRight };

Task<GPtr<TNode>> build_tree(Machine& m, int depth, int cut, ProcId proc) {
  if (depth == 0) co_return GPtr<TNode>{};
  auto n = m.alloc<TNode>(proc);
  co_await wr(n, &TNode::val, std::int64_t{1}, kTVal);
  // Below the cut depth children stay with the parent; above it they are
  // scattered round-robin.
  const ProcId lp =
      cut > 0 ? static_cast<ProcId>((proc * 2 + 1) % m.nprocs()) : proc;
  const ProcId rp =
      cut > 0 ? static_cast<ProcId>((proc * 2 + 2) % m.nprocs()) : proc;
  auto l = co_await build_tree(m, depth - 1, cut - 1, lp);
  auto r = co_await build_tree(m, depth - 1, cut - 1, rp);
  co_await wr(n, &TNode::left, l, kTLeft);
  co_await wr(n, &TNode::right, r, kTRight);
  co_return n;
}

Task<std::int64_t> tree_sum(Machine& m, GPtr<TNode> t) {
  if (!t) co_return 0;
  auto l = co_await rd(t, &TNode::left, kTLeft);
  auto r = co_await rd(t, &TNode::right, kTRight);
  auto fl = co_await futurecall(tree_sum(m, l));
  std::int64_t rs = co_await tree_sum(m, r);
  std::int64_t ls = co_await touch(fl);
  m.work(6);
  co_return ls + rs + co_await rd(t, &TNode::val, kTVal);
}

Task<std::int64_t> tree_root(Machine& m, int depth) {
  auto t = co_await build_tree(m, depth, 3, 0);
  co_return co_await tree_sum(m, t);
}

class TreeSumAllSchemes
    : public ::testing::TestWithParam<std::tuple<Coherence, ProcId>> {};

TEST_P(TreeSumAllSchemes, CorrectUnderEverySchemeAndSize) {
  const auto [scheme, nprocs] = GetParam();
  Machine m({.nprocs = nprocs, .scheme = scheme});
  m.set_site_mechanisms(
      {Mechanism::kMigrate, Mechanism::kMigrate, Mechanism::kMigrate});
  auto r = run_program(m, tree_root(m, 10));
  EXPECT_EQ(r, (1 << 10) - 1);
  EXPECT_EQ(m.cells_live(), 0u);
}

// TreeAdd's size (256K nodes) and processor count: a touch frees its cell
// for the next futurecall, so the machine makes about as many cells as
// futures are ever outstanding at once, not one per work-list entry still
// queued (32,774 here).
TEST(RuntimeSmoke, TreeSumRecyclesFutureCells) {
  Machine m({.nprocs = 8});
  m.set_site_mechanisms(
      {Mechanism::kMigrate, Mechanism::kMigrate, Mechanism::kMigrate});
  EXPECT_EQ(run_program(m, tree_root(m, 18)), (1 << 18) - 1);
  EXPECT_LT(m.cells_created(), 100u);
  EXPECT_EQ(m.cells_live(), 0u);
}

// worklist_depth samples the continuations a steal could still take, each
// of them a live cell's, so no sample exceeds the cells the machine made.
// The work-list deque itself also holds taken entries that lazy pruning
// has not reached: thousands of them on this tree.
TEST(RuntimeSmoke, WorklistDepthCountsStealableEntries) {
  trace::Observer obs;
  obs.begin_run("tree_sum");
  Machine m({.nprocs = 8, .observer = &obs});
  m.set_site_mechanisms(
      {Mechanism::kMigrate, Mechanism::kMigrate, Mechanism::kMigrate});
  EXPECT_EQ(run_program(m, tree_root(m, 18)), (1 << 18) - 1);
  ASSERT_EQ(obs.runs().size(), 1u);
  const auto& depth = obs.runs()[0].hists[static_cast<std::size_t>(
      trace::Hist::kWorklistDepth)];
  EXPECT_GE(depth.min(), 1u);  // the entry just pushed
  EXPECT_LE(depth.max(), m.cells_created());
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, TreeSumAllSchemes,
    ::testing::Combine(::testing::Values(Coherence::kLocalKnowledge,
                                         Coherence::kEagerGlobal,
                                         Coherence::kBilateral),
                       ::testing::Values(ProcId{1}, ProcId{2}, ProcId{4},
                                         ProcId{8}, ProcId{16}, ProcId{32})));

TEST(RuntimeSmoke, ParallelTreeBeatsSerialAtScale) {
  auto run_at = [](ProcId n) {
    Machine m({.nprocs = n});
    m.set_site_mechanisms(
        {Mechanism::kMigrate, Mechanism::kMigrate, Mechanism::kMigrate});
    auto r = run_program(m, tree_root(m, 14));
    EXPECT_EQ(r, (1 << 14) - 1);
    return m.makespan();
  };
  const Cycles t1 = run_at(1);
  const Cycles t8 = run_at(8);
  EXPECT_LT(t8, t1);  // real parallelism, not just bookkeeping
}

TEST(RuntimeSmoke, Deterministic) {
  auto run_once = [] {
    Machine m({.nprocs = 8});
    m.set_site_mechanisms(
        {Mechanism::kMigrate, Mechanism::kMigrate, Mechanism::kMigrate});
    auto r = run_program(m, tree_root(m, 10));
    return std::pair{r, m.makespan()};
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace olden
