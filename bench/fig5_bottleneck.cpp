// Regenerates Figure 5: the bottleneck analysis on the paper's two code
// sketches, then *measures* the bottleneck on the simulated machine.
//
// WalkAndTraverse: every iteration of a parallel list loop traverses the
// same tree. Migration for the traversal serializes all threads on the
// tree root's owner; the heuristic's pass 2 detects that the traversal's
// induction variable is not updated in the parent loop and forces caching.
// TraverseAndWalk walks a different list per tree node: no bottleneck.
//
// The measurement runs WalkAndTraverse both ways and reports makespans:
// the forced-migration version collapses to near-serial.
#include <cstdio>
#include <vector>

#include "olden/bench/obs_cli.hpp"
#include "olden/compiler/analysis.hpp"
#include "olden/fault/fault_plane.hpp"
#include "olden/olden.hpp"

namespace {

using namespace olden;

struct LNode {
  std::int64_t val;
  GPtr<LNode> next;
};
struct TNode {
  std::int64_t val;
  GPtr<TNode> left, right;
};

enum Site : SiteId { kLVal, kLNext, kTLeft, kTRight, kTVal, kInit, kNumSites };

Task<GPtr<TNode>> build_tree(Machine& m, int depth, ProcId lo, ProcId hi) {
  if (depth == 0) co_return GPtr<TNode>{};
  auto n = m.alloc<TNode>(lo);
  co_await wr(n, &TNode::val, std::int64_t{1}, kInit);
  const auto lr = hi - lo > 1 ? ProcId(lo + (hi - lo) / 2) : lo;
  auto l = co_await build_tree(m, depth - 1, lr, hi > lr ? hi : lr + 1);
  auto r = co_await build_tree(m, depth - 1, lo, lr > lo ? lr : hi);
  co_await wr(n, &TNode::left, l, kInit);
  co_await wr(n, &TNode::right, r, kInit);
  co_return n;
}

/// One parallel iteration: visit the list item (migrating to its owner —
/// this is where the parallelism comes from; caching alone cannot create
/// threads), then traverse the shared tree with the mechanism under test.
Task<std::int64_t> visit_and_traverse(Machine& m, GPtr<LNode> l,
                                      GPtr<TNode> t);

Task<std::int64_t> traverse(Machine& m, GPtr<TNode> t) {
  if (!t) co_return 0;
  const auto l = co_await rd(t, &TNode::left, kTLeft);
  const auto r = co_await rd(t, &TNode::right, kTRight);
  const std::int64_t a = co_await traverse(m, l);
  const std::int64_t b = co_await traverse(m, r);
  m.work(25);
  co_return a + b + co_await rd(t, &TNode::val, kTVal);
}

struct Out {
  std::int64_t sum = 0;
  Cycles build_end = 0;
};

Task<Out> walk_and_traverse(Machine& m, int list_len, int depth) {
  Out out;
  // A list item per processor block.
  GPtr<LNode> head, tail;
  for (int i = 0; i < list_len; ++i) {
    auto n = m.alloc<LNode>(static_cast<ProcId>(
        static_cast<std::uint64_t>(i) * m.nprocs() / list_len));
    co_await wr(n, &LNode::val, std::int64_t{i}, kInit);
    if (tail) {
      co_await wr(tail, &LNode::next, n, kInit);
    } else {
      head = n;
    }
    tail = n;
  }
  // The shared tree lives on one processor — the hot-root situation the
  // bottleneck rule exists for (cf. Barnes-Hut's top cells).
  auto tree = co_await build_tree(m, depth, 0, 1);
  out.build_end = m.now_max();

  std::vector<Future<std::int64_t>> fs;
  GPtr<LNode> l = head;
  while (l) {
    fs.push_back(co_await futurecall(visit_and_traverse(m, l, tree)));
    l = co_await rd(l, &LNode::next, kLNext);
  }
  for (auto& f : fs) out.sum += co_await touch(f);
  co_return out;
}

Task<std::int64_t> visit_and_traverse(Machine& m, GPtr<LNode> l,
                                      GPtr<TNode> t) {
  const auto v = co_await rd(l, &LNode::val, kLVal);  // migrate to the item
  (void)v;
  m.work(50);
  co_return co_await traverse(m, t);
}

double run_wat(ProcId procs, Mechanism tree_mech, std::uint64_t* migrations,
               olden::bench::ObsCli& cli) {
  Machine m({.nprocs = procs,
             .observer = cli.observer(),
             .faults = cli.faults(),
             .fault_seed = cli.fault_seed()});
  std::vector<Mechanism> table(kNumSites, Mechanism::kCache);
  table[kTLeft] = tree_mech;
  table[kTRight] = tree_mech;
  table[kTVal] = tree_mech;
  table[kLVal] = Mechanism::kMigrate;  // bodies migrate to their items
  table[kLNext] = Mechanism::kCache;   // the dispatcher stays put
  table[kInit] = Mechanism::kMigrate;
  m.set_site_mechanisms(table);
  const Out out = run_program(m, walk_and_traverse(m, 64, 10));
  OLDEN_REQUIRE(out.sum == 64 * ((1 << 10) - 1), "bad traversal sum");
  *migrations = m.stats().migrations;
  return cycles_to_seconds(m.makespan() - out.build_end) * 1e3;
}

}  // namespace

int main(int argc, char** argv) try {
  olden::bench::ObsCli obs;
  obs.parse(&argc, argv);
  if (argc > 1) {
    std::fprintf(stderr, "usage: fig5_bottleneck\n%s",
                 olden::bench::ObsCli::usage());
    return 2;
  }
  using namespace olden::ir;
  // --- the heuristic's verdicts (Figure 5) -------------------------------
  {
    Program p;
    p.structs = {{"list", {{"next", std::nullopt}}},
                 {"tree", {{"left", std::nullopt}, {"right", std::nullopt}}}};
    Procedure trav;
    trav.name = "Traverse";
    trav.params = {"t"};
    trav.rec_loop_id = 1;
    If br;
    Call cl;
    cl.callee = "Traverse";
    cl.args = {{"t", {{"tree", "left"}}}};
    Call cr;
    cr.callee = "Traverse";
    cr.args = {{"t", {{"tree", "right"}}}};
    br.else_branch.push_back(cl);
    br.else_branch.push_back(cr);
    br.else_branch.push_back(deref("t", SiteId{0}));
    trav.body.push_back(std::move(br));
    p.procs.push_back(std::move(trav));

    Procedure wat;
    wat.name = "WalkAndTraverse";
    wat.params = {"l", "t"};
    While loop;
    loop.loop_id = 0;
    Call visit;
    visit.callee = "Traverse";
    visit.args = {{"t", {}}};
    visit.future = true;
    loop.body.push_back(visit);
    loop.body.push_back(assign("l", "l", {{"list", "next"}}, SiteId{1}));
    wat.body.push_back(std::move(loop));
    p.procs.push_back(std::move(wat));

    const Selection sel = analyze(p, 2);
    std::printf("=== Figure 5a: WalkAndTraverse ===\n%s\n",
                sel.report().c_str());
  }
  {
    Program p;
    p.structs = {
        {"tree",
         {{"left", std::nullopt}, {"right", std::nullopt}, {"list", 0.95}}},
        {"list", {{"next", 0.95}}}};
    Procedure walk;
    walk.name = "Walk";
    walk.params = {"l"};
    While loop;
    loop.loop_id = 2;
    loop.body.push_back(deref("l", SiteId{0}));
    loop.body.push_back(assign("l", "l", {{"list", "next"}}, SiteId{1}));
    walk.body.push_back(std::move(loop));
    p.procs.push_back(std::move(walk));

    Procedure taw;
    taw.name = "TraverseAndWalk";
    taw.params = {"t"};
    taw.rec_loop_id = 3;
    If br;
    Call cl;
    cl.callee = "TraverseAndWalk";
    cl.args = {{"t", {{"tree", "left"}}}};
    cl.future = true;
    Call cr;
    cr.callee = "TraverseAndWalk";
    cr.args = {{"t", {{"tree", "right"}}}};
    cr.future = true;
    Call w;
    w.callee = "Walk";
    w.args = {{"t", {{"tree", "list"}}}};
    br.else_branch.push_back(cl);
    br.else_branch.push_back(cr);
    br.else_branch.push_back(w);
    taw.body.push_back(std::move(br));
    p.procs.push_back(std::move(taw));

    const Selection sel = analyze(p, 2);
    std::printf("=== Figure 5b: TraverseAndWalk ===\n%s\n",
                sel.report().c_str());
  }

  // --- measuring the bottleneck -----------------------------------------
  std::printf(
      "=== WalkAndTraverse measured (64 parallel traversals of one tree, "
      "32 procs) ===\n");
  std::uint64_t mig_m = 0, mig_c = 0;
  obs.begin_run("WalkAndTraverse/tree=migrate");
  const double t_mig =
      run_wat(32, olden::Mechanism::kMigrate, &mig_m, obs);
  obs.begin_run("WalkAndTraverse/tree=cache");
  const double t_cache =
      run_wat(32, olden::Mechanism::kCache, &mig_c, obs);
  std::printf("tree via migration: %8.2f ms  (%llu migrations — serialized "
              "on the root's owner)\n",
              t_mig, static_cast<unsigned long long>(mig_m));
  std::printf("tree via caching:   %8.2f ms  (%llu migrations)\n", t_cache,
              static_cast<unsigned long long>(mig_c));
  std::printf("caching wins by %.1fx, as pass 2 predicts.\n", t_mig / t_cache);
  return obs.finish() ? 0 : 1;
} catch (const olden::fault::WatchdogError& e) {
  // A fault plane that ran out of retransmissions: an error, not a
  // crash (docs/ROBUSTNESS.md).
  std::fprintf(stderr, "fig5_bottleneck: %s\n", e.what());
  return 1;
}
