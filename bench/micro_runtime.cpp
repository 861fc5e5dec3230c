// Host-side micro-benchmarks of the runtime primitives (google-benchmark):
// what one simulated heap access, migration, futurecall, or heuristic
// analysis costs the *simulator*. These bound how large a machine/problem
// the tables can sweep.
#include <benchmark/benchmark.h>

#include "olden/compiler/analysis.hpp"
#include "olden/olden.hpp"

namespace {

using namespace olden;

struct Node {
  std::int64_t val;
  GPtr<Node> next;
};
enum Site : SiteId { kVal, kNext, kNumSites };

/// Drive one walk over a pre-built ring; `iters` accesses per program run.
Task<std::int64_t> ring_walk(Machine& m, GPtr<Node> head, std::int64_t iters) {
  std::int64_t acc = 0;
  GPtr<Node> p = head;
  for (std::int64_t i = 0; i < iters; ++i) {
    acc += co_await rd(p, &Node::val, kVal);
    p = co_await rd(p, &Node::next, kNext);
  }
  co_return acc;
}

Task<GPtr<Node>> build_ring(Machine& m, int n, bool spread) {
  GPtr<Node> head, tail;
  for (int i = 0; i < n; ++i) {
    const ProcId owner =
        spread ? static_cast<ProcId>(i % m.nprocs()) : ProcId{0};
    auto node = m.alloc<Node>(owner);
    co_await wr(node, &Node::val, std::int64_t{1}, kVal);
    if (tail) {
      co_await wr(tail, &Node::next, node, kNext);
    } else {
      head = node;
    }
    tail = node;
  }
  co_await wr(tail, &Node::next, head, kNext);
  co_return head;
}

Task<std::int64_t> walk_root(Machine& m, int n, bool spread,
                             std::int64_t iters) {
  auto head = co_await build_ring(m, n, spread);
  co_return co_await ring_walk(m, head, iters);
}

void BM_LocalAccess(benchmark::State& state) {
  for (auto _ : state) {
    Machine m({.nprocs = 1});
    m.set_site_mechanisms({Mechanism::kCache, Mechanism::kCache});
    benchmark::DoNotOptimize(run_program(m, walk_root(m, 64, false, 100000)));
  }
  state.SetItemsProcessed(state.iterations() * 200000);
}
BENCHMARK(BM_LocalAccess);

void BM_CachedRemoteAccess(benchmark::State& state) {
  for (auto _ : state) {
    Machine m({.nprocs = 8});
    m.set_site_mechanisms({Mechanism::kCache, Mechanism::kCache});
    benchmark::DoNotOptimize(run_program(m, walk_root(m, 64, true, 100000)));
  }
  state.SetItemsProcessed(state.iterations() * 200000);
}
BENCHMARK(BM_CachedRemoteAccess);

void BM_Migration(benchmark::State& state) {
  for (auto _ : state) {
    Machine m({.nprocs = 8});
    m.set_site_mechanisms({Mechanism::kMigrate, Mechanism::kMigrate});
    benchmark::DoNotOptimize(run_program(m, walk_root(m, 8, true, 20000)));
  }
  // Every hop in an 8-ring over 8 procs migrates: ~2 accesses, 1 migration.
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_Migration);

Task<std::int64_t> leaf(Machine& m) {
  m.work(1);
  co_return 1;
}

Task<std::int64_t> future_storm(Machine& m, int n) {
  std::int64_t acc = 0;
  for (int i = 0; i < n; ++i) {
    auto f = co_await futurecall(leaf(m));
    acc += co_await touch(f);
  }
  co_return acc;
}

void BM_FuturecallInline(benchmark::State& state) {
  for (auto _ : state) {
    Machine m({.nprocs = 4});
    m.set_site_mechanisms({});
    benchmark::DoNotOptimize(run_program(m, future_storm(m, 50000)));
  }
  state.SetItemsProcessed(state.iterations() * 50000);
}
BENCHMARK(BM_FuturecallInline);

void BM_HeuristicAnalysis(benchmark::State& state) {
  using namespace olden::ir;
  Program p;
  p.structs = {{"tree", {{"left", 0.9}, {"right", 0.7}}}};
  Procedure ta;
  ta.name = "TreeAdd";
  ta.params = {"t"};
  ta.rec_loop_id = 0;
  If br;
  Call cl;
  cl.callee = "TreeAdd";
  cl.args = {{"t", {{"tree", "left"}}}};
  cl.future = true;
  Call cr;
  cr.callee = "TreeAdd";
  cr.args = {{"t", {{"tree", "right"}}}};
  br.else_branch.push_back(cl);
  br.else_branch.push_back(cr);
  br.else_branch.push_back(deref("t", SiteId{0}));
  ta.body.push_back(std::move(br));
  p.procs.push_back(std::move(ta));
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyze(p, 1));
  }
}
BENCHMARK(BM_HeuristicAnalysis);

}  // namespace

int main(int argc, char** argv) {
  // Host-time microbenchmarks create thousands of short-lived Machines;
  // observing them would distort what is being measured, so no
  // observability flag is taken.
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
