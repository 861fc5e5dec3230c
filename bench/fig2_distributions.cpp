// Regenerates the Figure 2 / §4 analysis: traversing an N-element list
// distributed blocked vs. cyclic, under each mechanism.
//
// The paper's counts: with P processors,
//   blocked + migration : P-1 migrations          <- winner
//   blocked + caching   : N(P-1)/P remote fetches
//   cyclic  + migration : N-1 migrations
//   cyclic  + caching   : N(P-1)/P remote fetches <- winner
//
// The second section sweeps the path-affinity of the next field and
// reports which mechanism is faster, locating the break-even point the
// paper puts near 86% for a 7x migration/miss cost ratio (§4.3 footnote).
#include <cstdio>
#include <functional>
#include <vector>

#include "olden/bench/obs_cli.hpp"
#include "olden/fault/fault_plane.hpp"
#include "olden/olden.hpp"
#include "olden/support/rng.hpp"

namespace {

using namespace olden;

struct Node {
  std::int64_t val;
  GPtr<Node> next;
};

enum Site : SiteId { kVal, kNext, kInit, kNumSites };

Task<GPtr<Node>> build_list(Machine& m, int n,
                            const std::function<ProcId(int)>& owner) {
  GPtr<Node> head, tail;
  for (int i = 0; i < n; ++i) {
    auto node = m.alloc<Node>(owner(i));
    co_await wr(node, &Node::val, std::int64_t{i}, kInit);
    if (tail) {
      co_await wr(tail, &Node::next, node, kInit);
    } else {
      head = node;
    }
    tail = node;
  }
  co_return head;
}

struct WalkOut {
  std::int64_t sum = 0;
  Cycles build_end = 0;
};

Task<WalkOut> walk_root(Machine& m, int n,
                        const std::function<ProcId(int)>& owner) {
  WalkOut out;
  auto head = co_await build_list(m, n, owner);
  out.build_end = m.now_max();
  GPtr<Node> l = head;
  while (l) {
    out.sum += co_await rd(l, &Node::val, kVal);
    l = co_await rd(l, &Node::next, kNext);
    m.work(20);
  }
  co_return out;
}

struct Run {
  std::uint64_t migrations;
  std::uint64_t remote_fetch;  // misses + remote write-throughs
  double kernel_ms;            // simulated milliseconds
};

Run run_walk(int n, ProcId procs, bool cyclic, Mechanism mech,
             olden::bench::ObsCli& cli) {
  Machine m({.nprocs = procs,
             .observer = cli.observer(),
             .faults = cli.faults(),
             .fault_seed = cli.fault_seed()});
  // Builder writes go through the cache (write-through, no thread motion)
  // so the reported migration counts are the walk's alone.
  m.set_site_mechanisms({mech, mech, Mechanism::kCache});
  auto owner = [=](int i) {
    return cyclic ? static_cast<ProcId>(i % procs)
                  : static_cast<ProcId>(
                        static_cast<std::uint64_t>(i) * procs / n);
  };
  WalkOut out = run_program(m, walk_root(m, n, owner));
  OLDEN_REQUIRE(out.sum == static_cast<std::int64_t>(n) * (n - 1) / 2,
                "list traversal checksum");
  Run r{};
  r.migrations = m.stats().migrations;
  r.remote_fetch = m.stats().cache_misses;
  r.kernel_ms =
      cycles_to_seconds(m.makespan() - out.build_end) * 1e3;
  return r;
}

}  // namespace

int main(int argc, char** argv) try {
  olden::bench::ObsCli obs;
  obs.parse(&argc, argv);
  if (argc > 1) {
    std::fprintf(stderr, "usage: fig2_distributions\n%s",
                 olden::bench::ObsCli::usage());
    return 2;
  }
  constexpr int kN = 4096;
  constexpr ProcId kP = 32;

  std::printf("Figure 2: %d-element list over %u processors\n", kN, kP);
  std::printf("%-22s %11s %14s %10s\n", "layout + mechanism", "migrations",
              "remote fetches", "kernel ms");
  struct Case {
    const char* name;
    bool cyclic;
    Mechanism mech;
  };
  const Case cases[] = {
      {"blocked + migration", false, Mechanism::kMigrate},
      {"blocked + caching", false, Mechanism::kCache},
      {"cyclic  + migration", true, Mechanism::kMigrate},
      {"cyclic  + caching", true, Mechanism::kCache},
  };
  double t_blocked_mig = 0, t_blocked_cache = 0, t_cyclic_mig = 0,
         t_cyclic_cache = 0;
  for (const Case& c : cases) {
    obs.begin_run(c.name);
    const Run r = run_walk(kN, kP, c.cyclic, c.mech, obs);
    std::printf("%-22s %11llu %14llu %10.3f\n", c.name,
                static_cast<unsigned long long>(r.migrations),
                static_cast<unsigned long long>(r.remote_fetch), r.kernel_ms);
    if (!c.cyclic && c.mech == Mechanism::kMigrate) t_blocked_mig = r.kernel_ms;
    if (!c.cyclic && c.mech == Mechanism::kCache) t_blocked_cache = r.kernel_ms;
    if (c.cyclic && c.mech == Mechanism::kMigrate) t_cyclic_mig = r.kernel_ms;
    if (c.cyclic && c.mech == Mechanism::kCache) t_cyclic_cache = r.kernel_ms;
  }
  std::printf(
      "paper expectations: blocked migration ~ P-1 = %u migrations; cyclic "
      "migration ~ N-1 = %d; caching ~ N(P-1)/P = %d remote accesses "
      "(line-grain fetching batches %d-byte nodes per 64-byte line).\n",
      kP - 1, kN - 1, kN * (kP - 1) / kP, (int)sizeof(Node));
  std::printf("winners: blocked -> %s, cyclic -> %s (paper: migration, caching)\n\n",
              t_blocked_mig < t_blocked_cache ? "migration" : "caching",
              t_cyclic_mig < t_cyclic_cache ? "migration" : "caching");

  // --- break-even sweep ----------------------------------------------------
  std::printf(
      "Break-even sweep: lists whose layout yields a given next-affinity;\n"
      "the mechanism flips where the curves cross (paper: ~86%% for a 7x\n"
      "migration/fetch cost ratio).\n");
  std::printf("%-9s %12s %12s %8s\n", "affinity", "migrate ms", "cache ms",
              "faster");
  Rng rng(7);
  for (double aff = 0.70; aff <= 0.985; aff += 0.02) {
    // Layout with the requested boundary-crossing probability.
    std::vector<ProcId> owners(kN);
    ProcId cur = 0;
    for (int i = 0; i < kN; ++i) {
      owners[static_cast<std::size_t>(i)] = cur;
      if (rng.next_double() > aff) cur = static_cast<ProcId>((cur + 1) % kP);
    }
    double t[2];
    for (int mi = 0; mi < 2; ++mi) {
      const Mechanism mech = mi == 0 ? Mechanism::kMigrate : Mechanism::kCache;
      Machine m({.nprocs = kP});
      m.set_site_mechanisms({mech, mech, Mechanism::kCache});
      WalkOut out = run_program(
          m, walk_root(m, kN, [&](int i) {
            return owners[static_cast<std::size_t>(i)];
          }));
      t[mi] = cycles_to_seconds(m.makespan() - out.build_end) * 1e3;
    }
    std::printf("%8.2f%% %12.3f %12.3f %8s\n", aff * 100, t[0], t[1],
                t[0] < t[1] ? "migrate" : "cache");
  }
  return obs.finish() ? 0 : 1;
} catch (const olden::fault::WatchdogError& e) {
  // A fault plane that ran out of retransmissions: an error, not a
  // crash (docs/ROBUSTNESS.md).
  std::fprintf(stderr, "fig2_distributions: %s\n", e.what());
  return 1;
}
