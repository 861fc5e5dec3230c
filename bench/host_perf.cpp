// host_perf: wall-clock (host-time) benchmark of the simulator itself.
//
// Every other binary in bench/ reports *virtual* cycles — the machine being
// simulated. This one times the machine doing the simulating: it runs the
// 30 --tiny cells (ten benchmarks x three coherence schemes, the cells the
// equivalence tests pin) with no observer attached and reports host
// milliseconds per cell, best-of-N. The paper's makespans are
// untouched by any host-side optimization, so this is the number that
// measures "runs as fast as the hardware allows" for the simulator's own
// hot paths: cache translation, the coherence directory, write logs and the
// event wheel.
//
//   host_perf [--repeat=N] [--nprocs=N] [--benchmarks=A,B,...]
//             [--schemes=A,B] [--jobs=N] [--json=FILE]
//
// A cell's repetitions run back to back through the cell runner
// (src/olden/bench/runner.hpp), on --jobs=N host threads. Per-cell times
// under a loaded pool are noisier than serial ones — use --jobs for
// throughput (total suite wall-clock), --jobs=1 for per-cell numbers.
//
// After the TOTAL line come twelve rows that no flag but --repeat changes:
// five programs that each exercise one runtime primitive (items per
// second) and seven loops over Figure 1's software cache (ns per call).
//
// The JSON document is schema-versioned (host_bench_schema_version), holds
// the cells only, and is what tools/host_bench.py diffs against
// bench/baselines/HOST_seed.json. Checksums are validated against the
// sequential reference on every run, and every row checks what it
// computed, so a fast-but-wrong simulator fails here too (exit 1); bad
// flags exit 2.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "olden/bench/benchmark.hpp"
#include "olden/bench/runner.hpp"
#include "olden/compiler/analysis.hpp"
#include "olden/olden.hpp"
#include "olden/support/io.hpp"
#include "page_population.hpp"

namespace {

using namespace olden;
using namespace olden::bench;

constexpr int kHostBenchSchemaVersion = 1;

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: host_perf [options]\n"
               "  --repeat=N         timing repetitions per cell and row, "
               "best reported\n"
               "                     (default 3)\n"
               "  --nprocs=N         processors per cell (default 8)\n"
               "  --benchmarks=A,B   subset of the suite (default: all ten)\n"
               "  --schemes=A,B      coherence schemes (default "
               "local,global,bilateral)\n"
               "  --jobs=N           time cells on N host threads (default 1; "
               "per-cell ms\n"
               "                     is noisier under a loaded pool)\n"
               "  --json=FILE        write the schema-versioned timing "
               "document\n");
}

/// Time `op`, one call of which is one program run or one cache operation
/// and returns whether it computed the right result, and print its row:
/// `items` per call as items per second, or with `items` 0 nanoseconds per
/// call. A sample shorter than 1 ms is discarded and the next makes twice
/// the calls, so the clock reads weigh nothing in a sample's time.
template <class Op>
bool time_row(const std::string& name, const char* what, double items,
              std::uint64_t repeat, Op op) {
  using Clock = std::chrono::steady_clock;
  std::uint64_t calls = 1;
  double best_ns = 0.0;
  for (std::uint64_t r = 0; r < repeat;) {
    bool right = true;
    const Clock::time_point start = Clock::now();
    for (std::uint64_t i = 0; i < calls; ++i) right = op() && right;
    const std::chrono::duration<double, std::nano> took =
        Clock::now() - start;
    if (!right) {
      std::fprintf(stderr, "host_perf: %s computed a wrong result\n",
                   name.c_str());
      return false;
    }
    if (took < std::chrono::milliseconds(1)) {
      calls *= 2;
      continue;
    }
    const double ns = took.count() / static_cast<double>(calls);
    if (r++ == 0 || ns < best_ns) best_ns = ns;
  }
  std::printf("%-22s %8.2f %-4s (%s)\n", name.c_str(),
              items > 0 ? items * 1e3 / best_ns : best_ns,
              items > 0 ? "M/s" : "ns", what);
  std::fflush(stdout);
  return true;
}

struct Node {
  std::int64_t val;
  GPtr<Node> next;
};
enum RingSite : SiteId { kVal, kNext };

/// A ring of `n` nodes holding 1 each, dealt round-robin over the
/// processors, walked for `iters` hops: two references per hop, and the
/// sum of the values read is `iters`.
Task<std::int64_t> ring_walk(Machine& m, int n, std::int64_t iters) {
  std::vector<GPtr<Node>> ring;
  for (int i = 0; i < n; ++i) {
    ring.push_back(m.alloc<Node>(static_cast<ProcId>(i % m.nprocs())));
  }
  for (int i = 0; i < n; ++i) {
    co_await wr(ring[i], &Node::val, std::int64_t{1}, kVal);
    co_await wr(ring[i], &Node::next, ring[(i + 1) % n], kNext);
  }
  GPtr<Node> head = ring[0];
  std::int64_t acc = 0;
  for (std::int64_t i = 0; i < iters; ++i) {
    acc += co_await rd(head, &Node::val, kVal);
    head = co_await rd(head, &Node::next, kNext);
  }
  co_return acc;
}

Task<std::int64_t> leaf(Machine& m) {
  m.work(1);
  co_return 1;
}

/// `n` futurecall/touch pairs whose bodies all return inline; sums to `n`.
Task<std::int64_t> future_storm(Machine& m, int n) {
  std::int64_t acc = 0;
  for (int i = 0; i < n; ++i) {
    auto f = co_await futurecall(leaf(m));
    acc += co_await touch(f);
  }
  co_return acc;
}

/// Figure 4's TreeAdd, whose one site the heuristic selects for migration.
ir::Program treeadd_ir() {
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
  return p;
}

/// The twelve rows, at the sizes docs/PERFORMANCE.md and EXPERIMENTS.md
/// quote. False if any row computed a wrong result.
bool time_rows(std::uint64_t repeat) {
  const auto walk = [](ProcId nprocs, Mechanism mech, int ring,
                       std::int64_t hops) {
    return [=] {
      Machine m({.nprocs = nprocs});
      m.set_site_mechanisms({mech, mech});
      return run_program(m, ring_walk(m, ring, hops)) == hops;
    };
  };
  bool ok = time_row("LocalAccess", "ring references, p=1", 200000, repeat,
                     walk(1, Mechanism::kCache, 64, 100000));
  ok &= time_row("CachedRemoteAccess", "ring references, p=8", 200000,
                 repeat, walk(8, Mechanism::kCache, 64, 100000));
  ok &= time_row("Migration", "ring hops, each a migration, p=8", 20000,
                 repeat, walk(8, Mechanism::kMigrate, 8, 20000));
  ok &= time_row("FuturecallInline", "futurecall/touch pairs, p=4", 50000,
                 repeat, [] {
                   Machine m({.nprocs = 4});
                   m.set_site_mechanisms({});
                   return run_program(m, future_storm(m, 50000)) == 50000;
                 });
  const ir::Program treeadd = treeadd_ir();
  ok &= time_row("HeuristicAnalysis", "TreeAdd analyses", 1, repeat, [&] {
    return ir::analyze(treeadd, 1).site_table ==
           std::vector<Mechanism>{Mechanism::kMigrate};
  });

  // Figure 1's cache, loaded with page populations as fig1 builds them.
  const auto load = [](SoftwareCache& cache, std::size_t pages,
                       std::uint64_t seed) {
    std::vector<std::uint32_t> ids = page_population(pages, seed);
    bool created = false;
    for (const std::uint32_t id : ids) {
      cache.ensure_page(id, created).valid = 0xffffffffu;
    }
    return ids;
  };
  for (const std::size_t pages : {163u, 1604u, 2982u, 21749u}) {
    SoftwareCache cache;
    const std::vector<std::uint32_t> ids = load(cache, pages, 1234);
    std::size_t i = 0;
    const std::string n = std::to_string(pages);
    ok &= time_row("LookupHit/" + n, ("hit, " + n + " pages").c_str(), 0,
                   repeat, [&] {
                     const std::uint32_t id = ids[i];
                     i = (i + 1) % ids.size();
                     const auto* e = cache.lookup(id).entry;
                     return e != nullptr && e->page_id == id;
                   });
  }
  SoftwareCache cache;
  const std::vector<std::uint32_t> ids = load(cache, 2000, 5);
  // A page id has 21 bits, so no id from 0x03c00000 up is cached.
  std::uint32_t probe = 0;
  ok &= time_row("LookupMiss", "miss, 2000 pages", 0, repeat, [&] {
    return cache.lookup(0x03c00000u | probe++).entry == nullptr;
  });
  ok &= time_row("PageFill", "1024 pages into a new cache", 0, repeat, [] {
    SoftwareCache cache;
    bool right = true;
    for (std::uint32_t id = 1; id < 7 * 1024; id += 7) {
      bool created = false;
      right = cache.ensure_page(id, created).page_id == id && created && right;
    }
    return right;
  });
  ok &= time_row("InvalidateAll", "2000 full pages, then revalidated", 0,
                 repeat, [&] {
                   bool right = cache.invalidate_all() == ids.size() * 32;
                   for (const std::uint32_t id : ids) {
                     auto* e = cache.lookup(id).entry;
                     if (e == nullptr) return false;
                     e->valid = 0xffffffffu;
                   }
                   return right;
                 });
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t repeat = 3;
  std::uint64_t nprocs = 8;
  std::uint64_t jobs = 1;
  std::string benchmarks_str;
  std::string schemes_str = "local,global,bilateral";
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (flag_value(argv[i], "--repeat", &v)) {
      if (!parse_u64_strict(v, &repeat) || repeat == 0) {
        std::fprintf(stderr, "host_perf: --repeat must be a positive integer\n");
        return 2;
      }
    } else if (flag_value(argv[i], "--nprocs", &v)) {
      if (!parse_u64_strict(v, &nprocs) || nprocs == 0 || nprocs > kMaxProcs) {
        std::fprintf(stderr, "host_perf: --nprocs must be in [1, %u]\n",
                     static_cast<unsigned>(kMaxProcs));
        return 2;
      }
    } else if (flag_value(argv[i], "--jobs", &v)) {
      if (!parse_u64_strict(v, &jobs) || jobs == 0) {
        std::fprintf(stderr, "host_perf: --jobs must be a positive integer\n");
        return 2;
      }
    } else if (flag_value(argv[i], "--benchmarks", &v)) {
      benchmarks_str = v;
    } else if (flag_value(argv[i], "--schemes", &v)) {
      schemes_str = v;
    } else if (flag_value(argv[i], "--json", &v)) {
      json_path = v;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      usage(stdout);
      return 0;
    } else {
      usage(stderr);
      return 2;
    }
  }

  std::vector<Cell> specs;
  std::string err;
  if (!grid_cells(benchmarks_str, schemes_str, static_cast<ProcId>(nprocs),
                  &specs, &err)) {
    std::fprintf(stderr, "host_perf: %s\n", err.c_str());
    return 2;
  }
  // Each cell's `repeat` runs are cells in a row; the best is reported.
  std::vector<Cell> cells;
  for (const Cell& c : specs) cells.insert(cells.end(), repeat, c);
  bool ok = true;
  std::vector<double> best_ms(specs.size(), -1.0);
  double total_best_ms = 0.0;
  const std::vector<CellResult> runs = run_cells(
      "host_perf", cells, {.tiny = true}, jobs,
      [&](std::size_t i, const std::vector<CellResult>& done) {
        ok = ok && done[i].ok;  // the runner named a failed cell on stderr
        double& best = best_ms[i / repeat];
        if (best < 0.0 || done[i].run_ms < best) best = done[i].run_ms;
        if (!ok || (i + 1) % repeat != 0) return;
        std::printf("%-12s %-9s %8.2f ms\n", cells[i].bench->name().c_str(),
                    to_string(cells[i].scheme), best);
        std::fflush(stdout);
        total_best_ms += best;
      });
  if (!ok) return 1;
  std::printf("%-12s %-9s %8.2f ms  (%zu cells, best of %" PRIu64
              ", p=%" PRIu64 ", tiny)\n",
              "TOTAL", "", total_best_ms, specs.size(), repeat, nprocs);
  if (!time_rows(repeat)) return 1;

  if (!json_path.empty()) {
    std::string doc;
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\n \"host_bench_schema_version\": %d,\n"
                  " \"generator\": \"host_perf\",\n"
                  " \"mode\": \"tiny\",\n"
                  " \"nprocs\": %" PRIu64 ",\n \"repeat\": %" PRIu64
                  ",\n \"jobs\": %" PRIu64 ",\n"
                  " \"cells\": [\n",
                  kHostBenchSchemaVersion, nprocs, repeat, jobs);
    doc += buf;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      doc += "  {\"benchmark\": \"";
      append_escaped(doc, specs[i].bench->name());
      doc += "\", \"scheme\": \"";
      append_escaped(doc, to_string(specs[i].scheme));
      std::snprintf(
          buf, sizeof buf,
          "\", \"best_ms\": %.3f, \"makespan_cycles\": %llu}%s\n",
          best_ms[i],
          static_cast<unsigned long long>(
              runs[i * repeat].result.total_cycles),
          i + 1 < specs.size() ? "," : "");
      doc += buf;
    }
    std::snprintf(buf, sizeof buf, " ],\n \"total_best_ms\": %.3f\n}\n",
                  total_best_ms);
    doc += buf;
    if (!write_file(json_path, doc, &err)) {
      std::fprintf(stderr, "host_perf: %s\n", err.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
