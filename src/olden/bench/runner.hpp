// The one cell runner. bench_cell, host_perf, Tables 1-3 and the Voronoi
// ablation hand run_cells their (benchmark x processors x scheme x role)
// cells, and it alone labels each cell's run, sets its meta, checks its
// checksum against the host reference, catches its exception and times it.
//
// Cells run on `jobs` host threads (at one job, the calling thread), each
// recording into an Observer of its own that with --trace-bin=F streams to
// F.cell<i>; the calling thread merges them in cell order, so every output
// is byte-identical at every job count. An observed cell starts once the
// cell `jobs` places before it is merged (so at most `jobs` cell files
// exist at once) from the retention budget the merged cells left: exact at
// one job, re-applied at merge to cells that ran ahead. An unobserved cell
// starts as soon as a thread is free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "olden/bench/benchmark.hpp"
#include "olden/trace/observer.hpp"

namespace olden::bench {

/// The paper's three coherence schemes, in the order the tables print them.
inline constexpr Coherence kSchemes[] = {
    Coherence::kLocalKnowledge, Coherence::kEagerGlobal, Coherence::kBilateral};

/// Table 2's sequential baseline, the heuristic's plan, or every site
/// forced to migrate.
enum class Role { kSequential, kPlan, kMigrateOnly };

struct Cell {
  const Benchmark* bench = nullptr;
  ProcId nprocs = 1;
  Coherence scheme = Coherence::kLocalKnowledge;
  Role role = Role::kPlan;
};

/// The plans at `nprocs` that `--benchmark=A,B --schemes=C,D` name,
/// benchmark-major; an empty benchmark list is the whole suite. False,
/// with *err set, on a name that is not a suite benchmark or a scheme.
bool grid_cells(const std::string& benchmarks, const std::string& schemes,
                ProcId nprocs, std::vector<Cell>* out, std::string* err);

struct CellResult {
  bool ok = false;      ///< run() returned, matched the reference, merged
  BenchResult result;   ///< what run() returned, if it did
  double run_ms = 0.0;  ///< host wall time of run(); 0 if it threw
  std::string error;    ///< why the cell failed, naming it by its label
};

/// Called on the calling thread, in cell order, as cell i is merged;
/// results[0..i] are final.
using CellDone =
    std::function<void(std::size_t i, const std::vector<CellResult>& results)>;

/// Runs `cells` on `jobs` host threads under `base` (size, seed, faults,
/// and feedback, which only a plan takes), recording into `base.observer`
/// (null: unobserved). Each run is labelled "BENCH/<name>/p=<N>/<scheme>",
/// plus "/seq" or "/migrate-only", and its meta holds `size`, and
/// `benchmark` (what --profile grades by) only on a plan at p > 1. Each
/// benchmark's host reference is computed once, by its first cell to end.
/// Each failed cell's error goes to stderr as "<prog>: <error>" as it is
/// merged, before `done` sees it.
std::vector<CellResult> run_cells(const char* prog,
                                  const std::vector<Cell>& cells,
                                  const BenchConfig& base, std::size_t jobs,
                                  const CellDone& done = {});

}  // namespace olden::bench
