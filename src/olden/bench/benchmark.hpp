// The Olden benchmark suite interface (Table 1).
//
// Each of the ten benchmarks provides:
//  * an annotated-C program against the runtime API (Task coroutines with
//    rd/wr/futurecall/touch and explicit ALLOC placement),
//  * its IR description, from which the heuristic derives the
//    migrate-vs-cache decision for every dereference site,
//  * a host-side sequential reference that computes the same checksum, so
//    every (benchmark x processors x coherence scheme) cell in the paper's
//    tables is validated for correctness, not just timed.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "olden/compiler/analysis.hpp"
#include "olden/profile/feedback.hpp"
#include "olden/runtime/machine.hpp"
#include "olden/support/stats.hpp"
#include "olden/support/types.hpp"

namespace olden::bench {

struct BenchConfig {
  ProcId nprocs = 1;
  Coherence scheme = Coherence::kLocalKnowledge;
  /// Force every dereference site to computation migration (Table 2's
  /// "Migrate-only" column — the prior-work execution model of [35]).
  bool migrate_only = false;
  /// "True sequential implementation": charge raw compute only, no
  /// pointer tests / futures / caching (the speedup denominator).
  bool sequential_baseline = false;
  /// Paper problem size; the default is scaled down so the full table
  /// regenerates in seconds (EXPERIMENTS.md records both).
  bool paper_size = false;
  /// Pinned tiny problem size, the one the equivalence tests pin byte for
  /// byte: small enough that every benchmark x scheme cell runs in well
  /// under a second, large enough that migration and caching behavior is
  /// still exercised. Overrides paper_size.
  bool tiny = false;
  std::uint64_t seed = 12345;
  /// Optional observability sink, forwarded into the Machine's RunConfig.
  /// Null (the default) keeps every instrumentation hook a no-op.
  trace::Observer* observer = nullptr;
  /// Optional fault-injection plan (src/olden/fault/), forwarded into the
  /// Machine's RunConfig. Null or disabled keeps the wire fault-free and
  /// the event stream byte-identical to a build without the fault plane.
  const fault::FaultSpec* faults = nullptr;
  std::uint64_t fault_seed = 1;
  /// Optional profile-guided feedback (--heuristic=profile:FILE): per-site
  /// mechanism overrides learned from an earlier profiled run, applied
  /// between the static heuristic and the builder's site_overrides().
  const profile::FeedbackTable* feedback = nullptr;
};

struct BenchResult {
  std::uint64_t checksum = 0;
  Cycles build_cycles = 0;   ///< structure-building phase
  Cycles kernel_cycles = 0;  ///< the timed computation
  Cycles total_cycles = 0;
  MachineStats stats;
  /// Heuristic output for this benchmark's program (empty when
  /// migrate_only / baseline bypassed it).
  std::string heuristic_report;

  [[nodiscard]] double total_seconds() const {
    return cycles_to_seconds(total_cycles);
  }
  [[nodiscard]] double kernel_seconds() const {
    return cycles_to_seconds(kernel_cycles);
  }
};

class Benchmark {
 public:
  virtual ~Benchmark() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::string description() const = 0;
  /// Problem size string for the given config (Table 1's third column).
  [[nodiscard]] virtual std::string problem_size(bool paper_size) const = 0;
  /// Table 2 reports whole-program times for Power, Barnes-Hut and Health,
  /// kernel-only times for the rest.
  [[nodiscard]] virtual bool whole_program_timing() const = 0;
  /// "M" or "M+C": what the heuristic chooses (Table 2 column 2).
  [[nodiscard]] virtual std::string heuristic_choice() const = 0;

  /// The benchmark's annotated-C program as IR for the heuristic.
  [[nodiscard]] virtual ir::Program ir_program() const = 0;
  [[nodiscard]] virtual std::size_t num_sites() const = 0;

  /// Execute under the simulated machine.
  [[nodiscard]] virtual BenchResult run(const BenchConfig& cfg) const = 0;

  /// Host-side sequential reference checksum for validation.
  [[nodiscard]] virtual std::uint64_t reference_checksum(
      const BenchConfig& cfg) const = 0;

  /// Per-site decisions fixed outside the loop heuristic. The real
  /// compiler special-cases stores that initialize freshly ALLOCed
  /// objects (locality is manifest from the allocation itself, no update
  /// matrix needed); builders use this so construction migrates to the
  /// new object's processor and the build phase parallelizes, as the
  /// paper's "data structure building phases show excellent speed-up"
  /// requires.
  [[nodiscard]] virtual std::vector<std::pair<SiteId, Mechanism>>
  site_overrides() const {
    return {};
  }

  /// Convenience: build the machine site table for `cfg` — heuristic
  /// decisions, or all-migrate for the migrate-only column.
  [[nodiscard]] std::vector<Mechanism> site_table(const BenchConfig& cfg,
                                                  std::string* report) const {
    if (cfg.migrate_only) {
      return std::vector<Mechanism>(num_sites(), Mechanism::kMigrate);
    }
    ir::Program prog = ir_program();
    if (prog.name.empty()) prog.name = name();  // stable site uids
    const ir::Selection sel = ir::analyze(prog, num_sites());
    if (report != nullptr) *report = sel.report();
    std::vector<Mechanism> table = sel.site_table;
    if (cfg.feedback != nullptr) {
      // A feedback row naming a site this build does not have is stale
      // (generated against an older benchmark); warn with the exact uid
      // so the user can regenerate the file, and otherwise ignore it.
      for (const std::string& uid :
           cfg.feedback->stale_uids(name(), num_sites())) {
        std::fprintf(stderr,
                     "warning: feedback row %s names a site outside this "
                     "build's %zu-site table for %s -- ignored (stale "
                     "feedback file?)\n",
                     uid.c_str(), num_sites(), name().c_str());
      }
      for (std::size_t s = 0; s < table.size(); ++s) {
        if (const auto m =
                cfg.feedback->lookup(name(), static_cast<SiteId>(s))) {
          table[s] = *m;
        }
      }
    }
    for (const auto& [site, mech] : site_overrides()) {
      if (table.size() <= site) table.resize(site + 1, Mechanism::kCache);
      table[site] = mech;
    }
    return table;
  }
};

/// All ten benchmarks, in Table 1 order.
const std::vector<const Benchmark*>& suite();
const Benchmark* find_benchmark(const std::string& name);

// factory functions, one per benchmark translation unit
const Benchmark& treeadd_benchmark();
const Benchmark& power_benchmark();
const Benchmark& tsp_benchmark();
const Benchmark& mst_benchmark();
const Benchmark& bisort_benchmark();
const Benchmark& voronoi_benchmark();
const Benchmark& em3d_benchmark();
const Benchmark& barnes_benchmark();
const Benchmark& perimeter_benchmark();
const Benchmark& health_benchmark();

/// Split a processor range for a binary divide: the left child builds on
/// the upper half, the right stays with the parent's processor. A
/// single-processor range is shared by both children.
struct ProcRange {
  ProcId lo, hi;
};
inline std::pair<ProcRange, ProcRange> split_procs(ProcId lo, ProcId hi) {
  if (hi - lo <= 1) return {{lo, hi}, {lo, hi}};
  const ProcId mid = lo + (hi - lo) / 2;
  return {{mid, hi}, {lo, mid}};
}

/// Shared helper: owner of block i of n items over P processors.
inline ProcId block_owner(std::uint64_t i, std::uint64_t n, ProcId nprocs) {
  return static_cast<ProcId>(i * nprocs / n);
}

/// Mix a 64-bit value into a running checksum (order-sensitive).
inline std::uint64_t mix_checksum(std::uint64_t acc, std::uint64_t v) {
  acc ^= v + 0x9e3779b97f4a7c15ULL + (acc << 6) + (acc >> 2);
  return acc;
}

/// Quantize a double for checksumming (stable across run orders as long
/// as the arithmetic is identical, which determinism guarantees).
inline std::uint64_t quantize(double v, double scale = 1e6) {
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(v * scale));
}

}  // namespace olden::bench
