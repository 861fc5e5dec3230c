// profile — the per-site table the feedback grader reads.
//
// A RunProfile counts, for every dereference site, how its accesses
// resolved while a Machine ran, driven entirely from the trace::Observer
// hooks the runtime already calls. Nothing here touches virtual time: the
// profiler only counts (the zero-perturbation A/B tests in
// tests/profile_test.cpp and tests/observability_determinism_test.cpp
// hold it to that — with profiling enabled, traces are byte-identical to
// profiling-off runs and every makespan/counter is unchanged).
//
// `--profile=FILE` grades each site from this table and writes the
// feedback document (profile/feedback.hpp) that
// `--heuristic=profile:FILE` reads back. See docs/PROFILING.md.
#pragma once

#include <cstdint>
#include <map>

#include "olden/support/types.hpp"
#include "olden/trace/trace.hpp"

namespace olden::profile {

/// How one profiled access resolved. Local/write-through classes are fed
/// by dedicated Machine hooks (no trace event exists for them); hits,
/// misses and migrations are tapped off the event stream.
enum class AccessClass : std::uint8_t {
  kLocalRead,     ///< home-local dereference (no mechanism engaged)
  kLocalWrite,
  kWriteThrough,  ///< remote cached write (forwarded to the home copy)
};

/// Whole-run counts for one site. `accesses()` counts every dereference
/// executed at the site: local + hits + misses + write-throughs +
/// migrations. A migrated access is counted once, at departure on the
/// source processor (the post-migration local completion is not
/// re-counted).
struct SiteProfile {
  std::uint64_t local_reads = 0;
  std::uint64_t local_writes = 0;
  std::uint64_t cache_hits = 0;      ///< remote reads served by the cache
  std::uint64_t cache_misses = 0;    ///< remote reads that fetched lines
  std::uint64_t write_throughs = 0;  ///< remote writes through the cache
  std::uint64_t migrations = 0;      ///< accesses that migrated the thread
  /// Mechanism the compile-time heuristic chose for this site (snapshotted
  /// from the Machine's decision table when the run finishes).
  Mechanism mechanism = Mechanism::kMigrate;

  [[nodiscard]] std::uint64_t accesses() const {
    return local_reads + local_writes + cache_hits + cache_misses +
           write_throughs + migrations;
  }
};

/// Everything the profiling plane records about one Machine run. Lives
/// inside trace::RunRecord so Observer::adopt_run merges worker profiles
/// byte-identically to a serial run.
struct RunProfile {
  std::map<SiteId, SiteProfile> sites;

  /// One local or write-through access at `site`.
  void add_access(SiteId site, AccessClass cls);

  /// Event-stream tap: hits, misses and migrations ride on events the
  /// runtime already emits.
  void on_event(trace::EventKind k, SiteId site);
};

}  // namespace olden::profile
