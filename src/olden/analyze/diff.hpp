// Cross-run trace diffing: attribute a makespan delta to mechanisms.
//
// The paper's claim is a *comparison* — caching vs migration vs hybrid on
// the same workload — and a single-run report cannot answer "why is
// scheme B 12% slower than scheme A?". This engine takes two v2 traces of
// the same workload (different scheme, revision, or fault spec), aligns
// their causal structure, and decomposes the makespan delta along four
// independent axes, each of which sums *exactly* to the delta:
//
//   * cycle buckets  — compute / migration / cache_stall / coherence /
//                      idle / retry,
//   * dereference sites — which decision-table entry got slower,
//   * pages          — which heap pages the extra stall cycles hit,
//   * edge signatures — structurally aligned critical-path edges.
//
// Alignment is structural, never by event id: ids, times and chain
// numbers all differ across runs, so critical-path edges are keyed by
// (source kind, destination kind, bucket, destination site) and compared
// signature-against-signature. Causal chains are likewise matched by
// their spawn signature (first event's kind + site), giving a topology
// summary (chains in A, in B, aligned).
//
// The exactness invariant mirrors the critical-path-sums-to-makespan
// proof: each run's critical-path attribution telescopes to its makespan,
// so subtracting B's attribution from A's — along any partition of the
// path's edges — telescopes to makespan(B) - makespan(A). diff_runs()
// verifies all four partitions at runtime and refuses to emit a report
// that does not balance; tests/diff_test.cpp holds it to that across
// benchmarks x scheme pairs, and tools/check_stats_schema.py --diff
// re-checks the emitted JSON independently.
//
// Profiles come from StreamingRunAnalyzer's diff-detail mode
// (streaming.hpp), which builds them in the same walk that extracts the
// critical path.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "olden/analyze/critical_path.hpp"
#include "olden/support/stats.hpp"

namespace olden::analyze {

/// Schema version of the JSON document json_diff() emits.
inline constexpr int kDiffSchemaVersion = 1;

/// Structural identity of one critical-path edge — everything about the
/// edge that is stable across runs of the same workload (event ids,
/// times and chains are not).
struct EdgeKey {
  static constexpr std::uint8_t kSourceKind = kSourceNode;
  static constexpr std::uint8_t kSinkKind = kSinkNode;

  std::uint8_t src_kind = kSourceKind;  ///< EventKind of the tail, or SOURCE
  std::uint8_t dst_kind = kSinkKind;    ///< EventKind of the head, or SINK
  std::uint8_t bucket = 0;              ///< trace::CycleBucket of the edge
  SiteId site = trace::kNoSite;         ///< head event's dereference site

  friend bool operator<(const EdgeKey& a, const EdgeKey& b) {
    if (a.src_kind != b.src_kind) return a.src_kind < b.src_kind;
    if (a.dst_kind != b.dst_kind) return a.dst_kind < b.dst_kind;
    if (a.bucket != b.bucket) return a.bucket < b.bucket;
    return a.site < b.site;
  }
  friend bool operator==(const EdgeKey& a, const EdgeKey& b) {
    return a.src_kind == b.src_kind && a.dst_kind == b.dst_kind &&
           a.bucket == b.bucket && a.site == b.site;
  }
};

/// Spawn signature of a causal chain: kind + site of its first event.
/// Chains are matched across runs by signature multiset, never by id.
using ChainSig = std::pair<std::uint8_t, SiteId>;

/// Everything the diff needs to know about one run: header facts plus the
/// critical path's cycles partitioned four ways. Each partition's values
/// sum to `makespan` (the critical-path exactness invariant).
struct DiffProfile {
  std::string label;
  ProcId nprocs = 0;
  Cycles makespan = 0;
  std::uint64_t events = 0;
  bool truncated = false;

  trace::BucketCycles buckets{};                     ///< per-bucket cycles
  std::map<SiteId, std::uint64_t> site_cycles;       ///< incl. kNoSite
  std::map<std::uint64_t, std::uint64_t> page_cycles;///< incl. kNoPage
  std::map<EdgeKey, std::uint64_t> edge_cycles;      ///< aligned edges
  std::map<ChainSig, std::uint64_t> chain_counts;    ///< chains per signature
  std::uint64_t chains = 0;                          ///< distinct chains
  /// Retransmit event counts split by the message class encoded in
  /// retransmit arg0 (index kNumMsgClasses = unknown / pre-encoding
  /// traces). Counts, not cycles — informational, outside the exactness
  /// invariant.
  std::array<std::uint64_t, kNumMsgClasses + 1> retries_by_class{};
};

/// a/b cycle totals for one key of one partition, and their signed delta.
struct DiffRow {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::int64_t delta = 0;  ///< b - a
};

struct SiteDiff {
  SiteId site = trace::kNoSite;
  DiffRow row;
};

struct PageDiff {
  std::uint64_t page = 0;  ///< classify::kNoPage for unpaged cycles
  DiffRow row;
};

struct EdgeDiff {
  EdgeKey key;
  DiffRow row;
};

/// Header facts of one diff side as shown in reports.
struct DiffSide {
  std::string path;  ///< trace file the run came from (CLI fills this)
  std::string label;
  ProcId nprocs = 0;
  Cycles makespan = 0;
  std::uint64_t events = 0;
  bool truncated = false;
};

/// One A-vs-B comparison. Every `delta_sum` and the bucket-row deltas sum
/// exactly to `makespan_delta`; diff_runs() fails rather than produce a
/// report where they do not.
struct DiffReport {
  DiffSide a;
  DiffSide b;
  std::int64_t makespan_delta = 0;  ///< b.makespan - a.makespan
  double makespan_delta_percent = 0.0;

  /// Fixed order (CycleBucket), always all kNumBuckets rows.
  std::array<DiffRow, trace::kNumBuckets> buckets{};

  /// Top |delta| rows per partition; everything past top_n is rolled into
  /// the matching `*_other` row so the emitted document still balances.
  std::vector<SiteDiff> sites;
  DiffRow sites_other;
  std::vector<PageDiff> pages;
  DiffRow pages_other;
  std::vector<EdgeDiff> edges;
  DiffRow edges_other;

  /// Redundant with makespan_delta by the invariant; kept explicit so
  /// consumers (and the schema checker) can verify without trusting us.
  std::int64_t bucket_delta_sum = 0;
  std::int64_t site_delta_sum = 0;
  std::int64_t page_delta_sum = 0;
  std::int64_t edge_delta_sum = 0;

  std::uint64_t chains_a = 0;
  std::uint64_t chains_b = 0;
  /// Chains matched across runs by spawn signature: sum of
  /// min(count_a, count_b) over signatures.
  std::uint64_t chains_aligned = 0;

  /// Per-message-class retransmit counts, a vs b (last row = unknown).
  std::array<DiffRow, kNumMsgClasses + 1> retries_by_class{};
};

/// Compare two profiles. Returns false (setting *err) only when the
/// exactness invariant fails — which would mean a bug in profile
/// extraction, never a property of the traces. top_n bounds the per-site
/// / per-page / per-edge tables (the remainder is rolled into *_other).
[[nodiscard]] bool diff_runs(const DiffProfile& a, const DiffProfile& b,
                             std::size_t top_n, DiffReport* out,
                             std::string* err);

/// Human-readable rendering of one comparison.
[[nodiscard]] std::string human_diff(const DiffReport& rep);

/// Schema-versioned JSON for a set of comparisons (one document per
/// --diff invocation; multi-run files diff pairwise).
[[nodiscard]] std::string json_diff(const std::vector<DiffReport>& reps);

}  // namespace olden::analyze
