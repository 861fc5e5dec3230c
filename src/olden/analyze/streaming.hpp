// Bounded-memory analysis of one traced run.
//
// The analyzer consumes the run as a stream, in file order, and retains
// only the packed per-event fields the critical-path DP needs later
// (time, kind + an arg0-sign bit, processor, parent: 18 bytes per event),
// feeding the hot-site / page / fault aggregations as events fly by;
// their maps scale with the footprint of the simulated heap, not the
// trace length. Loading whole events instead would cost ~250 bytes each,
// which rules out paper-scale traces (hundreds of MB to GB of log).
//
// finish() then extracts the critical path (critical_path.hpp) over the
// packed arrays. It cannot run the DP online in file order — per-processor
// streams are not time-monotone (arrivals are stamped with message
// delivery time while flush events use the processor clock), so the
// per-processor chains only exist after a (time, id) sort. Each event's
// incoming candidates (its per-processor chain or SOURCE boundary edge,
// and its causal parent edge) are evaluated in source order — SOURCE
// first, then (time, id), the chain edge before the causal edge on a
// shared source — and only a strict improvement replaces the best, which
// fixes the chosen path among equal-idle ones. Peak memory is the packed
// 18 bytes plus ~25 DP bytes per event. The walk back from SINK keeps the
// path's kHeaviestEdges heaviest edges for the human report.
//
// Two stream invariants are verified as the run is read (runtime traces
// satisfy them; synthetic ones that do not fail loudly instead of
// diverging silently):
//
//   * ids are dense: record i of a run carries id == i (the observer
//     numbers events per run and truncation only drops the tail),
//   * parent links point backwards (a parent is emitted before its child),
//   * every event is on one of the run's processors.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "olden/analyze/diff.hpp"
#include "olden/analyze/report.hpp"
#include "olden/analyze/trace_reader.hpp"

namespace olden::analyze {

class StreamingRunAnalyzer {
 public:
  /// `header` is the run as returned by TraceStream::next_run (events
  /// not yet read); top_n bounds the hot-site / hot-page lists.
  StreamingRunAnalyzer(const TraceRun& header, std::size_t top_n);

  /// Opt in to diff-profile retention before the first add(): keeps the
  /// head event's site and page per event (12 extra bytes each) and
  /// tracks chain spawn signatures incrementally, so finish_diff() can
  /// hand back the run's DiffProfile.
  void enable_diff_profile();

  /// Feed the run's events in file order. Returns false once a stream
  /// invariant is violated; the error latches (see error()) and further
  /// calls are no-ops.
  bool add(const trace::TraceEvent& e);

  /// Complete the analysis. Returns false (setting *err) if add() failed
  /// or the stream ended short of the header's event count.
  bool finish(RunReport* out, std::string* err);

  /// finish() plus the cross-run diff profile (diff.hpp), extracted in
  /// the same DP walk. Requires enable_diff_profile() before the first
  /// add().
  bool finish_diff(RunReport* out, DiffProfile* profile, std::string* err);

  [[nodiscard]] const std::string& error() const { return err_; }

 private:
  struct PageAcc {
    PageStats stats;
    std::set<ProcId> sharers;
    /// Processors holding a pending invalidate for this page: the next
    /// fill there completes an invalidate-then-refill round trip.
    std::unordered_set<ProcId> invalidated_on;
  };

  bool set_error(const std::string& msg);
  bool finish_impl(RunReport* out, DiffProfile* profile, std::string* err);
  /// `profile`, when non-null, receives the site/page/edge cycle charges
  /// of every walked edge (the diff-detail mode).
  void extract_critical_path(CriticalPath* path, DiffProfile* profile) const;

  std::string label_;
  bool run_truncated_ = false;
  ProcId nprocs_ = 0;
  Cycles makespan_ = 0;
  std::uint64_t expected_events_ = 0;
  std::size_t top_n_ = 10;
  std::string err_;
  std::uint64_t count_ = 0;  ///< events consumed so far == next expected id

  // Packed per-event fields, indexed by event id (dense, so id == index).
  std::vector<Cycles> time_;
  /// Event kind in the low 7 bits (kNumEventKinds < 0x80), arg0 > 0 in
  /// the top bit — everything the edge classifiers need of an endpoint.
  std::vector<std::uint8_t> kindbits_;
  /// Processor (always < nprocs_: add() rejects any other).
  std::vector<std::uint8_t> proc_;
  /// Parent id, or kNoParent when absent / dropped at the trace limit.
  std::vector<std::uint64_t> parent_;

  // Diff-detail retention (populated only after enable_diff_profile()).
  bool diff_ = false;
  std::vector<SiteId> site_;          ///< head-event site per event
  std::vector<std::uint64_t> page_;   ///< classify::page_of per event
  std::unordered_set<std::uint64_t> chains_seen_;
  std::map<ChainSig, std::uint64_t> chain_counts_;
  std::uint64_t chains_ = 0;

  // Report aggregation, fed incrementally.
  std::unordered_map<std::uint64_t, SiteId> depart_site_;  ///< depart id->site
  std::map<SiteId, SiteStats> sites_;
  std::map<std::uint64_t, PageAcc> pages_;
  FaultSummary faults_;
};

/// Analyze every run of the binary trace at `path` in one streaming pass:
/// `file` receives the run headers, `reports` one RunReport per run (top_n
/// hottest sites and pages) and, when `profiles` is non-null, one
/// DiffProfile per run. Returns false, with *err naming the file, on an
/// unreadable trace or a malformed run.
bool analyze_trace_file(const std::string& path, std::size_t top_n,
                        TraceFile* file, std::vector<RunReport>* reports,
                        std::vector<DiffProfile>* profiles, std::string* err);

/// Render the binary trace at `path` into `out_path` as Chrome trace_event
/// JSON for Perfetto (chrome.cpp): one process per run, one track per
/// virtual processor, ts in virtual cycles, transit as duration slices and
/// cross-processor causal links as flow arrows. Keeps 16 bytes per event
/// of the current run. Returns false, with *err set, on an unreadable
/// trace, events out of the runtime's order, or a failed write.
bool render_chrome_trace(const std::string& path, const std::string& out_path,
                         std::string* err);

}  // namespace olden::analyze
