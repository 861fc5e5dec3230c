// trace::Observer — the single attachment point between the runtime and
// the observability layer.
//
// A Machine holds an optional Observer*; every instrumentation hook in the
// runtime is guarded by a null check, so with no observer installed the
// hooks compile down to one predictable branch and touch nothing (and in
// *virtual* time they are free either way: hooks only read the clocks the
// runtime already advanced — see the determinism A/B test).
//
// Lifecycle, from a bench binary's point of view:
//
//   trace::Observer obs;
//   trace::StreamingTraceSink sink("trace.bin");
//   obs.set_trace_enabled(true);          // stream every event ...
//   obs.set_sink(&sink);                  // ... to the binary trace
//   obs.begin_run("TreeAdd/p=4/local");   // label the next machine run
//   ... run a Machine constructed with RunConfig{.observer = &obs} ...
//   sink.finalize(&err);                  // olden-analyze reads it
//   trace::write_stats_json(obs, "stats.json", &err);
//
// Machine calls attach() from its constructor and finish() when it goes
// quiescent; each attach/finish pair closes one RunRecord.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "olden/profile/profile.hpp"
#include "olden/support/stats.hpp"
#include "olden/support/types.hpp"
#include "olden/trace/streaming_sink.hpp"
#include "olden/trace/trace.hpp"

namespace olden {
class Machine;
struct RunConfig;
}  // namespace olden

namespace olden::trace {

/// Everything recorded about one Machine run.
struct RunRecord {
  std::string label;
  /// Free-form configuration the bench binary wants exported alongside
  /// (benchmark name, seed, paper_size, ...).
  std::map<std::string, std::string> meta;
  ProcId nprocs = 0;
  std::string scheme;
  bool sequential_baseline = false;

  Cycles makespan = 0;
  std::vector<Cycles> proc_clock;            ///< final clock per processor
  std::vector<BucketCycles> breakdown;       ///< per-processor cycle buckets
  /// Counter snapshot: every MachineStats field by name, plus makespan and
  /// derived machine-level counts.
  std::map<std::string, std::uint64_t> counters;
  std::array<Histogram, kNumHists> hists{};
  std::array<std::uint64_t, kNumEventKinds> event_counts{};
  /// Per-message-class fault decomposition (mirrors MachineStats; exported
  /// as the stats JSON `fault_classes` object, keyed by to_string(MsgClass)).
  std::array<std::uint64_t, kNumMsgClasses> class_sent{};
  std::array<std::uint64_t, kNumMsgClasses> class_drops{};
  std::array<std::uint64_t, kNumMsgClasses> class_dups{};
  std::array<std::uint64_t, kNumMsgClasses> class_delays{};
  std::array<std::uint64_t, kNumMsgClasses> class_retries{};

  /// Events written to the sink, and events past the retention limit.
  std::uint64_t events_streamed = 0;
  std::uint64_t events_dropped = 0;

  /// Per-site access counts (empty unless profiling was enabled; see
  /// src/olden/profile/). Riding in the RunRecord means adopt_runs_from
  /// merges worker profiles byte-identically to a serial run.
  profile::RunProfile profile;

  [[nodiscard]] BucketCycles bucket_totals() const {
    BucketCycles t{};
    for (const BucketCycles& b : breakdown) {
      for (std::size_t i = 0; i < kNumBuckets; ++i) t[i] += b[i];
    }
    return t;
  }
};

class Observer {
 public:
  // --- configuration (set before the first run) -------------------------

  /// Stream every event to the sink (set_sink). Counters, histograms and
  /// cycle accounting are always collected while an observer is attached;
  /// events are opt-in because a full table sweep emits tens of millions.
  void set_trace_enabled(bool on) { trace_enabled_ = on; }
  [[nodiscard]] bool trace_enabled() const { return trace_enabled_; }

  /// Cap on streamed events across all runs (default none: events are
  /// never held in memory, so a cap only bounds the file); further events
  /// are counted in `events_dropped` but not written.
  void set_event_limit(std::uint64_t n) { event_limit_ = n; }
  [[nodiscard]] std::uint64_t event_limit() const { return event_limit_; }
  /// What the limit still admits after the events already streamed.
  [[nodiscard]] std::uint64_t events_left() const {
    return event_limit_ > events_retained_ ? event_limit_ - events_retained_
                                           : 0;
  }

  /// Count each dereference site's accesses by how they resolved (see
  /// src/olden/profile/ and docs/PROFILING.md). Like tracing, profiling
  /// never touches virtual time; unlike tracing it is bounded by the
  /// program's site count, not its event count.
  void enable_profile() { profile_on_ = true; }
  [[nodiscard]] bool profile_enabled() const { return profile_on_; }

  /// Where the events go: v2 binary bytes on disk. Install before the
  /// first run; the caller owns the sink and finalizes it after the last
  /// run. No event is held in memory, so with tracing on and no sink
  /// attach() fails loudly rather than drop events.
  void set_sink(StreamingTraceSink* sink) { sink_ = sink; }
  [[nodiscard]] StreamingTraceSink* sink() const { return sink_; }

  // --- run lifecycle ------------------------------------------------------

  /// Name the next Machine run (call before constructing the Machine).
  void begin_run(std::string label,
                 std::map<std::string, std::string> meta = {});

  /// Called by Machine's constructor.
  void attach(const RunConfig& cfg);
  /// Called by Machine when it goes quiescent: snapshots stats, clocks,
  /// cycle buckets and histograms into the current RunRecord.
  void finish(const Machine& m);

  [[nodiscard]] const std::vector<RunRecord>& runs() const { return runs_; }

  /// Appends the first `n` events of the run being adopted to `to`.
  using CopyEvents = std::function<void(StreamingTraceSink& to,
                                        std::uint64_t n)>;

  /// Append every run completed in `donor` (a cell that recorded into an
  /// observer of its own and streamed to a sink of its own), in order;
  /// leaves donor empty. A serial observer would have entered each run
  /// with `budget` slots of the cross-run retention limit left and
  /// streamed its first `budget` events; the donor, which started from at
  /// least that budget, streamed a superset prefix. So each run keeps
  /// min(budget, streamed) events, and with a sink installed `copy`
  /// appends them between the run's header and its end. Merging cells in
  /// cell order thus reproduces the serial record byte for byte.
  void adopt_runs_from(Observer& donor, const CopyEvents& copy);

  // --- hot-path hooks (called by the runtime, observer non-null) ---------

  /// Record one event and return its per-run id. Ids are assigned in
  /// emission order and are consumed even when the event is dropped by the
  /// retention limit, so parent references stay stable across different
  /// `--trace-limit` settings (and across trace-enabled on/off, where the
  /// runtime still threads ids through its obs-only bookkeeping).
  std::uint64_t event(EventKind k, Cycles t, ProcId p, ThreadId th,
                      SiteId site, std::uint64_t a0 = 0, std::uint64_t a1 = 0,
                      std::uint64_t chain = kNoChain,
                      std::uint64_t parent = kNoEvent) {
    const std::uint64_t id = next_event_id_++;
    ++cur_.event_counts[static_cast<std::size_t>(k)];
    if (profile_on_) cur_.profile.on_event(k, site);
    if (!trace_enabled_) return id;
    if (events_retained_ >= event_limit_) {
      ++cur_.events_dropped;
      return id;
    }
    sink_->append(TraceEvent{t, p, th, k, site, a0, a1, id, chain, parent});
    ++cur_.events_streamed;
    ++events_retained_;
    return id;
  }

  /// Open a new causal chain (thread lineage). Chains are numbered in
  /// thread-creation order, per run.
  std::uint64_t new_chain() { return next_chain_id_++; }

  /// Attribute `c` cycles on processor p to bucket b.
  void account(ProcId p, Cycles c, CycleBucket b) {
    acct_[p][static_cast<std::size_t>(b)] += c;
  }

  /// One local or write-through dereference, for the profiling plane; no
  /// trace event exists for these (they would swamp the event stream).
  void profile_access(SiteId site, profile::AccessClass cls) {
    if (profile_on_) cur_.profile.add_access(site, cls);
  }

  void record(Hist h, std::uint64_t v) {
    cur_.hists[static_cast<std::size_t>(h)].record(v);
  }

  /// One software-cache access on processor p touching `page` (page heat;
  /// folded into the kPageHeat histogram at finish()).
  void touch_page(ProcId p, std::uint32_t page) {
    ++page_heat_[(static_cast<std::uint64_t>(p) << 32) | page];
  }

 private:
  bool trace_enabled_ = false;
  bool profile_on_ = false;
  std::uint64_t event_limit_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t events_retained_ = 0;
  std::uint64_t next_event_id_ = 0;  ///< per-run; reset in attach()
  std::uint64_t next_chain_id_ = 0;  ///< per-run; reset in attach()

  bool run_open_ = false;
  StreamingTraceSink* sink_ = nullptr;
  RunRecord cur_;
  std::vector<BucketCycles> acct_;
  std::unordered_map<std::uint64_t, std::uint64_t> page_heat_;
  std::vector<RunRecord> runs_;
};

// --- exporters (export.cpp) -------------------------------------------------
// (The events go to the binary trace, format v2, through the sink; its
// constants and the encode_record / decode_record pair live in trace.hpp.
// olden-analyze --chrome-out renders it as Chrome trace_event JSON.)

/// The structured stats document (schema documented in
/// docs/OBSERVABILITY.md and validated by tools/check_stats_schema.py).
/// v2: adds the `retry` cycle bucket and the fault-plane counters
/// (fault_messages, fault_drops, ..., hiccup_cycles); see
/// docs/ROBUSTNESS.md.
/// v3: adds the coherence request/reply counters (coherence_requests,
/// replies_ignored, fills_retried, invalidations_retried,
/// ts_checks_retried) and the per-run `fault_classes` object splitting
/// sent/drops/dups/delays/retries by message class.
/// v4: added five counters of a fourth, run-time re-deciding scheme and
/// admitted its name as a run scheme.
/// v5: added sampled runs (a window schedule, in-window sums and
/// per-counter estimates with 95% CIs).
/// v6: drops v5's sampled-run keys with the sampling plane. Exact runs
/// are byte-identical to v4 and v5 apart from the version field.
/// v7: drops v4's five counters and scheme name with that scheme. A
/// static run's document is v6's with those five keys removed.
inline constexpr int kStatsSchemaVersion = 7;
[[nodiscard]] std::string stats_json(const Observer& obs);
bool write_stats_json(const Observer& obs, const std::string& path,
                      std::string* err = nullptr);

/// Human-readable per-processor cycle-breakdown table for one run.
[[nodiscard]] std::string breakdown_table(const RunRecord& run);

}  // namespace olden::trace
