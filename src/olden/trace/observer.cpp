#include "olden/trace/observer.hpp"

#include <utility>

#include "olden/runtime/machine.hpp"
#include "olden/support/require.hpp"

namespace olden::trace {

void Observer::begin_run(std::string label,
                         std::map<std::string, std::string> meta) {
  // A begin_run with no intervening machine just relabels the pending run.
  cur_.label = std::move(label);
  cur_.meta = std::move(meta);
}

void Observer::attach(const RunConfig& cfg) {
  OLDEN_REQUIRE(!trace_enabled_ || sink_ != nullptr,
                "trace::Observer: tracing is on but no sink is installed "
                "(set_sink before the first run)");
  if (run_open_) {
    // The previous Machine threw before finish() (a fault-plane watchdog
    // trip, say). Drop its partial record, as a host-parallel worker's is
    // dropped, so that this run inherits none of its counts; keep the
    // label and metadata begin_run set for this run.
    events_retained_ -= cur_.events_streamed;
    RunRecord next;
    next.label = std::move(cur_.label);
    next.meta = std::move(cur_.meta);
    cur_ = std::move(next);
  }
  if (cur_.label.empty()) {
    cur_.label = "run-" + std::to_string(runs_.size());
  }
  cur_.nprocs = cfg.nprocs;
  cur_.scheme = to_string(cfg.scheme);
  cur_.sequential_baseline = cfg.costs.sequential_baseline;
  acct_.assign(cfg.nprocs, BucketCycles{});
  page_heat_.clear();
  next_event_id_ = 0;
  next_chain_id_ = 0;
  run_open_ = true;
  // The sink mirrors runs_ exactly: every run gets a header even when
  // event collection is off.
  if (sink_ != nullptr) sink_->begin_run(cur_.label, cur_.nprocs);
}

void Observer::finish(const Machine& m) {
  if (!run_open_) return;
  run_open_ = false;

  cur_.makespan = m.makespan();
  cur_.proc_clock.resize(m.nprocs());
  cur_.breakdown = std::move(acct_);
  for (ProcId p = 0; p < m.nprocs(); ++p) {
    cur_.proc_clock[p] = m.proc_clock(p);
    // A processor that went quiescent before the makespan was idle for
    // the remainder of the run.
    cur_.breakdown[p][static_cast<std::size_t>(CycleBucket::kIdle)] +=
        cur_.makespan - m.proc_clock(p);
  }
  // Join each profiled site to the mechanism the compile-time heuristic
  // (or a feedback override) actually chose for this run.
  for (auto& [site, sp] : cur_.profile.sites) sp.mechanism = m.mechanism(site);

  for (const auto& [key, heat] : page_heat_) {
    (void)key;
    cur_.hists[static_cast<std::size_t>(Hist::kPageHeat)].record(heat);
  }
  page_heat_.clear();

  const MachineStats& s = m.stats();
  auto& c = cur_.counters;
  c["local_reads"] = s.local_reads;
  c["local_writes"] = s.local_writes;
  c["cacheable_reads"] = s.cacheable_reads;
  c["cacheable_writes"] = s.cacheable_writes;
  c["cacheable_reads_remote"] = s.cacheable_reads_remote;
  c["cacheable_writes_remote"] = s.cacheable_writes_remote;
  c["cache_hits"] = s.cache_hits;
  c["cache_misses"] = s.cache_misses;
  c["timestamp_checks"] = s.timestamp_checks;
  c["timestamp_stalls"] = s.timestamp_stalls;
  c["migrations"] = s.migrations;
  c["return_migrations"] = s.return_migrations;
  c["futurecalls"] = s.futurecalls;
  c["futures_inlined"] = s.futures_inlined;
  c["futures_stolen"] = s.futures_stolen;
  c["touches_blocked"] = s.touches_blocked;
  c["cache_flushes"] = s.cache_flushes;
  c["lines_invalidated"] = s.lines_invalidated;
  c["invalidation_messages"] = s.invalidation_messages;
  c["tracked_writes"] = s.tracked_writes;
  c["pages_cached"] = s.pages_cached;
  c["allocations"] = s.allocations;
  c["bytes_allocated"] = s.bytes_allocated;
  c["fault_messages"] = s.fault_messages;
  c["fault_drops"] = s.fault_drops;
  c["fault_duplicates"] = s.fault_duplicates;
  c["fault_delays"] = s.fault_delays;
  c["retransmissions"] = s.retransmissions;
  c["duplicates_suppressed"] = s.duplicates_suppressed;
  c["acks_sent"] = s.acks_sent;
  c["hiccups_injected"] = s.hiccups_injected;
  c["hiccup_cycles"] = s.hiccup_cycles;
  c["coherence_requests"] = s.coherence_requests;
  c["replies_ignored"] = s.replies_ignored;
  // Retry decomposition for the three coherence classes, by name — the
  // full per-class matrix lives in the `fault_classes` export object.
  c["fills_retried"] =
      s.class_retries[static_cast<std::size_t>(MsgClass::kFill)];
  c["invalidations_retried"] =
      s.class_retries[static_cast<std::size_t>(MsgClass::kInvalidate)];
  c["ts_checks_retried"] =
      s.class_retries[static_cast<std::size_t>(MsgClass::kTsCheck)];
  c["threads_created"] = m.threads_created();
  c["makespan_cycles"] = cur_.makespan;
  for (std::size_t i = 0; i < kNumMsgClasses; ++i) {
    cur_.class_sent[i] = s.class_sent[i];
    cur_.class_drops[i] = s.class_drops[i];
    cur_.class_dups[i] = s.class_dups[i];
    cur_.class_delays[i] = s.class_delays[i];
    cur_.class_retries[i] = s.class_retries[i];
  }

  if (sink_ != nullptr) sink_->end_run(cur_.makespan, cur_.events_dropped);
  runs_.push_back(std::move(cur_));
  cur_ = RunRecord{};
}

void Observer::adopt_runs_from(Observer& donor, const CopyEvents& copy) {
  for (RunRecord& r : donor.runs_) {
    const std::uint64_t budget = events_left();
    if (r.events_streamed > budget) {
      r.events_dropped += r.events_streamed - budget;
      r.events_streamed = budget;
    }
    events_retained_ += r.events_streamed;
    if (sink_ != nullptr) {
      sink_->begin_run(r.label, r.nprocs);
      copy(*sink_, r.events_streamed);
      sink_->end_run(r.makespan, r.events_dropped);
    }
    runs_.push_back(std::move(r));
  }
  donor.runs_.clear();
}

}  // namespace olden::trace
