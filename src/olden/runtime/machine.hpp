// Machine: the simulated distributed-memory SPMD machine plus the Olden
// runtime system, in one deterministic discrete-event simulator.
//
// This stands in for the Thinking Machines CM-5 of the paper (see
// DESIGN.md §2 for the substitution argument). Each virtual processor has
// a cycle clock, a software cache, a ready queue of runnable threads and a
// work list of stealable future continuations. Communication — thread
// migrations, cache-line fetches, write-throughs, invalidations, future
// resolutions — is modelled as timestamped events with CM-5-calibrated
// costs from CostModel.
//
// Execution model: Olden threads are chains of C++20 coroutine frames.
// The host runs one coroutine at a time; resuming a thread executes it
// synchronously until it suspends (migration, blocked touch, procedure
// return-stub, or completion), advancing its processor's virtual clock as
// it goes. Processors are non-preemptive, as on the CM-5. Determinism:
// events are ordered by (time, sequence number), and all workload
// randomness comes from seeded olden::Rng.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstring>
#include <deque>
#include <memory>
#include <type_traits>
#include <vector>

#include "olden/cache/coherence.hpp"
#include "olden/cache/software_cache.hpp"
#include "olden/mem/global_addr.hpp"
#include "olden/mem/heap.hpp"
#include "olden/runtime/future_cell.hpp"
#include "olden/runtime/thread.hpp"
#include "olden/support/cost_model.hpp"
#include "olden/support/min_heap.hpp"
#include "olden/support/require.hpp"
#include "olden/support/stats.hpp"
#include "olden/support/types.hpp"
#include "olden/trace/observer.hpp"

// Sanitizer detection: GCC predefines __SANITIZE_*__, clang answers
// __has_feature. OLDEN_ASAN also makes task.hpp's frame pool poison the
// frames it caches.
#if defined(__SANITIZE_ADDRESS__)
#define OLDEN_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define OLDEN_ASAN 1
#endif
#endif
#ifndef OLDEN_ASAN
#define OLDEN_ASAN 0
#endif
#if defined(__SANITIZE_THREAD__)
#define OLDEN_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define OLDEN_TSAN 1
#endif
#endif
#ifndef OLDEN_TSAN
#define OLDEN_TSAN 0
#endif

// Symmetric transfer relies on the tail call from await_suspend, which
// the compiler emits only when optimizing: sanitizer instrumentation
// defeats it, and an unoptimized (-O0) build never makes it. Without it
// every transfer leaves a host frame behind and unbounded call/return
// chains overflow the host stack. Sanitized and unoptimized builds route
// those resumptions through the front of the ready queue instead (the
// original trampoline scheduling — identical virtual behavior, flat host
// stack).
#if OLDEN_ASAN || OLDEN_TSAN || !defined(__OPTIMIZE__)
#define OLDEN_SYMMETRIC_TRANSFER 0
#else
#define OLDEN_SYMMETRIC_TRANSFER 1
#endif

namespace olden {

namespace fault {
struct FaultSpec;
class FaultPlane;
}  // namespace fault

struct RunConfig {
  ProcId nprocs = 1;
  Coherence scheme = Coherence::kLocalKnowledge;
  CostModel costs;
  /// Optional observability sink (tracing, metrics, cycle accounting).
  /// Instrumentation hooks are no-ops when null, and never perturb
  /// virtual time either way.
  trace::Observer* observer = nullptr;
  /// Optional fault schedule (src/olden/fault/). Null — or a spec whose
  /// `enabled` is false — leaves the wire perfectly reliable. An enabled
  /// spec that injects nothing (`drop=0`) moves no cycle either: the run
  /// is event-for-event the run without a plane.
  /// The spec is copied at construction; the pointer need not outlive it.
  const fault::FaultSpec* faults = nullptr;
  /// Seed for the fault plane's private RNG stream. Workload RNG streams
  /// are separate, so the same program data is computed under any seed.
  std::uint64_t fault_seed = 1;
};

class Machine {
 public:
  /// Throws ConfigError unless `1 <= cfg.nprocs <= kMaxProcs`: nprocs = 0
  /// has no processor 0 to post the root thread on, and anything past
  /// kMaxProcs overflows ProcSet's 64-bit masks and GlobalAddr's 6-bit
  /// processor field.
  explicit Machine(RunConfig cfg);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// The machine the currently-running coroutine belongs to. Coroutine
  /// promises and awaiters reach the runtime through this, the same way an
  /// executor is ambient in most coroutine runtimes.
  ///
  /// Sanitized builds route the thread_local read through a noinline
  /// out-of-line accessor: when the inline TLS load lands inside an
  /// optimized coroutine body, GCC's ASan instrumentation can cache the
  /// address computation across suspension points in the coroutine frame,
  /// and the resumed frame then loads through a junk address (observed as
  /// a UBSan null-load in any -O2 sanitized build). A regular function
  /// re-derives the TLS address on every call, which sidesteps the hazard;
  /// unsanitized builds keep the zero-cost inline read, forced inline: it
  /// runs in every awaiter, and GCC otherwise calls it out of line at -O2.
#if OLDEN_SYMMETRIC_TRANSFER
  [[gnu::always_inline]] static Machine& current() {
    OLDEN_REQUIRE(current_ != nullptr, "no Machine is live");
    return *current_;
  }
#else
  static Machine& current() { return current_outofline(); }
  static Machine& current_outofline();
#endif

  // --- program construction --------------------------------------------

  /// Install the mechanism decision table produced by the heuristic
  /// (indexed by SiteId). Sites not covered default to kCache.
  void set_site_mechanisms(std::vector<Mechanism> table) {
    site_mech_ = std::move(table);
  }
  [[nodiscard]] Mechanism mechanism(SiteId s) const {
    return s < site_mech_.size() ? site_mech_[s] : Mechanism::kCache;
  }

  /// ALLOC: allocate one T on processor `home` (§2). T must be a
  /// trivially-copyable aggregate — the restricted-C object model.
  template <class T>
  GPtr<T> alloc(ProcId home) {
    return alloc_array<T>(home, 1);
  }

  template <class T>
  GPtr<T> alloc_array(ProcId home, std::uint32_t n) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "heap structures must be trivially copyable");
    static_assert(alignof(T) <= kLineBytes);
    const GlobalAddr a = alloc_raw(
        home, n * static_cast<std::uint32_t>(sizeof(T)), alignof(T));
    return GPtr<T>(a);
  }

  GlobalAddr alloc_raw(ProcId home, std::uint32_t size, std::uint32_t align);

  // --- in-thread services (called from coroutines via awaiters) ---------

  /// Charge `c` cycles of computation to the current processor.
  void work(Cycles c) {
    charge_to(cur_proc(), c, trace::CycleBucket::kCompute);
  }

  [[nodiscard]] ProcId cur_proc() const {
    OLDEN_REQUIRE(cur_thread_ != nullptr, "no thread is running");
    return cur_thread_->proc;
  }
  [[nodiscard]] ThreadState* cur_thread() const { return cur_thread_; }
  [[nodiscard]] ProcId nprocs() const { return cfg_.nprocs; }
  [[nodiscard]] const RunConfig& config() const { return cfg_; }
  [[nodiscard]] bool baseline() const { return cfg_.costs.sequential_baseline; }

  /// One heap access at a dereference site, moving sizeof(T) bytes between
  /// `*buf` and `a`. Returns true if the access completed (local, or
  /// satisfied via the software cache); false means the caller must
  /// suspend and the machine will migrate the thread to `a`'s owner (call
  /// `migrate_to(...)` from await_suspend, then `finish_access_local` from
  /// await_resume). This runs once per rd/wr in every simulated program,
  /// so the common cases finish here with a fixed-size copy: a local
  /// access under either mechanism, and a cached read of one valid line on
  /// a resident page no acquire has made suspect. Every other cached
  /// access goes to the chunk loop, which would charge such a hit byte
  /// for byte the same.
  template <class T>
  bool access(GlobalAddr a, T* buf, bool is_write, SiteId site) {
    constexpr std::uint32_t size = sizeof(T);
    OLDEN_REQUIRE(!a.is_null(), "dereference of a null global pointer");
    if (baseline()) {
      charge(1, trace::CycleBucket::kCompute);
      home_copy(a, buf, size, is_write);
      return true;
    }
    const ProcId p = cur_proc();
    charge_to(p, cfg_.costs.pointer_test, trace::CycleBucket::kCompute);
    const bool local = a.proc() == p;
    if (mechanism(site) == Mechanism::kCache) {
      ++(is_write ? stats_.cacheable_writes : stats_.cacheable_reads);
    } else if (!local) {
      return false;  // the awaiter suspends and calls migrate_to()
    } else {
      ++(is_write ? stats_.local_writes : stats_.local_reads);
    }
    if (local) {
      charge_to(p, cfg_.costs.local_access, trace::CycleBucket::kCompute);
      home_copy(a, buf, size, is_write);
      if (is_write) track_write(a, size);
      if (obs_ != nullptr) {
        obs_->profile_access(site, is_write ? profile::AccessClass::kLocalWrite
                                            : profile::AccessClass::kLocalRead);
      }
      return true;
    }
    ++(is_write ? stats_.cacheable_writes_remote
                : stats_.cacheable_reads_remote);
    const std::uint32_t line_off = a.raw() % kLineBytes;
    if (!is_write && line_off + size <= kLineBytes) {
      const SoftwareCache::LookupResult lr =
          procs_[p].cache.lookup(a.page_id());
      const SoftwareCache::PageEntry* e = lr.entry;
      const std::uint32_t line = a.line_in_page();
      if (e != nullptr && !e->suspect && (e->valid & (1u << line)) != 0) {
        charge_to(p, cfg_.costs.cache_lookup, trace::CycleBucket::kCacheStall);
        if (lr.chain_steps > 1) {
          charge_to(p, (lr.chain_steps - 1) * cfg_.costs.cache_chain_step,
                    trace::CycleBucket::kCacheStall);
        }
        std::memcpy(buf, e->frame + line * kLineBytes + line_off, size);
        ++stats_.cache_hits;
        if (obs_ != nullptr) note_hit(p, a.page_id(), site);
        return true;
      }
    }
    cached_access(a, buf, size, is_write, site);  // the chunk loop
    return true;
  }

  /// Begin a forward computation migration of the current thread to
  /// `target`; `h` resumes on arrival. `site` is the dereference site
  /// that forced the move (trace attribution only).
  void migrate_to(ProcId target, std::coroutine_handle<> h,
                  SiteId site = trace::kNoSite);

  /// Complete the access that triggered a migration (now local).
  void finish_access_local(GlobalAddr a, void* buf, std::uint32_t size,
                           bool is_write);

  // --- hooks used by Task / future awaiters ------------------------------

  /// A procedure finished. Routes control onward and returns the handle
  /// the final-suspend awaiter must symmetric-transfer into: the caller
  /// continuation or an inlined future continuation resumes directly
  /// (tail-call, so unbounded call/return chains still keep a flat host
  /// stack), return stubs and remote resolutions go through the event
  /// queue, and the thread retires when nothing continues it — the latter
  /// cases return std::noop_coroutine() to unwind to the scheduler.
  [[nodiscard]] std::coroutine_handle<> on_task_final(
      std::coroutine_handle<> cont, ProcId call_proc, FutureCell* cell);

  /// The observer-side twin of the push_ready a symmetric transfer
  /// bypasses: the handle resumes directly (same processor, same thread,
  /// same clock), but the ready-queue-depth histogram still receives
  /// exactly the sample the queued round trip would have recorded.
  void note_bypassed_push(ProcId p) {
    if (obs_ != nullptr) {
      obs_->record(trace::Hist::kReadyQueueDepth, procs_[p].ready.size() + 1);
    }
  }

  /// Resume `h` next, on this processor, as this thread. Optimized builds
  /// symmetric-transfer (return `h` from await_suspend — the tail call
  /// keeps the host stack flat); sanitized and unoptimized builds, where
  /// that tail call is not made, queue it at the front of the ready queue
  /// instead (see OLDEN_SYMMETRIC_TRANSFER above). The two are
  /// virtually indistinguishable: same processor, same thread, same
  /// clock, and the same ready-queue-depth histogram sample.
  [[nodiscard]] std::coroutine_handle<> transfer_to(std::coroutine_handle<> h) {
    const ProcId p = cur_proc();
#if OLDEN_SYMMETRIC_TRANSFER
    note_bypassed_push(p);
    return h;
#else
    push_ready(p, ReadyItem{h, cur_thread_, procs_[p].clock}, /*front=*/true);
    return std::noop_coroutine();
#endif
  }

  /// futurecall bookkeeping: make a cell, park the caller continuation on
  /// the work list. The caller then symmetric-transfers into `body`.
  FutureCell* make_future_cell(std::coroutine_handle<> caller_cont,
                               std::coroutine_handle<> body);

  /// touch support.
  bool future_ready(FutureCell* cell);  ///< also charges the touch cost
  void block_on_future(FutureCell* cell, std::coroutine_handle<> h);
  /// Called when a touch consumes the value: if the body resolved on a
  /// remote processor, the consuming processor performs an acquire
  /// (coherence event) here.
  void on_touch_consume(FutureCell* cell);
  void destroy_cell(FutureCell* cell);

  /// Subprocedure-call bookkeeping (cheap; charged per call).
  void charge_call() {
    if (!baseline()) charge_to(cur_proc(), 2, trace::CycleBucket::kCompute);
  }

  // --- driving ------------------------------------------------------------

  /// Run the machine until quiescent. The root coroutine must already have
  /// been posted via `post_root` (done by run_program(), see task.hpp).
  void drain();
  void post_root(std::coroutine_handle<> h);
  void note_root_done() { root_done_ = true; }
  [[nodiscard]] bool root_done() const { return root_done_; }

  // --- results -------------------------------------------------------------

  [[nodiscard]] const MachineStats& stats() const { return stats_; }
  [[nodiscard]] Cycles makespan() const;
  [[nodiscard]] double seconds() const { return cycles_to_seconds(makespan()); }
  [[nodiscard]] Cycles proc_clock(ProcId p) const { return procs_[p].clock; }
  [[nodiscard]] const SoftwareCache& cache_of(ProcId p) const {
    return procs_[p].cache;
  }
  [[nodiscard]] std::uint64_t threads_created() const { return next_thread_id_; }
  [[nodiscard]] std::uint64_t cells_live() const { return cells_live_; }
  /// Cells the machine ever made, live or free (test introspection).
  [[nodiscard]] std::size_t cells_created() const { return cells_.size(); }

  /// A timing checkpoint: makespan so far. Benchmarks call this between
  /// their build and kernel phases so Table 2 can report kernel-only times.
  [[nodiscard]] Cycles now_max() const { return makespan(); }

 private:
  struct ReadyItem {
    std::coroutine_handle<> h;
    ThreadState* thread = nullptr;
    Cycles time = 0;
  };

  struct Proc {
    Cycles clock = 0;
    SoftwareCache cache;
    std::deque<ReadyItem> ready;
    /// The work list: exactly the untaken continuations of the cells made
    /// here, oldest first, linked through FutureCell::prev/next.
    FutureCell* work_head = nullptr;
    FutureCell* work_tail = nullptr;
    std::uint32_t work_length = 0;
  };

  /// Inter-processor message kinds on the discrete-event wire (distinct
  /// from trace::EventKind, the observability vocabulary). Fills, push
  /// invalidations and timestamp checks complete inline and never become
  /// events, fault plane or not.
  enum class MsgKind : std::uint8_t {
    kMigrationArrive,
    kReturnArrive,
    kResolveFuture,
  };

  struct Event {
    Cycles time = 0;
    std::uint64_t seq = 0;
    MsgKind kind = MsgKind::kMigrationArrive;
    ProcId target = 0;
    std::coroutine_handle<> h;
    ThreadState* thread = nullptr;
    FutureCell* cell = nullptr;

    friend bool operator>(const Event& a, const Event& b) {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// RunConfig sanity gate, run before any member that sizes itself by
  /// nprocs is constructed. Throws ConfigError on violation.
  static RunConfig validated(RunConfig cfg);

  void schedule(Event e);
  void apply(const Event& e);
  /// Route a payload message onto the wire: `schedule(e)`, after a fault
  /// plane, if any, has made `e.time` later by what the loss cost (see
  /// FaultPlane::one_way). `wire` is the fault-free transit latency
  /// already folded into `e.time`; `src` is the sending processor.
  void send_message(ProcId src, Cycles wire, Event e);
  void run_ready(ProcId p);
  void resume_on(ProcId p, std::coroutine_handle<> h, ThreadState* t);

  ThreadState* new_thread(ProcId p);

  /// Advance processor `p`'s clock, attributing the cycles to an
  /// accounting bucket when an observer is installed. Every clock
  /// increment the machine makes goes through here (or the `charge`
  /// current-processor shorthand), so the per-processor breakdown is
  /// exhaustive by construction. Runs several times per heap access, so
  /// the observer half stays out of line and this inlines to a clock add.
  void charge_to(ProcId p, Cycles c, trace::CycleBucket b) {
    procs_[p].clock += c;
    if (obs_ != nullptr) account(p, c, b);
  }
  /// The observer half of charge_to, after the clock advanced.
  void account(ProcId p, Cycles c, trace::CycleBucket b);
  void charge(Cycles c, trace::CycleBucket b) { charge_to(cur_proc(), c, b); }

  /// Emit a trace event stamped with processor `p`'s current clock,
  /// threaded into thread `t`'s causal chain: the event's parent is the
  /// thread's previous event (or a one-shot override installed by whatever
  /// woke the thread), and the thread's chain cursor advances to the new
  /// event. Returns the event id (trace::kNoEvent with no observer), so
  /// call sites can store it as a future parent (departures, future
  /// creation/resolution).
  std::uint64_t note_event(trace::EventKind k, ProcId p, ThreadState* t,
                           SiteId site = trace::kNoSite, std::uint64_t a0 = 0,
                           std::uint64_t a1 = 0) {
    if (obs_ == nullptr) return trace::kNoEvent;
    std::uint64_t chain = trace::kNoChain;
    std::uint64_t parent = trace::kNoEvent;
    if (t != nullptr) {
      chain = t->obs_chain;
      parent = t->obs_last_event;
      if (t->obs_next_parent != trace::kNoEvent) {
        parent = t->obs_next_parent;
        t->obs_next_parent = trace::kNoEvent;
      }
    }
    const std::uint64_t id =
        obs_->event(k, procs_[p].clock, p, t != nullptr ? t->id : trace::kNoThread,
                    site, a0, a1, chain, parent);
    if (t != nullptr) t->obs_last_event = id;
    return id;
  }

  /// Enqueue a runnable item, sampling the ready-queue depth.
  void push_ready(ProcId p, ReadyItem it, bool front = false) {
    auto& q = procs_[p].ready;
    if (front) {
      q.push_front(it);
    } else {
      q.push_back(it);
    }
    if (obs_ != nullptr) {
      obs_->record(trace::Hist::kReadyQueueDepth, q.size());
    }
  }

  // coherence protocol actions
  void on_release(ThreadState& t);  ///< departing migration / remote resolve
  /// Invalidate `mask` lines of `page` in sharer `s`'s cache, sent by the
  /// releasing thread `t` from its processor; the receive side hangs off
  /// the thread's chain and current event. The cache and directory change
  /// here, host-synchronously, so checksums cannot depend on the wire; a
  /// fault plane only makes the writer wait longer for the ack.
  void invalidate_sharer(ThreadState& t, ProcId s, std::uint32_t page,
                         std::uint32_t mask, HomePageInfo& info);
  /// Acquire on `p` for thread `t` (trace attribution; may be null).
  /// writers == null => full flush.
  void on_acquire(ProcId p, const ProcSet* writers, ThreadState* t);
  /// Compiler-inserted write tracking (Appendix A): log the dirtied lines
  /// and charge 7 or 23 instructions depending on whether the page is
  /// shared. The home's directory entry also learns the dirty lines (the
  /// write-through message carries them). Inline: runs on every tracked
  /// write, and the common case is a single line.
  void track_write(GlobalAddr a, std::uint32_t size) {
    ThreadState& t = *cur_thread_;
    t.written.add(a.proc());
    if (!tracks_writes(cfg_.scheme)) return;
    std::uint32_t done = 0;
    while (done < size) {
      const GlobalAddr cur = a.plus(done);
      const std::uint32_t line_off = cur.raw() % kLineBytes;
      const std::uint32_t chunk = std::min(size - done, kLineBytes - line_off);
      HomePageInfo& info = directory_.page(cur.page_id());
      charge_to(t.proc,
                info.shared ? cfg_.costs.write_track_shared
                            : cfg_.costs.write_track_unshared,
                trace::CycleBucket::kCoherence);
      ++stats_.tracked_writes;
      const std::uint32_t mask = 1u << cur.line_in_page();
      t.write_log.record(cur.page_id(), mask);
      info.dirty_since_bump |= mask;
      done += chunk;
    }
  }

  /// The observer half of access()'s inline read hit, in the chunk loop's
  /// order: page heat, then the hit event.
  void note_hit(ProcId p, std::uint32_t page_id, SiteId site);
  /// The chunk loop: the one engine for every cached access access() does
  /// not finish inline, one line-sized chunk at a time, epilogue included.
  /// Each line fill and bilateral timestamp check is a blocking round trip
  /// to the line's home (see machine.cpp).
  void cached_access(GlobalAddr a, void* buf, std::uint32_t size,
                     bool is_write, SiteId site);
  /// Fill the line holding `cur` into processor `p`'s page `entry` from
  /// the home and register the sharer.
  void complete_fill(ProcId p, SoftwareCache::PageEntry& entry,
                     GlobalAddr cur, SiteId site);
  /// Validate processor `p`'s suspect page `entry` against the home
  /// version.
  void complete_ts_check(ProcId p, SoftwareCache::PageEntry& entry);
  void home_copy(GlobalAddr a, void* buf, std::uint32_t size, bool is_write) {
    std::byte* home = heap_.home_ptr(a, size);
    if (is_write) {
      std::memcpy(home, buf, size);
    } else {
      std::memcpy(buf, home, size);
    }
  }
  void resolve_future_at_home(FutureCell* cell);
  /// Wake the thread blocked touching the just-resolved `cell`, if any, at
  /// its home's clock. The wake crosses threads: the waiter's next event is
  /// caused by the resolve, not by whatever the waiter last did.
  void wake_waiter(FutureCell* cell);
  /// Take `cell`'s continuation off its home's work list: an idle steal
  /// pops it from the head, or the body's inline return unlinks it from
  /// wherever it stands.
  void take(FutureCell* cell) {
    cell->taken = true;
    Proc& pr = procs_[cell->home];
    (cell->prev != nullptr ? cell->prev->next : pr.work_head) = cell->next;
    (cell->next != nullptr ? cell->next->prev : pr.work_tail) = cell->prev;
    --pr.work_length;
  }

  RunConfig cfg_;
  DistHeap heap_;
  std::vector<Proc> procs_;
  CoherenceDirectory directory_;
  std::vector<Mechanism> site_mech_;

  MinHeap<Event> events_;
  std::uint64_t next_seq_ = 0;

  std::deque<ThreadState> threads_;  // stable addresses
  ThreadState* cur_thread_ = nullptr;
  ThreadId next_thread_id_ = 0;
  bool root_done_ = false;
  std::uint64_t cells_live_ = 0;
  /// Every FutureCell the machine made (stable addresses, so the work
  /// lists can link them), and the ones a touch freed, reused last-in
  /// first-out by the next futurecall.
  std::deque<FutureCell> cells_;
  std::vector<FutureCell*> free_cells_;

  MachineStats stats_;
  trace::Observer* obs_ = nullptr;
  /// Present only when RunConfig carried an enabled fault spec.
  std::unique_ptr<fault::FaultPlane> fault_;

  Machine* prev_machine_ = nullptr;
  /// thread_local so independent Machines can run on separate host
  /// threads (bench_cell/host_perf --jobs); the save/restore pair in the
  /// ctor/dtor still supports nested Machines within one thread. Defined
  /// here, constant-initialized, so a read needs no TLS init guard.
  static inline thread_local Machine* current_ = nullptr;

  friend class fault::FaultPlane;
};

}  // namespace olden
