#include "olden/runtime/machine.hpp"

#include <algorithm>
#include <bit>

#include "olden/fault/fault_plane.hpp"
#include "olden/runtime/task.hpp"

namespace olden {

using trace::CycleBucket;
using trace::EventKind;

#if !OLDEN_SYMMETRIC_TRANSFER
// See the header comment on current(): noinline keeps the TLS address
// computation out of coroutine frames in sanitized builds.
[[gnu::noinline]] Machine& Machine::current_outofline() {
  OLDEN_REQUIRE(current_ != nullptr, "no Machine is live");
  return *current_;
}
#endif

RunConfig Machine::validated(RunConfig cfg) {
  if (cfg.nprocs < 1 || cfg.nprocs > kMaxProcs) {
    throw ConfigError("nprocs must be in [1, " + std::to_string(kMaxProcs) +
                      "], got " + std::to_string(cfg.nprocs));
  }
  return cfg;
}

Machine::Machine(RunConfig cfg)
    // validated() runs before heap_/procs_ size themselves by nprocs.
    : cfg_(validated(cfg)),
      heap_(cfg.nprocs),
      procs_(cfg.nprocs),
      obs_(cfg.observer) {
  prev_machine_ = current_;
  current_ = this;
  detail::FramePool::machine_opened();
  events_.reserve(256);
  if (cfg_.faults != nullptr && cfg_.faults->enabled) {
    fault_ = std::make_unique<fault::FaultPlane>(*cfg_.faults, cfg_.fault_seed);
  }
  if (obs_ != nullptr) obs_->attach(cfg_);
}

Machine::~Machine() {
  // A touch destroys its cell's body, so a body still held belongs to a
  // cell resolved but never touched, or (under fault injection + watchdog
  // abort) to one whose body never finished.
  for (FutureCell& cell : cells_) {
    if (cell.body) cell.body.destroy();
  }
  current_ = prev_machine_;
  detail::FramePool::machine_closed();  // after the cell bodies above
}

[[gnu::noinline]] void Machine::account(ProcId p, Cycles c, CycleBucket b) {
  obs_->account(p, c, b);
}

[[gnu::noinline]] void Machine::note_hit(ProcId p, std::uint32_t page_id,
                                         SiteId site) {
  obs_->touch_page(p, page_id);
  note_event(EventKind::kCacheHit, p, cur_thread_, site, page_id);
}

GlobalAddr Machine::alloc_raw(ProcId home, std::uint32_t size,
                              std::uint32_t align) {
  if (cur_thread_ != nullptr && !baseline()) {
    charge(home == cur_proc() ? cfg_.costs.alloc_local
                              : cfg_.costs.alloc_remote,
           CycleBucket::kCompute);
    if (home != cur_proc()) {
      charge_to(home, cfg_.costs.remote_handler, CycleBucket::kCompute);
    }
  }
  ++stats_.allocations;
  stats_.bytes_allocated += size;
  return heap_.allocate(home, size, align);
}

// ---------------------------------------------------------------------------
// Heap access
// ---------------------------------------------------------------------------

void Machine::finish_access_local(GlobalAddr a, void* buf, std::uint32_t size,
                                  bool is_write) {
  OLDEN_REQUIRE(a.proc() == cur_proc(), "migration landed on the wrong node");
  if (is_write) {
    ++stats_.local_writes;
  } else {
    ++stats_.local_reads;
  }
  charge(cfg_.costs.local_access, CycleBucket::kCompute);
  home_copy(a, buf, size, is_write);
  if (is_write) track_write(a, size);
}

// ---------------------------------------------------------------------------
// The chunk loop
//
// Every cached access access() does not finish inline runs here, one chunk
// (the part of the access inside one line) at a time. A chunk needs at
// most two round trips to the line's home: a bilateral timestamp check
// when its page is suspect, and a line fill on a read miss. Each is the
// paper's synchronous active-message miss: the requester blocks and pays
// a fixed charge, and the home's handler steals cycles from its own
// thread. A fault plane decides the round trip's fate when it is sent;
// the requester then also waits out whatever the loss cost, in its retry
// bucket. All cache and directory mutation happens requester-side,
// host-atomic with the data copy.
// ---------------------------------------------------------------------------

void Machine::cached_access(GlobalAddr a, void* buf, std::uint32_t size,
                            bool is_write, SiteId site) {
  ThreadState& t = *cur_thread_;
  const ProcId p = t.proc;
  Proc& pr = procs_[p];
  auto* user = static_cast<std::byte*>(buf);
  std::uint64_t lines_fetched = 0;  // nonzero makes the access a miss
  bool any_check = false;
  Cycles stall_cycles = 0;  // the miss-fill histogram sample
  for (std::uint32_t done = 0; done < size;) {
    const GlobalAddr cur = a.plus(done);
    const std::uint32_t line_off = cur.raw() % kLineBytes;
    const std::uint32_t chunk = std::min(size - done, kLineBytes - line_off);
    const std::uint32_t page_id = cur.page_id();
    const std::uint32_t line = cur.line_in_page();
    const std::uint32_t bit = 1u << line;
    const ProcId home = page_home(page_id);

    // Translation-table lookup (Figure 1), charged once per chunk.
    auto lr = pr.cache.lookup(page_id);
    charge_to(p, cfg_.costs.cache_lookup, CycleBucket::kCacheStall);
    if (lr.chain_steps > 1) {
      charge_to(p, (lr.chain_steps - 1) * cfg_.costs.cache_chain_step,
                CycleBucket::kCacheStall);
    }
    SoftwareCache::PageEntry* e = lr.entry;
    if (e == nullptr) {
      e = &pr.cache.create_page(page_id);  // the lookup just missed
      charge_to(p, cfg_.costs.page_alloc, CycleBucket::kCacheStall);
      ++stats_.pages_cached;
    }

    if (e->suspect) {  // only the bilateral acquire marks a page suspect
      ++stats_.timestamp_checks;
      any_check = true;
      const Cycles late =
          fault_ == nullptr
              ? 0
              : fault_->round_trip(*this, MsgClass::kTsCheck, p, home, t);
      charge_to(p, cfg_.costs.timestamp_check, CycleBucket::kCoherence);
      charge_to(home, cfg_.costs.remote_handler, CycleBucket::kCoherence);
      charge_to(p, late, CycleBucket::kRetry);
      complete_ts_check(p, *e);
    }

    if (!is_write && (e->valid & bit) == 0) {
      // Line miss: fetch 64 bytes from the home.
      ++lines_fetched;
      const Cycles late =
          fault_ == nullptr
              ? 0
              : fault_->round_trip(*this, MsgClass::kFill, p, home, t);
      stall_cycles += cfg_.costs.cache_miss + late;
      charge_to(p, cfg_.costs.cache_miss, CycleBucket::kCacheStall);
      charge_to(home, cfg_.costs.remote_handler, CycleBucket::kCacheStall);
      charge_to(p, late, CycleBucket::kRetry);
      complete_fill(p, *e, cur, site);
    }

    if (is_write) {
      // Write-through, no-allocate, host-synchronous: the home always
      // gets the bytes at once (never via the lossy wire), and a valid
      // cached line is updated in place.
      std::memcpy(heap_.home_ptr(cur, chunk), user + done, chunk);
      if ((e->valid & bit) != 0) {  // valid line => frame present
        std::memcpy(e->frame + line * kLineBytes + line_off, user + done,
                    chunk);
      }
    } else {
      std::memcpy(user + done, e->frame + line * kLineBytes + line_off,
                  chunk);
    }
    done += chunk;
  }

  if (obs_ != nullptr) obs_->touch_page(p, a.page_id());
  if (is_write) {
    charge_to(p, cfg_.costs.remote_write, CycleBucket::kCacheStall);
    charge_to(a.proc(), cfg_.costs.remote_handler, CycleBucket::kCacheStall);
    if (any_check) ++stats_.timestamp_stalls;
    track_write(a, size);
    if (obs_ != nullptr) {
      obs_->profile_access(site, profile::AccessClass::kWriteThrough);
    }
  } else if (lines_fetched > 0) {
    ++stats_.cache_misses;
    note_event(EventKind::kCacheMiss, p, &t, site, a.page_id(),
               lines_fetched);
    if (obs_ != nullptr) {
      obs_->record(trace::Hist::kMissFillCycles, stall_cycles);
    }
  } else {
    ++stats_.cache_hits;
    if (any_check) ++stats_.timestamp_stalls;
    note_event(EventKind::kCacheHit, p, &t, site, a.page_id());
  }
}

void Machine::complete_fill(ProcId p, SoftwareCache::PageEntry& entry,
                            GlobalAddr cur, SiteId site) {
  const std::uint32_t line = cur.line_in_page();
  const GlobalAddr line_base(
      (cur.raw() / kLineBytes) * static_cast<std::uint32_t>(kLineBytes));
  std::memcpy(procs_[p].cache.ensure_frame(entry) + line * kLineBytes,
              heap_.line_home(line_base), kLineBytes);
  HomePageInfo& info = directory_.page(cur.page_id());
  info.sharers.add(p);
  info.shared = true;
  if (cfg_.scheme == Coherence::kBilateral && entry.version != info.version) {
    // The fill reply carries the home's current timestamp. Before
    // adopting it, drop the lines the version advance invalidated —
    // stamping alone would hide genuinely stale lines from the next
    // suspect check (the page's version is page-grain, its lines are
    // not).
    const std::uint32_t stale =
        stale_line_mask(info, entry.version, entry.valid);
    entry.valid &= ~stale;
    stats_.lines_invalidated +=
        static_cast<std::uint64_t>(std::popcount(stale));
    entry.version = info.version;
  }
  entry.valid |= 1u << line;
  note_event(EventKind::kCacheLineFill, p, cur_thread_, site, cur.page_id(),
             line);
}

void Machine::complete_ts_check(ProcId p, SoftwareCache::PageEntry& entry) {
  const HomePageInfo& info = directory_.page(entry.page_id);
  const std::uint32_t stale = stale_line_mask(info, entry.version, entry.valid);
  const std::uint64_t dropped =
      static_cast<std::uint64_t>(std::popcount(stale));
  entry.valid &= ~stale;
  stats_.lines_invalidated += dropped;
  entry.version = info.version;
  entry.suspect = false;
  note_event(EventKind::kTimestampCheck, p, cur_thread_, trace::kNoSite,
             entry.page_id, dropped);
}

// ---------------------------------------------------------------------------
// Coherence protocol events
// ---------------------------------------------------------------------------

void Machine::on_release(ThreadState& t) {
  if (!tracks_writes(cfg_.scheme) || t.write_log.empty()) {
    t.write_log.clear();
    return;
  }
  const ProcId src = t.proc;
  if (cfg_.scheme == Coherence::kEagerGlobal) {
    // Push line-grain invalidations to every sharer of each dirtied page
    // and collect (implicit) acknowledgements before the migration leaves.
    t.write_log.for_each([&](std::uint32_t page, std::uint32_t mask) {
      const ProcId home = page_home(page);
      if (home != src) {
        charge_to(src, cfg_.costs.invalidate_send, CycleBucket::kCoherence);
        charge_to(home, cfg_.costs.remote_handler, CycleBucket::kCoherence);
      }
      HomePageInfo& info = directory_.page(page);
      // for_each iterates a snapshot of the set, so pruning mid-loop is
      // safe. The pushes hang off the thread's current event as siblings.
      info.sharers.for_each([&](ProcId s) {
        if (s == src) return;  // the writer's own copy was updated in place
        invalidate_sharer(t, s, page, mask, info);
      });
      info.dirty_since_bump = 0;
    });
  } else {  // bilateral
    // Bump the home version of every written page; no sharer fan-out.
    t.write_log.for_each([&](std::uint32_t page, std::uint32_t mask) {
      const ProcId home = page_home(page);
      if (home != src) {
        charge_to(src, cfg_.costs.invalidate_send, CycleBucket::kCoherence);
        charge_to(home, cfg_.costs.remote_handler, CycleBucket::kCoherence);
      }
      HomePageInfo& info = directory_.page(page);
      info.version += 1;
      info.last_released = info.dirty_since_bump | mask;
      info.dirty_since_bump = 0;
    });
  }
  t.write_log.clear();
}

void Machine::invalidate_sharer(ThreadState& t, ProcId s, std::uint32_t page,
                                std::uint32_t mask, HomePageInfo& info) {
  const ProcId from = t.proc;
  ++stats_.invalidation_messages;
  charge_to(from, cfg_.costs.invalidate_send, CycleBucket::kCoherence);
  const SoftwareCache::InvalidateResult inv =
      procs_[s].cache.invalidate_lines(page, mask);
  stats_.lines_invalidated += inv.dropped;
  if (inv.remaining == 0) {
    // The sharer no longer holds a single valid line of this page (or
    // never cached it): stop pushing invalidations its way. It
    // re-registers on its next line fill. Without this, sharer sets only
    // grow and long runs invalidate fully-stale copies forever.
    info.sharers.remove(s);
  }
  // The writer collects the sharer's ack before it moves on; a fault
  // plane makes it wait out whatever the loss cost.
  const Cycles late =
      fault_ == nullptr
          ? 0
          : fault_->round_trip(*this, MsgClass::kInvalidate, from, s, t);
  charge_to(s, cfg_.costs.invalidate_recv, CycleBucket::kCoherence);
  if (obs_ != nullptr) {
    obs_->event(EventKind::kLineInvalidate, procs_[s].clock, s, t.id,
                trace::kNoSite, page, inv.dropped, t.obs_chain,
                t.obs_last_event);
  }
  charge_to(from, late, CycleBucket::kRetry);
}

void Machine::on_acquire(ProcId p, const ProcSet* writers, ThreadState* t) {
  switch (cfg_.scheme) {
    case Coherence::kLocalKnowledge: {
      ++stats_.cache_flushes;
      std::uint64_t dropped = 0;
      if (writers != nullptr) {
        dropped = procs_[p].cache.invalidate_from_procs(*writers);
      } else {
        dropped = procs_[p].cache.invalidate_all();
      }
      stats_.lines_invalidated += dropped;
      note_event(EventKind::kCacheFlush, p, t, trace::kNoSite, dropped);
      break;
    }
    case Coherence::kEagerGlobal:
      break;  // invalidations were pushed at the matching release
    case Coherence::kBilateral:
      procs_[p].cache.mark_all_suspect();
      note_event(EventKind::kMarkSuspect, p, t, trace::kNoSite,
                 procs_[p].cache.pages_live());
      break;
  }
}

// ---------------------------------------------------------------------------
// Migration
// ---------------------------------------------------------------------------

void Machine::migrate_to(ProcId target, std::coroutine_handle<> h,
                         SiteId site) {
  ThreadState* t = cur_thread_;
  OLDEN_REQUIRE(target != t->proc, "migration to the current processor");
  ++stats_.migrations;
  on_release(*t);
  Proc& src = procs_[t->proc];
  if (obs_ != nullptr) {
    t->obs_depart_time = src.clock;
    t->obs_depart_proc = t->proc;
  }
  charge_to(t->proc, cfg_.costs.migration_send, CycleBucket::kMigration);
  t->obs_depart_event =
      note_event(EventKind::kMigrationDepart, t->proc, t, site, target);
  send_message(t->proc, cfg_.costs.migration_wire,
               Event{.time = src.clock + cfg_.costs.migration_wire,
                     .seq = next_seq_++,
                     .kind = MsgKind::kMigrationArrive,
                     .target = target,
                     .h = h,
                     .thread = t});
}

std::coroutine_handle<> Machine::on_task_final(std::coroutine_handle<> cont,
                                               ProcId call_proc,
                                               FutureCell* cell) {
  ThreadState* t = cur_thread_;
  if (cell != nullptr) {
    // A future body finished.
    if (t->proc == cell->home) {
      if (!cell->taken) {
        // Lazy task creation pay-off: nothing migrated the body away from
        // this processor for long enough for the continuation to be
        // stolen — pop it and continue as the same thread, directly. The
        // write log stays with the thread: the continuation inherits it
        // and releases the merged log at its own next release point.
        cell->resolved = true;
        cell->writer_written = t->written;
        cell->obs_resolve_event = note_event(
            EventKind::kFutureResolve, t->proc, t, trace::kNoSite,
            cell->serial, 0);
        take(cell);
        ++stats_.futures_inlined;
        return transfer_to(cell->cont);
      }
      // The body ran as its own thread (the continuation was stolen) and
      // retires here. Resolution is a release point: the waiter may be on
      // another processor, so the write log must be drained — eager pushes
      // / bilateral version bumps — before the resolve becomes visible.
      // Without this the log dies with the thread and remote caches keep
      // stale lines forever.
      on_release(*t);
      cell->resolved = true;
      cell->writer_written = t->written;
      cell->obs_resolve_event = note_event(EventKind::kFutureResolve, t->proc,
                                           t, trace::kNoSite, cell->serial, 0);
      wake_waiter(cell);
      return std::noop_coroutine();  // this thread retires
    }
    // Remote completion: the resolution message is a release.
    on_release(*t);
    cell->resolved_remotely = true;
    cell->writer_written = t->written;
    Proc& src = procs_[t->proc];
    charge_to(t->proc, cfg_.costs.future_resolve_msg, CycleBucket::kMigration);
    cell->obs_resolve_event = note_event(EventKind::kFutureResolve, t->proc, t,
                                         trace::kNoSite, cell->serial, 1);
    send_message(t->proc, 0,
                 Event{.time = src.clock,
                       .seq = next_seq_++,
                       .kind = MsgKind::kResolveFuture,
                       .target = cell->home,
                       .h = nullptr,
                       .thread = nullptr,
                       .cell = cell});
    return std::noop_coroutine();  // this thread retires
  }

  if (cont == nullptr) {
    note_root_done();
    return std::noop_coroutine();
  }

  if (t->proc != call_proc) {
    // Return stub (§3.1): send registers + return address back to the
    // caller's processor; the frame stays behind.
    ++stats_.return_migrations;
    on_release(*t);
    Proc& src = procs_[t->proc];
    if (obs_ != nullptr) {
      t->obs_depart_time = src.clock;
      t->obs_depart_proc = t->proc;
    }
    charge_to(t->proc, cfg_.costs.return_send, CycleBucket::kMigration);
    t->obs_depart_event = note_event(EventKind::kReturnStubSend, t->proc, t,
                                     trace::kNoSite, call_proc);
    send_message(t->proc, cfg_.costs.return_wire,
                 Event{.time = src.clock + cfg_.costs.return_wire,
                       .seq = next_seq_++,
                       .kind = MsgKind::kReturnArrive,
                       .target = call_proc,
                       .h = cont,
                       .thread = t});
    return std::noop_coroutine();
  }
  // Plain local return: transfer straight into the caller (same processor,
  // same thread, same clock — the queued round trip would change nothing).
  return transfer_to(cont);
}

// ---------------------------------------------------------------------------
// Futures
// ---------------------------------------------------------------------------

FutureCell* Machine::make_future_cell(std::coroutine_handle<> caller_cont,
                                      std::coroutine_handle<> body) {
  ++stats_.futurecalls;
  const ProcId p = cur_proc();
  charge_to(p, cfg_.costs.future_call, CycleBucket::kCompute);
  FutureCell* cell;
  if (free_cells_.empty()) {
    cell = &cells_.emplace_back();
  } else {
    cell = free_cells_.back();
    free_cells_.pop_back();
  }
  // Field by field, what a lifecycle reads before it writes: the waiter
  // is null again once woken, and the rest is written at resolution.
  cell->home = p;
  cell->resolved = false;
  cell->taken = false;
  cell->resolved_remotely = false;
  cell->serial = stats_.futurecalls;
  cell->body = body;
  cell->cont = caller_cont;
  ++cells_live_;
  Proc& pr = procs_[p];
  cell->prev = pr.work_tail;
  cell->next = nullptr;
  (pr.work_tail != nullptr ? pr.work_tail->next : pr.work_head) = cell;
  pr.work_tail = cell;
  ++pr.work_length;
  cell->obs_create_event = note_event(EventKind::kFutureCreate, p,
                                      cur_thread_, trace::kNoSite, cell->serial);
  if (obs_ != nullptr) {
    obs_->record(trace::Hist::kWorklistDepth, pr.work_length);
  }
  return cell;
}

bool Machine::future_ready(FutureCell* cell) {
  charge(cfg_.costs.future_touch, CycleBucket::kCompute);
  return cell->resolved;
}

void Machine::block_on_future(FutureCell* cell, std::coroutine_handle<> h) {
  OLDEN_REQUIRE(!cell->waiter, "a future may be touched only once");
  ++stats_.touches_blocked;
  cell->waiter = h;
  cell->waiter_thread = cur_thread_;
  cell->waiter_proc = cur_proc();
  note_event(EventKind::kTouchBlock, cur_proc(), cur_thread_,
             trace::kNoSite, cell->serial);
}

void Machine::on_touch_consume(FutureCell* cell) {
  if (baseline()) return;
  if (cell->resolved_remotely) {
    on_acquire(cur_proc(), &cell->writer_written, cur_thread_);
  }
  // The toucher now carries responsibility for the body's writes: its own
  // later return-stub / resolution invalidations must cover them, or a
  // grandparent could read stale lines the grandchild wrote.
  if (cur_thread() != nullptr) {
    ProcSet merged = cur_thread()->written;
    cell->writer_written.for_each([&](ProcId p) { merged.add(p); });
    cur_thread()->written = merged;
  }
}

void Machine::destroy_cell(FutureCell* cell) {
  OLDEN_REQUIRE(cell->resolved, "destroying an unresolved future");
  cell->body.destroy();
  cell->body = nullptr;
  --cells_live_;
  // Resolved implies taken, so the cell is on no work list.
  free_cells_.push_back(cell);
}

void Machine::resolve_future_at_home(FutureCell* cell) {
  // The body left home, so home went idle and stole the continuation
  // before drain() applied this message: drain() applies an event only
  // after every run_ready has returned, and run_ready returns only once
  // its work list is empty.
  OLDEN_REQUIRE(cell->taken,
                "a future resolution arrived before its continuation was "
                "stolen: drain() applied an event while a work list still "
                "held an untaken continuation");
  charge_to(cell->home, cfg_.costs.remote_handler, CycleBucket::kMigration);
  cell->resolved = true;
  wake_waiter(cell);
}

void Machine::wake_waiter(FutureCell* cell) {
  if (!cell->waiter) return;
  const auto waiter = cell->waiter;
  cell->waiter = nullptr;
  cell->waiter_thread->obs_next_parent = cell->obs_resolve_event;
  push_ready(cell->waiter_proc,
             ReadyItem{waiter, cell->waiter_thread, procs_[cell->home].clock});
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

ThreadState* Machine::new_thread(ProcId p) {
  threads_.emplace_back();
  ThreadState& t = threads_.back();
  t.id = next_thread_id_++;
  t.proc = p;
  // Every thread opens a fresh causal chain (thread lineage). Observability
  // only: chain ids never feed back into scheduling or costs.
  if (obs_ != nullptr) t.obs_chain = obs_->new_chain();
  return &t;
}

void Machine::post_root(std::coroutine_handle<> h) {
  ThreadState* t = new_thread(0);
  push_ready(0, ReadyItem{h, t, 0});
}

void Machine::schedule(Event e) { events_.push(std::move(e)); }

void Machine::send_message(ProcId src, Cycles wire, Event e) {
  // The one event the wire carries with or without a plane, landing late
  // by whatever the loss cost.
  if (fault_ != nullptr) e.time += fault_->one_way(*this, src, wire, e);
  schedule(std::move(e));
}

void Machine::apply(const Event& e) {
  switch (e.kind) {
    case MsgKind::kMigrationArrive: {
      e.thread->proc = e.target;
      charge_to(e.target, cfg_.costs.migration_recv, CycleBucket::kMigration);
      if (obs_ != nullptr) {
        const Cycles latency = e.time - e.thread->obs_depart_time;
        // The arrive's causal parent is the matching depart: that edge is
        // the migration transit the critical path charges to kMigration.
        e.thread->obs_last_event = obs_->event(
            EventKind::kMigrationArrive, e.time, e.target, e.thread->id,
            trace::kNoSite, e.thread->obs_depart_proc, latency,
            e.thread->obs_chain, e.thread->obs_depart_event);
        obs_->record(trace::Hist::kMigrationLatency, latency);
      }
      on_acquire(e.target, nullptr, e.thread);
      push_ready(e.target, ReadyItem{e.h, e.thread, e.time});
      break;
    }
    case MsgKind::kReturnArrive: {
      e.thread->proc = e.target;
      charge_to(e.target, cfg_.costs.return_recv, CycleBucket::kMigration);
      if (obs_ != nullptr) {
        const Cycles latency = e.time - e.thread->obs_depart_time;
        e.thread->obs_last_event = obs_->event(
            EventKind::kReturnStubArrive, e.time, e.target, e.thread->id,
            trace::kNoSite, e.thread->obs_depart_proc, latency,
            e.thread->obs_chain, e.thread->obs_depart_event);
        obs_->record(trace::Hist::kReturnLatency, latency);
      }
      on_acquire(e.target, &e.thread->written, e.thread);
      e.thread->written.clear();
      push_ready(e.target, ReadyItem{e.h, e.thread, e.time});
      break;
    }
    case MsgKind::kResolveFuture: {
      resolve_future_at_home(e.cell);
      break;
    }
  }
}

void Machine::resume_on(ProcId p, std::coroutine_handle<> h, ThreadState* t) {
  OLDEN_REQUIRE(t->proc == p, "thread resumed on the wrong processor");
  ThreadState* prev = cur_thread_;
  cur_thread_ = t;
  h.resume();
  cur_thread_ = prev;
}

void Machine::run_ready(ProcId p) {
  Proc& pr = procs_[p];
  for (;;) {
    if (!pr.ready.empty()) {
      ReadyItem it = pr.ready.front();
      pr.ready.pop_front();
      if (it.time > pr.clock) {
        // The processor sat idle until the item's arrival time.
        if (obs_ != nullptr) {
          obs_->account(p, it.time - pr.clock, CycleBucket::kIdle);
        }
        pr.clock = it.time;
      }
      resume_on(p, it.h, it.thread);
      continue;
    }
    // Idle: future stealing — pop the oldest untaken continuation (oldest
    // first gives the largest-granularity task, as in lazy task creation).
    FutureCell* cell = pr.work_head;
    if (cell == nullptr) break;
    take(cell);
    charge_to(p, cfg_.costs.future_steal, CycleBucket::kCompute);
    ThreadState* nt = new_thread(p);
    ++stats_.futures_stolen;
    // A steal is enabled by the futurecall that linked the cell in.
    nt->obs_next_parent = cell->obs_create_event;
    note_event(EventKind::kFutureSteal, p, nt, trace::kNoSite, cell->serial);
    resume_on(p, cell->cont, nt);
  }
}

void Machine::drain() {
  for (;;) {
    bool ran = false;
    for (ProcId p = 0; p < cfg_.nprocs; ++p) {
      const Proc& pr = procs_[p];
      if (!pr.ready.empty() || pr.work_head != nullptr) {
        run_ready(p);
        ran = true;
      }
    }
    // A retry-cap trip recorded while those threads ran surfaces here,
    // between events: a throw from inside a coroutine would terminate.
    if (fault_ != nullptr) fault_->check_watchdog();
    if (!events_.empty()) {
      apply(events_.pop_min());
      continue;
    }
    if (!ran) break;
  }
  OLDEN_REQUIRE(root_done_, "machine quiescent before the program finished");
#ifndef NDEBUG
  stats_.check_invariants();
#endif
  if (obs_ != nullptr) obs_->finish(*this);
}

Cycles Machine::makespan() const {
  Cycles m = 0;
  for (const Proc& p : procs_) m = std::max(m, p.clock);
  return m;
}

}  // namespace olden
