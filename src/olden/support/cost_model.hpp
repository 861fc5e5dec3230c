// CostModel: the CM-5 calibration knobs for the simulated machine.
//
// Every cost the runtime charges comes from this table, so experiments can
// re-run the suite under a different machine balance (the paper's §7 notes
// that a network of workstations would shift the migration/caching threshold
// one way and hardware-assisted machines the other).
//
// Calibration anchors, from the paper:
//   * a thread migration costs about 7x a remote cache-line fetch (§4),
//     which puts the break-even path-affinity near 86% (§4.3 footnote);
//   * write tracking for the eager-release ("global knowledge") and
//     bilateral coherence schemes costs 7 instructions on non-shared pages
//     and 23 on shared pages (Appendix A).
#pragma once

#include "olden/support/types.hpp"

namespace olden {

struct CostModel {
  // --- every heap reference ---------------------------------------------
  /// Compiler-inserted locality test: extract processor bits, compare.
  Cycles pointer_test = 3;
  /// A reference that turns out to be processor-local.
  Cycles local_access = 1;

  // --- software caching ---------------------------------------------------
  /// Hash-table lookup + tag translation on a cache hit.
  Cycles cache_lookup = 12;
  /// Extra per-chain-element search cost beyond the first bucket entry.
  Cycles cache_chain_step = 4;
  /// Round trip to fetch one 64-byte line from its home (requester side;
  /// the home also pays `remote_handler` out of its own clock).
  Cycles cache_miss = 320;
  /// Allocating a fresh page entry in the translation table on first touch.
  Cycles page_alloc = 60;
  /// Active-message handler occupancy charged to the home processor per
  /// request it services (line fetch, write-through, timestamp check).
  Cycles remote_handler = 40;
  /// Requester-side cost of a write-through message (fire and forget).
  Cycles remote_write = 80;

  // --- computation migration ----------------------------------------------
  // Total one-way cost (sender occupancy + wire + receiver dispatch) is
  // the paper's 7x-a-miss anchor: 2240 cycles. Only `migration_send`
  // occupies the sender — an active-message send returns once the state
  // is marshalled, which is what lets one processor fling parallel work
  // without serializing on full migration latencies.
  /// Sender-side marshal + injection for a forward migration (active
  /// message launches are cheap; the latency lives in the wire and the
  /// receiver).
  Cycles migration_send = 300;
  /// Network transit: arrival = send end + this.
  Cycles migration_wire = 1140;
  /// Receiver-side cost of accepting a migration: interrupt, unmarshal,
  /// scheduler entry. This is what makes fine-grain "ping-pong" migration
  /// patterns (the failure mode §1 describes) so expensive.
  Cycles migration_recv = 800;
  /// Return stub: registers + return address only (no frame comes back).
  Cycles return_send = 200;
  Cycles return_wire = 600;
  Cycles return_recv = 300;

  [[nodiscard]] Cycles migration_total() const {
    return migration_send + migration_wire;
  }

  // --- futures --------------------------------------------------------------
  /// futurecall bookkeeping: save continuation on the work list.
  Cycles future_call = 40;
  /// touch on an already-resolved future.
  Cycles future_touch = 10;
  /// Popping a stolen continuation and turning it into a runnable thread.
  Cycles future_steal = 120;
  /// Sending a future-resolution message home from a remote processor.
  Cycles future_resolve_msg = 400;

  // --- coherence (Appendix A) ------------------------------------------------
  /// Compiler-inserted write tracking, non-shared page.
  Cycles write_track_unshared = 7;
  /// Compiler-inserted write tracking, shared page.
  Cycles write_track_shared = 23;
  /// Sender-side cost of one invalidation message.
  Cycles invalidate_send = 60;
  /// Receiver-side cost of applying one invalidation message.
  Cycles invalidate_recv = 40;
  /// Bilateral scheme: timestamp-check round trip (no data moves).
  Cycles timestamp_check = 220;

  // --- reliable delivery (fault plane only) ---------------------------------
  // Inputs to when a retransmit fires or an answer lands (see
  // fault_plane.hpp). Lossless acks and replies are free, so a run whose
  // plane injects nothing never charges any of these.
  /// Acknowledgement transit on the wire.
  Cycles ack_wire = 600;
  /// Sender-side cost of re-marshalling + re-injecting a timed-out
  /// message, charged to the kRetry bucket.
  Cycles retransmit_send = 300;
  /// One-way wire transit for a coherence message (fill request/reply,
  /// push invalidation, timestamp check). Half of `cache_miss` minus the
  /// handler occupancies, so a lossless round trip fits inside the
  /// synchronous charge.
  Cycles coherence_wire = 140;

  // --- allocation -------------------------------------------------------------
  /// ALLOC library call (local bump allocation).
  Cycles alloc_local = 30;
  /// ALLOC on a remote processor (request/ack round trip).
  Cycles alloc_remote = 600;

  // --- no-overhead mode -----------------------------------------------------
  /// When true, the machine charges only explicit `work()` plus one cycle
  /// per heap access: this models the "true sequential implementation"
  /// baseline the paper divides by to compute speedups.
  bool sequential_baseline = false;
};

}  // namespace olden
