// Edge-bucket classification for critical-path extraction
// (streaming.cpp).
//
// The functions take scalar (kind, arg0 > 0) views of the endpoints
// rather than whole events because the analyzer retains only packed
// per-event fields, never whole events.
#pragma once

#include "olden/trace/trace.hpp"

namespace olden::analyze::classify {

/// Sentinel for "this event is not about a page" (see page_of).
inline constexpr std::uint64_t kNoPage = ~std::uint64_t{0};

/// The page an event is about, or kNoPage. Only the cache/coherence kinds
/// carry a page id in arg0; kCacheFlush's arg0 is a line count and the
/// fault kinds carry processor and message-id payloads, so both map to
/// kNoPage.
inline std::uint64_t page_of(trace::EventKind kind, std::uint64_t arg0) {
  using trace::EventKind;
  switch (kind) {
    case EventKind::kCacheHit:
    case EventKind::kCacheMiss:
    case EventKind::kCacheLineFill:
    case EventKind::kLineInvalidate:
    case EventKind::kTimestampCheck:
      return arg0;
    default:
      return kNoPage;
  }
}

/// What one same-processor gap ending at the destination was spent on.
/// `dst_arg0_pos` is dst.arg0 > 0 (whether a flush / suspect-marking
/// actually dropped or marked anything).
inline trace::CycleBucket dst_bucket(trace::EventKind dst_kind,
                                     bool dst_arg0_pos) {
  using trace::CycleBucket;
  using trace::EventKind;
  switch (dst_kind) {
    case EventKind::kCacheMiss:
    case EventKind::kCacheLineFill:
      return CycleBucket::kCacheStall;
    case EventKind::kLineInvalidate:
    case EventKind::kTimestampCheck:
      return CycleBucket::kCoherence;
    // An acquire-time flush / suspect-marking that dropped or marked
    // nothing did no coherence work; the gap leading to it was the thread
    // computing (local work emits no events, so such gaps can be long).
    case EventKind::kCacheFlush:
    case EventKind::kMarkSuspect:
      return dst_arg0_pos ? CycleBucket::kCoherence : CycleBucket::kCompute;
    // Reaching an arrival / steal along the processor's own timeline means
    // the processor sat between its previous event and the hand-off.
    case EventKind::kMigrationArrive:
    case EventKind::kReturnStubArrive:
    case EventKind::kFutureSteal:
      return CycleBucket::kIdle;
    // Fault plane: a sender reaching its own retransmit sat out the ack
    // timeout — that wait is protocol overhead, not computation. Other
    // fault events are wire-side observations the processor merely
    // witnessed while waiting.
    case EventKind::kRetransmit:
      return CycleBucket::kRetry;
    case EventKind::kFaultDrop:
    case EventKind::kFaultDelay:
    case EventKind::kFaultDuplicate:
    case EventKind::kDupSuppressed:
    case EventKind::kHiccup:
      return CycleBucket::kIdle;
    default:
      return CycleBucket::kCompute;
  }
}

/// What a same-processor gap between consecutive events was spent on.
/// After an event that removed the running thread from the processor
/// (a blocked touch, a migration or return-stub departure), whatever
/// follows on this processor waited — the gap is idle no matter what the
/// next event is; otherwise the destination kind names the work.
inline trace::CycleBucket chain_bucket(trace::EventKind src_kind,
                                       trace::EventKind dst_kind,
                                       bool dst_arg0_pos) {
  using trace::CycleBucket;
  using trace::EventKind;
  switch (src_kind) {
    case EventKind::kTouchBlock:
    case EventKind::kMigrationDepart:
    case EventKind::kReturnStubSend:
      return CycleBucket::kIdle;
    default:
      return dst_bucket(dst_kind, dst_arg0_pos);
  }
}

/// What a causal (parent -> child) gap was spent on.
inline trace::CycleBucket causal_bucket(trace::EventKind src_kind,
                                        trace::EventKind dst_kind,
                                        bool dst_arg0_pos) {
  using trace::CycleBucket;
  using trace::EventKind;
  switch (dst_kind) {
    case EventKind::kMigrationArrive:
    case EventKind::kReturnStubArrive:
      return CycleBucket::kMigration;  // depart -> arrive transit
    // A causal edge into a fault-plane event (depart -> drop/retransmit/
    // suppressed duplicate) is time the message spent fighting the wire.
    case EventKind::kRetransmit:
    case EventKind::kFaultDrop:
    case EventKind::kFaultDelay:
    case EventKind::kFaultDuplicate:
    case EventKind::kDupSuppressed:
      return CycleBucket::kRetry;
    default:
      // A touch wake-up: the waiter's next step waited on the resolve's
      // delivery. Any other causal gap is sequential work, or idle time
      // before a steal (dst_bucket).
      if (src_kind == EventKind::kFutureResolve) return CycleBucket::kMigration;
      return dst_bucket(dst_kind, dst_arg0_pos);
  }
}

}  // namespace olden::analyze::classify
