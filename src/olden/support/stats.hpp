// Machine-wide statistics, accumulated by the runtime and the cache.
//
// These counters are exactly the quantities the paper reports: Table 2 needs
// makespans and migration counts; Table 3 needs cacheable read/write counts,
// the fraction that are remote, the fraction of remote references that miss,
// and the number of pages ever cached.
#pragma once

#include <cstddef>
#include <cstdint>

#include "olden/support/require.hpp"
#include "olden/support/types.hpp"

namespace olden {

/// Classes of logical messages the reliable-delivery layer carries. The
/// first three are payloads the sender does not wait for; the last three
/// are round trips that block it (fills, push invalidations, bilateral
/// timestamp checks). Per-class fault statistics are indexed by this enum.
enum class MsgClass : std::uint8_t {
  kMigration,
  kReturnStub,
  kFutureResolve,
  kFill,
  kInvalidate,
  kTsCheck,
};

inline constexpr std::size_t kNumMsgClasses = 6;

[[nodiscard]] constexpr const char* to_string(MsgClass c) {
  switch (c) {
    case MsgClass::kMigration: return "migration";
    case MsgClass::kReturnStub: return "return_stub";
    case MsgClass::kFutureResolve: return "future_resolve";
    case MsgClass::kFill: return "fill";
    case MsgClass::kInvalidate: return "invalidate";
    case MsgClass::kTsCheck: return "ts_check";
  }
  return "?";
}

struct MachineStats {
  // --- heap references, by outcome --------------------------------------
  std::uint64_t local_reads = 0;
  std::uint64_t local_writes = 0;

  /// References compiled to the software-caching mechanism ("cacheable").
  std::uint64_t cacheable_reads = 0;
  std::uint64_t cacheable_writes = 0;
  std::uint64_t cacheable_reads_remote = 0;
  std::uint64_t cacheable_writes_remote = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// Bilateral scheme only: page revalidations that needed a timestamp
  /// round-trip but no data transfer (one per suspect page consulted).
  std::uint64_t timestamp_checks = 0;
  /// Bilateral scheme only: accesses that performed at least one timestamp
  /// check and did NOT also register a cache miss. Disjoint from
  /// `cache_misses` by construction, so Table 3's "% of remote refs that
  /// miss" can add the two without double-counting an access whose
  /// revalidation was followed by a line fetch.
  std::uint64_t timestamp_stalls = 0;

  // --- migration ---------------------------------------------------------
  std::uint64_t migrations = 0;
  std::uint64_t return_migrations = 0;

  // --- futures ----------------------------------------------------------
  std::uint64_t futurecalls = 0;
  /// futurecalls whose body never migrated: no thread was created.
  std::uint64_t futures_inlined = 0;
  /// Continuations popped by a now-idle processor (threads created).
  std::uint64_t futures_stolen = 0;
  std::uint64_t touches_blocked = 0;

  // --- coherence ---------------------------------------------------------
  std::uint64_t cache_flushes = 0;        ///< whole-cache invalidations
  std::uint64_t lines_invalidated = 0;
  std::uint64_t invalidation_messages = 0;
  std::uint64_t tracked_writes = 0;

  // --- cache occupancy ----------------------------------------------------
  std::uint64_t pages_cached = 0;  ///< distinct (proc, page) entries created

  // --- fault plane (src/olden/fault/; all zero when faults are disabled) --
  /// Logical inter-processor messages routed through the reliable layer.
  std::uint64_t fault_messages = 0;
  /// Transmission attempts (data or ack) the injector dropped on the wire.
  std::uint64_t fault_drops = 0;
  /// Extra copies of a data attempt the injector put on the wire.
  std::uint64_t fault_duplicates = 0;
  /// Attempts given injected extra wire latency.
  std::uint64_t fault_delays = 0;
  /// Sender timeouts that re-sent an unacknowledged message.
  std::uint64_t retransmissions = 0;
  /// Surplus copies the receiver recognized as replays and discarded.
  std::uint64_t duplicates_suppressed = 0;
  /// Acknowledgements transmitted by receivers (one per landed copy).
  std::uint64_t acks_sent = 0;
  /// Transient per-processor slowdowns injected at message arrivals.
  std::uint64_t hiccups_injected = 0;
  /// Total stall cycles those hiccups added (accounted under `idle`).
  std::uint64_t hiccup_cycles = 0;
  /// Coherence requests issued (fills + timestamp checks; each is
  /// answered by a reply that doubles as the acknowledgement).
  std::uint64_t coherence_requests = 0;
  /// Surplus replies discarded because the request they answered had
  /// already been satisfied (the home serves every request copy that
  /// lands, and a reply can itself duplicate). Kept separate from
  /// `duplicates_suppressed`, which counts surplus request arrivals.
  std::uint64_t replies_ignored = 0;
  /// Per-message-class decomposition of the aggregate fault counters
  /// above, indexed by MsgClass. Ack/reply trouble is attributed to the
  /// class of the data message it serves, so each array sums exactly to
  /// its aggregate (enforced by check_invariants).
  std::uint64_t class_sent[kNumMsgClasses] = {};
  std::uint64_t class_drops[kNumMsgClasses] = {};
  std::uint64_t class_dups[kNumMsgClasses] = {};
  std::uint64_t class_delays[kNumMsgClasses] = {};
  std::uint64_t class_retries[kNumMsgClasses] = {};

  // --- allocation ---------------------------------------------------------
  std::uint64_t allocations = 0;
  std::uint64_t bytes_allocated = 0;

  [[nodiscard]] std::uint64_t remote_cacheable() const {
    return cacheable_reads_remote + cacheable_writes_remote;
  }

  /// "% of remote references that miss" in the sense of Table 3: misses as
  /// a percentage of remote cacheable references. Timestamp *stalls* count
  /// as misses for the bilateral row (they stall the processor on a round
  /// trip even though no line moves); an access that revalidated and then
  /// also fetched a line is already a miss and is counted exactly once.
  [[nodiscard]] double remote_miss_percent() const {
    const std::uint64_t remote = remote_cacheable();
    if (remote == 0) return 0.0;
    return 100.0 * static_cast<double>(cache_misses + timestamp_stalls) /
           static_cast<double>(remote);
  }

  [[nodiscard]] double percent_reads_remote() const {
    if (cacheable_reads == 0) return 0.0;
    return 100.0 * static_cast<double>(cacheable_reads_remote) /
           static_cast<double>(cacheable_reads);
  }

  [[nodiscard]] double percent_writes_remote() const {
    if (cacheable_writes == 0) return 0.0;
    return 100.0 * static_cast<double>(cacheable_writes_remote) /
           static_cast<double>(cacheable_writes);
  }

  /// Structural relations between the counters. Every remote cacheable
  /// read resolves to exactly one of hit/miss; a timestamp stall is an
  /// access-level event so it cannot outnumber the page-level checks; a
  /// future is consumed at most once (inline or stolen — equal to
  /// `futurecalls` once the machine is quiescent). Called by tests always
  /// and by the runtime at quiescence in debug builds.
  void check_invariants() const {
    OLDEN_REQUIRE(cache_hits + cache_misses == cacheable_reads_remote,
                  "every remote cacheable read must be a hit xor a miss");
    OLDEN_REQUIRE(cacheable_reads_remote <= cacheable_reads,
                  "remote cacheable reads exceed cacheable reads");
    OLDEN_REQUIRE(cacheable_writes_remote <= cacheable_writes,
                  "remote cacheable writes exceed cacheable writes");
    OLDEN_REQUIRE(timestamp_stalls <= timestamp_checks,
                  "more stalled accesses than timestamp round trips");
    OLDEN_REQUIRE(futures_inlined + futures_stolen <= futurecalls,
                  "a future was consumed both inline and by stealing");
    OLDEN_REQUIRE(touches_blocked <= futurecalls,
                  "more blocked touches than futures");
    // Fault plane: every suppressed arrival is a surplus copy, and surplus
    // copies only come from injected duplicates or (spurious) retransmits.
    OLDEN_REQUIRE(duplicates_suppressed <= fault_duplicates + retransmissions,
                  "more duplicates suppressed than were ever created");
    OLDEN_REQUIRE(hiccups_injected == 0 || hiccup_cycles >= hiccups_injected,
                  "hiccups injected without stall cycles");
    // Per-class fault decomposition: every aggregate fault counter must be
    // exactly the sum of its per-class parts — a message the injector
    // touched always belongs to exactly one class.
    std::uint64_t sent = 0, drops = 0, dups = 0, delays = 0, retries = 0;
    for (std::size_t c = 0; c < kNumMsgClasses; ++c) {
      sent += class_sent[c];
      drops += class_drops[c];
      dups += class_dups[c];
      delays += class_delays[c];
      retries += class_retries[c];
    }
    OLDEN_REQUIRE(sent == fault_messages,
                  "per-class sends do not sum to fault_messages");
    OLDEN_REQUIRE(drops == fault_drops,
                  "per-class drops do not sum to fault_drops");
    OLDEN_REQUIRE(dups == fault_duplicates,
                  "per-class duplicates do not sum to fault_duplicates");
    OLDEN_REQUIRE(delays == fault_delays,
                  "per-class delays do not sum to fault_delays");
    OLDEN_REQUIRE(retries == retransmissions,
                  "per-class retries do not sum to retransmissions");
  }

  bool operator==(const MachineStats&) const = default;
};

}  // namespace olden
