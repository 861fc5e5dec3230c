// Core observability types: typed trace events, cycle-accounting buckets,
// and log-scale histograms.
//
// The runtime emits these through an optional trace::Observer (see
// observer.hpp). Everything here is pure data — nothing touches virtual
// time, so enabling observability can never perturb a run (the
// tracing-on/off A/B test in tests/observability_determinism_test.cpp
// holds the runtime to that).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>

#include "olden/support/types.hpp"

namespace olden::trace {

/// Site attribution for events that have no dereference site.
inline constexpr SiteId kNoSite = 0xffffffffu;
/// Thread attribution for events raised outside any thread.
inline constexpr ThreadId kNoThread = ~ThreadId{0};
/// Sentinel for "this event has no causal parent" / "no such event".
inline constexpr std::uint64_t kNoEvent = ~std::uint64_t{0};
/// Sentinel for events raised outside any causal chain.
inline constexpr std::uint64_t kNoChain = ~std::uint64_t{0};

/// Every observable runtime event, with the meaning of the two
/// kind-specific payload words (arg0/arg1).
enum class EventKind : std::uint8_t {
  kMigrationDepart,  ///< arg0 = target proc
  kMigrationArrive,  ///< arg0 = source proc, arg1 = depart->arrive cycles
  kReturnStubSend,   ///< arg0 = caller proc (destination)
  kReturnStubArrive, ///< arg0 = source proc, arg1 = send->arrive cycles
  kCacheHit,         ///< arg0 = page id
  kCacheMiss,        ///< arg0 = page id, arg1 = lines fetched this access
  kCacheLineFill,    ///< arg0 = page id, arg1 = line index
  kLineInvalidate,   ///< arg0 = page id, arg1 = lines dropped
  kCacheFlush,       ///< arg0 = lines dropped (local-knowledge acquire)
  kMarkSuspect,      ///< arg0 = pages marked (bilateral acquire)
  kTimestampCheck,   ///< arg0 = page id, arg1 = lines dropped
  kFutureCreate,     ///< arg0 = cell serial
  kFutureSteal,      ///< arg0 = cell serial
  kTouchBlock,       ///< arg0 = cell serial
  kFutureResolve,    ///< arg0 = cell serial, arg1 = 1 if resolved remotely
  // Fault plane (src/olden/fault/). Emitted only when fault injection is
  // enabled; appended after the v2 kinds so existing binary traces keep
  // their encodings. arg0's upper bits encode the message class (see
  // fault_plane.hpp).
  kFaultDrop,        ///< arg0 = dst proc, arg1 = message id
  kFaultDelay,       ///< arg0 = dst proc, arg1 = extra wire cycles
  kFaultDuplicate,   ///< arg0 = dst proc, arg1 = message id
  kRetransmit,       ///< arg0 = dst proc, arg1 = attempt number
  kDupSuppressed,    ///< arg0 = src proc, arg1 = message id
  kHiccup,           ///< arg0 = stall cycles injected on `proc`
};

inline constexpr std::size_t kNumEventKinds = 21;

[[nodiscard]] constexpr const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::kMigrationDepart: return "migration_depart";
    case EventKind::kMigrationArrive: return "migration_arrive";
    case EventKind::kReturnStubSend: return "return_stub_send";
    case EventKind::kReturnStubArrive: return "return_stub_arrive";
    case EventKind::kCacheHit: return "cache_hit";
    case EventKind::kCacheMiss: return "cache_miss";
    case EventKind::kCacheLineFill: return "cache_line_fill";
    case EventKind::kLineInvalidate: return "line_invalidate";
    case EventKind::kCacheFlush: return "cache_flush";
    case EventKind::kMarkSuspect: return "mark_suspect";
    case EventKind::kTimestampCheck: return "timestamp_check";
    case EventKind::kFutureCreate: return "future_create";
    case EventKind::kFutureSteal: return "future_steal";
    case EventKind::kTouchBlock: return "touch_block";
    case EventKind::kFutureResolve: return "future_resolve";
    case EventKind::kFaultDrop: return "fault_drop";
    case EventKind::kFaultDelay: return "fault_delay";
    case EventKind::kFaultDuplicate: return "fault_duplicate";
    case EventKind::kRetransmit: return "retransmit";
    case EventKind::kDupSuppressed: return "dup_suppressed";
    case EventKind::kHiccup: return "hiccup";
  }
  return "?";
}

/// One timestamped, attributed runtime event.
///
/// Causal threading (binary log v2): every event carries an emission-order
/// `id` (stable even when retention drops events — dropped events still
/// consume ids), the `chain` it belongs to, and the id of its causal
/// `parent` event. A chain is one thread lineage: the root thread starts
/// chain 0 and every future steal starts a fresh chain whose first event's
/// parent links back into the spawning chain (the future_create that saved
/// the stolen continuation). Within a chain the parent is simply the
/// thread's previous event; migration / return-stub arrivals parent on
/// their departure event, and the first event after a blocked touch wakes
/// parents on the future_resolve that woke it. The analysis engine
/// (src/olden/analyze/) reconstructs the event DAG from exactly these
/// links.
struct TraceEvent {
  Cycles time = 0;       ///< virtual time on `proc` when the event fired
  ProcId proc = 0;       ///< processor the event is charged to
  ThreadId thread = kNoThread;
  EventKind kind = EventKind::kMigrationDepart;
  SiteId site = kNoSite; ///< dereference site, when one is responsible
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
  std::uint64_t id = kNoEvent;      ///< per-run emission serial
  std::uint64_t chain = kNoChain;   ///< causal chain (thread lineage)
  std::uint64_t parent = kNoEvent;  ///< id of the causal parent event
};

/// Where a processor's cycles went. Each clock increment the machine makes
/// is attributed to exactly one bucket; idle time is the gap a processor
/// spends waiting for its next runnable thread.
enum class CycleBucket : std::uint8_t {
  kCompute,     ///< user work, pointer tests, future bookkeeping, allocation
  kMigration,   ///< migration / return-stub send+receive, future resolution
  kCacheStall,  ///< cache lookups, line fetches, write-throughs, fill service
  kCoherence,   ///< write tracking, invalidations, timestamp checks
  kIdle,        ///< waiting for work (includes trailing wait to makespan)
  kRetry,       ///< what loss costs: retransmit marshalling and blocked
                ///< waits (fault plane only; zero when nothing is lost)
};

inline constexpr std::size_t kNumBuckets = 6;

[[nodiscard]] constexpr const char* to_string(CycleBucket b) {
  switch (b) {
    case CycleBucket::kCompute: return "compute";
    case CycleBucket::kMigration: return "migration";
    case CycleBucket::kCacheStall: return "cache_stall";
    case CycleBucket::kCoherence: return "coherence";
    case CycleBucket::kIdle: return "idle";
    case CycleBucket::kRetry: return "retry";
  }
  return "?";
}

using BucketCycles = std::array<std::uint64_t, kNumBuckets>;

/// A power-of-two-bucketed histogram of 64-bit values. Bucket 0 holds
/// exactly the value 0; bucket b >= 1 holds [2^(b-1), 2^b). Values are
/// also summed and min/max-tracked so exports can report exact means.
class Histogram {
 public:
  /// Bucket 0 for value 0, plus one bucket per bit of a 64-bit value.
  static constexpr std::size_t kBucketCount = 65;

  void record(std::uint64_t v) {
    ++buckets_[bucket_of(v)];
    ++count_;
    sum_ += v;
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  [[nodiscard]] static std::size_t bucket_of(std::uint64_t v) {
    return static_cast<std::size_t>(std::bit_width(v));
  }
  /// Inclusive lower bound of bucket b.
  [[nodiscard]] static std::uint64_t bucket_lo(std::size_t b) {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }
  /// Inclusive upper bound of bucket b.
  [[nodiscard]] static std::uint64_t bucket_hi(std::size_t b) {
    if (b == 0) return 0;
    if (b == kBucketCount - 1) return std::numeric_limits<std::uint64_t>::max();
    return (std::uint64_t{1} << b) - 1;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t b) const {
    return buckets_[b];
  }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  [[nodiscard]] bool empty() const { return count_ == 0; }

 private:
  std::array<std::uint64_t, kBucketCount> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

/// The fixed histogram set the runtime feeds. An enum (rather than a
/// by-name registry) keeps the hot-path record a single array index.
enum class Hist : std::uint8_t {
  kMigrationLatency,  ///< depart -> arrival-processing-done, cycles
  kReturnLatency,     ///< return-stub send -> arrive, cycles
  kMissFillCycles,    ///< requester-side stall cycles per missing access
  kReadyQueueDepth,   ///< ready-queue depth sampled at each enqueue
  kWorklistDepth,     ///< stealable continuations on the futurecalling
                      ///< processor, sampled at each futurecall
  kPageHeat,          ///< cached accesses per (proc, page), folded at finish
};

inline constexpr std::size_t kNumHists = 6;

// --- binary trace format v2 ("OLDNTRC2") ------------------------------------
// Shared by the one writer (streaming_sink.hpp) and the one reader
// (src/olden/analyze/trace_reader.hpp).

inline constexpr int kBinaryTraceVersion = 2;
inline constexpr char kBinaryTraceMagic[8] = {'O', 'L', 'D', 'N',
                                              'T', 'R', 'C', '2'};
/// The v1 magic, kept so readers can name the version they refuse.
inline constexpr char kBinaryTraceMagicV1[8] = {'O', 'L', 'D', 'N',
                                                'T', 'R', 'C', '1'};
/// Size of one packed binary record, laid out by encode_record below.
inline constexpr std::size_t kBinaryRecordBytes =
    8 + 4 + 8 + 1 + 3 + 4 + 8 + 8 + 8 + 8 + 8;

static_assert(std::endian::native == std::endian::little,
              "v2 fields are little-endian and copied in host byte order");

/// One fixed-width v2 field: a little-endian T at `out` / `in`.
template <class T>
void store_le(char* out, T v) { std::memcpy(out, &v, sizeof v); }
template <class T>
[[nodiscard]] T load_le(const char* in) {
  T v{};
  std::memcpy(&v, in, sizeof v);
  return v;
}

/// Write `e` as one packed record of kBinaryRecordBytes at `out`: time
/// u64, proc u32, thread u64, kind u8 and three zero pad bytes, site u32,
/// then arg0, arg1, id, chain and parent as u64.
inline void encode_record(const TraceEvent& e, char* out) {
  store_le<std::uint64_t>(out, e.time);
  store_le<std::uint32_t>(out + 8, e.proc);
  store_le<std::uint64_t>(out + 12, e.thread);
  store_le<std::uint32_t>(out + 20, static_cast<std::uint8_t>(e.kind));
  store_le<std::uint32_t>(out + 24, e.site);
  store_le<std::uint64_t>(out + 28, e.arg0);
  store_le<std::uint64_t>(out + 36, e.arg1);
  store_le<std::uint64_t>(out + 44, e.id);
  store_le<std::uint64_t>(out + 52, e.chain);
  store_le<std::uint64_t>(out + 60, e.parent);
}

/// The record encode_record wrote at `in`. The kind byte is taken as it
/// stands (the pad bytes are ignored): a reader rejects kinds at or past
/// kNumEventKinds.
[[nodiscard]] inline TraceEvent decode_record(const char* in) {
  TraceEvent e;
  e.time = load_le<std::uint64_t>(in);
  e.proc = load_le<std::uint32_t>(in + 8);
  e.thread = load_le<std::uint64_t>(in + 12);
  e.kind = static_cast<EventKind>(load_le<std::uint8_t>(in + 20));
  e.site = load_le<std::uint32_t>(in + 24);
  e.arg0 = load_le<std::uint64_t>(in + 28);
  e.arg1 = load_le<std::uint64_t>(in + 36);
  e.id = load_le<std::uint64_t>(in + 44);
  e.chain = load_le<std::uint64_t>(in + 52);
  e.parent = load_le<std::uint64_t>(in + 60);
  return e;
}

[[nodiscard]] constexpr const char* to_string(Hist h) {
  switch (h) {
    case Hist::kMigrationLatency: return "migration_latency_cycles";
    case Hist::kReturnLatency: return "return_stub_latency_cycles";
    case Hist::kMissFillCycles: return "miss_fill_cycles";
    case Hist::kReadyQueueDepth: return "ready_queue_depth";
    case Hist::kWorklistDepth: return "worklist_depth";
    case Hist::kPageHeat: return "page_heat";
  }
  return "?";
}

}  // namespace olden::trace
