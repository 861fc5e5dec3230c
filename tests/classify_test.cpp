// Table-driven coverage of the analyze/classify.hpp classifiers.
//
// The classifiers decide what every critical-path edge and every
// diff-profile charge means; a silent fall-through to the default case
// for a newly added EventKind would skew every report. The
// tables below therefore enumerate all kNumEventKinds kinds explicitly —
// adding a kind without deciding its classification fails these tests
// (kExpectations must grow), not just a code review.
#include <gtest/gtest.h>

#include <cstddef>

#include "olden/analyze/classify.hpp"
#include "olden/trace/trace.hpp"

namespace olden::analyze::classify {
namespace {

using trace::CycleBucket;
using trace::EventKind;

struct KindExpectation {
  EventKind kind;
  /// dst_bucket(kind, arg0 > 0) for both arg0 signs.
  CycleBucket dst_arg0_zero;
  CycleBucket dst_arg0_pos;
  /// Does page_of forward arg0 as a page id (vs kNoPage)?
  bool carries_page;
};

// One row per EventKind, in enum order. kNumEventKinds is re-checked
// below so the table cannot silently fall behind the enum.
constexpr KindExpectation kExpectations[] = {
    {EventKind::kMigrationDepart, CycleBucket::kCompute, CycleBucket::kCompute,
     false},
    {EventKind::kMigrationArrive, CycleBucket::kIdle, CycleBucket::kIdle,
     false},
    {EventKind::kReturnStubSend, CycleBucket::kCompute, CycleBucket::kCompute,
     false},
    {EventKind::kReturnStubArrive, CycleBucket::kIdle, CycleBucket::kIdle,
     false},
    {EventKind::kCacheHit, CycleBucket::kCompute, CycleBucket::kCompute,
     true},
    {EventKind::kCacheMiss, CycleBucket::kCacheStall,
     CycleBucket::kCacheStall, true},
    {EventKind::kCacheLineFill, CycleBucket::kCacheStall,
     CycleBucket::kCacheStall, true},
    {EventKind::kLineInvalidate, CycleBucket::kCoherence,
     CycleBucket::kCoherence, true},
    // arg0 = lines dropped: a flush that dropped nothing did no coherence
    // work, and its arg0 is a count, never a page id.
    {EventKind::kCacheFlush, CycleBucket::kCompute, CycleBucket::kCoherence,
     false},
    {EventKind::kMarkSuspect, CycleBucket::kCompute, CycleBucket::kCoherence,
     false},
    {EventKind::kTimestampCheck, CycleBucket::kCoherence,
     CycleBucket::kCoherence, true},
    {EventKind::kFutureCreate, CycleBucket::kCompute, CycleBucket::kCompute,
     false},
    {EventKind::kFutureSteal, CycleBucket::kIdle, CycleBucket::kIdle, false},
    {EventKind::kTouchBlock, CycleBucket::kCompute, CycleBucket::kCompute,
     false},
    {EventKind::kFutureResolve, CycleBucket::kCompute, CycleBucket::kCompute,
     false},
    // Fault plane: arg0 carries processor / cycle payloads, not pages.
    {EventKind::kFaultDrop, CycleBucket::kIdle, CycleBucket::kIdle, false},
    {EventKind::kFaultDelay, CycleBucket::kIdle, CycleBucket::kIdle, false},
    {EventKind::kFaultDuplicate, CycleBucket::kIdle, CycleBucket::kIdle,
     false},
    {EventKind::kRetransmit, CycleBucket::kRetry, CycleBucket::kRetry, false},
    {EventKind::kDupSuppressed, CycleBucket::kIdle, CycleBucket::kIdle,
     false},
    {EventKind::kHiccup, CycleBucket::kIdle, CycleBucket::kIdle, false},
};

// The compile-time guard: a new EventKind fails the build here until a
// row is added above.
static_assert(std::size(kExpectations) == trace::kNumEventKinds,
              "every EventKind needs a classification expectation — "
              "extend kExpectations (and classify.hpp, if the default "
              "case is wrong for the new kind)");

TEST(Classify, EveryKindHasTheExpectedDstBucket) {
  for (std::size_t i = 0; i < std::size(kExpectations); ++i) {
    const KindExpectation& e = kExpectations[i];
    // The table must stay in enum order, or a misaligned row would make
    // two kinds vouch for each other.
    ASSERT_EQ(static_cast<std::size_t>(e.kind), i);
    EXPECT_EQ(dst_bucket(e.kind, false), e.dst_arg0_zero)
        << trace::to_string(e.kind);
    EXPECT_EQ(dst_bucket(e.kind, true), e.dst_arg0_pos)
        << trace::to_string(e.kind);
  }
}

TEST(Classify, EveryKindHasTheExpectedPageAttribution) {
  constexpr std::uint64_t kPage = 0x1234;
  for (const KindExpectation& e : kExpectations) {
    EXPECT_EQ(page_of(e.kind, kPage), e.carries_page ? kPage : kNoPage)
        << trace::to_string(e.kind);
  }
  // The sentinel round-trips: an unpaged kind returns kNoPage whatever
  // arg0 holds, including kNoPage itself on a paged kind.
  EXPECT_EQ(page_of(EventKind::kCacheFlush, kNoPage), kNoPage);
  EXPECT_EQ(page_of(EventKind::kCacheHit, 0), 0u);
}

TEST(Classify, ChainBucketSourceOverridesDestination) {
  // After an event that removed the running thread from the processor,
  // the gap to whatever follows is idle no matter the destination.
  constexpr EventKind kDeschedulers[] = {EventKind::kTouchBlock,
                                         EventKind::kMigrationDepart,
                                         EventKind::kReturnStubSend};
  for (const EventKind src : kDeschedulers) {
    for (const KindExpectation& e : kExpectations) {
      EXPECT_EQ(chain_bucket(src, e.kind, true), CycleBucket::kIdle)
          << trace::to_string(src) << " -> " << trace::to_string(e.kind);
    }
  }
  // Any other source defers to the destination's own bucket.
  for (const KindExpectation& e : kExpectations) {
    EXPECT_EQ(chain_bucket(EventKind::kCacheHit, e.kind, false),
              e.dst_arg0_zero)
        << trace::to_string(e.kind);
    EXPECT_EQ(chain_bucket(EventKind::kCacheHit, e.kind, true), e.dst_arg0_pos)
        << trace::to_string(e.kind);
  }
}

TEST(Classify, CausalBucketCoversEveryDestinationKind) {
  for (const KindExpectation& e : kExpectations) {
    const CycleBucket from_create =
        causal_bucket(EventKind::kFutureCreate, e.kind, false);
    switch (e.kind) {
      // Transit edges: depart -> arrive is migration regardless of source.
      case EventKind::kMigrationArrive:
      case EventKind::kReturnStubArrive:
        EXPECT_EQ(from_create, CycleBucket::kMigration)
            << trace::to_string(e.kind);
        break;
      // Wire-fighting edges are retry time.
      case EventKind::kRetransmit:
      case EventKind::kFaultDrop:
      case EventKind::kFaultDelay:
      case EventKind::kFaultDuplicate:
      case EventKind::kDupSuppressed:
        EXPECT_EQ(from_create, CycleBucket::kRetry)
            << trace::to_string(e.kind);
        break;
      // An idle steal waited for the continuation to age in the list.
      case EventKind::kFutureSteal:
        EXPECT_EQ(from_create, CycleBucket::kIdle);
        break;
      default:
        EXPECT_EQ(from_create, e.dst_arg0_zero) << trace::to_string(e.kind);
        break;
    }
  }
  // The resolve-source overrides: a wake-up waited on the resolution
  // message; a steal parented on a resolve likewise.
  EXPECT_EQ(causal_bucket(EventKind::kFutureResolve, EventKind::kCacheHit,
                          false),
            CycleBucket::kMigration);
  EXPECT_EQ(causal_bucket(EventKind::kFutureResolve, EventKind::kFutureSteal,
                          false),
            CycleBucket::kMigration);
  EXPECT_EQ(causal_bucket(EventKind::kFutureCreate, EventKind::kFutureSteal,
                          false),
            CycleBucket::kIdle);
}

}  // namespace
}  // namespace olden::analyze::classify
