// Cache-coherence support structures for the three schemes of Appendix A.
//
//  * Local knowledge  — no state beyond the caches themselves: the whole
//    cache is invalidated on migration arrival; on procedure-return
//    migrations only lines homed on processors the thread wrote.
//  * Eager release ("global knowledge") — the compiler inserts write
//    tracking; homes keep per-page sharer sets at page granularity and
//    dirty bits at line granularity; at each migration the runtime pushes
//    line-grain invalidations to every sharer of each dirtied page.
//  * Bilateral — write tracking plus a per-page timestamp at the home,
//    bumped when a migration leaves a processor that wrote the page; a
//    migration arrival marks all cached pages suspect, and the first access
//    to a suspect page does a timestamp-check round trip with the home.
//
// The protocol actions (who sends what, and what it costs) live in the
// runtime machine; this header holds the bookkeeping state.
//
// Host-speed layout: page ids are dense per home processor (top bits are
// the owner, low bits the local page number), so the directory is an array
// of per-processor vectors indexed directly by local page number — no
// hashing on the write-tracking fast path. A write log is one vector kept
// sorted by page id, with a last-page fast path for the consecutive
// line-chunk writes the compiler emits. Logs are not small: at p=8 under
// global coherence a thread dirties up to ~1,000 pages between releases
// (paper TreeAdd; Barnes-Hut ~700, Voronoi ~400, Bisort ~130), so a lookup
// is a binary search, and releases drain in ascending page order, the one
// canonical order no container choice can rearrange.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

#include "olden/mem/global_addr.hpp"
#include "olden/support/types.hpp"

namespace olden {

enum class Coherence {
  kLocalKnowledge,
  kEagerGlobal,
  kBilateral,
};

[[nodiscard]] constexpr const char* to_string(Coherence c) {
  switch (c) {
    case Coherence::kLocalKnowledge: return "local";
    case Coherence::kEagerGlobal: return "global";
    case Coherence::kBilateral: return "bilateral";
  }
  return "?";
}

/// Whether a scheme requires compiler-inserted write tracking (and thus
/// pays the 7/23-instruction costs of Appendix A).
[[nodiscard]] constexpr bool tracks_writes(Coherence c) {
  return c != Coherence::kLocalKnowledge;
}

/// Number of low page-id bits that index within one home processor.
inline constexpr int kLocalPageBits = kProcShift - 11;  // 2^11 = 2 KB pages
inline constexpr std::uint32_t kLocalPageMask = (1u << kLocalPageBits) - 1;

/// Home-side per-page directory state, kept by the page's owner.
struct HomePageInfo {
  /// Processors holding (possibly stale) cached lines of this page.
  /// Tracked at page granularity "to reduce the amount of state
  /// information" (Appendix A). Eager scheme only. A sharer is dropped
  /// again when a pushed invalidation leaves it with zero valid lines.
  ProcSet sharers;
  /// True once a second processor has requested the page: write tracking
  /// on shared pages costs more (23 vs 7 instructions).
  bool shared = false;
  /// Bilateral: page version, bumped by a departing migration whose thread
  /// wrote the page.
  std::uint64_t version = 0;
  /// Bilateral: lines written during the current version (i.e. since the
  /// last bump). A sharer exactly one version behind invalidates only
  /// these; a sharer further behind invalidates the whole page.
  std::uint32_t dirty_since_bump = 0;
  /// Bilateral: the lines the most recent version bump published. The
  /// timestamp-check reply tells a one-version-behind sharer to drop
  /// exactly these lines.
  std::uint32_t last_released = 0;
};

/// The bilateral scheme's revalidation rule, shared by the synchronous
/// timestamp check and the fault plane's asynchronous ts-check reply:
/// which of a sharer's `valid` lines must be dropped given that its copy
/// was validated at `cached_version`. Exactly one version behind drops
/// only the lines that release published; further behind drops everything.
[[nodiscard]] inline std::uint32_t stale_line_mask(
    const HomePageInfo& info, std::uint64_t cached_version,
    std::uint32_t valid) {
  if (cached_version == info.version) return 0;
  if (cached_version + 1 == info.version) return valid & info.last_released;
  return valid;
}

/// Directory spanning the machine, indexed by global page id. Each entry
/// conceptually lives on the page's home processor; the runtime charges the
/// home's clock whenever it consults or updates one. Storage is a flat
/// vector per home, grown on demand — heap pages are allocated densely from
/// offset zero, so the vectors stay compact and `page()` is two indexed
/// loads instead of a hash probe.
class CoherenceDirectory {
 public:
  HomePageInfo& page(std::uint32_t page_id) {
    const std::uint32_t home = page_id >> kLocalPageBits;
    const std::uint32_t local = page_id & kLocalPageMask;
    assert(home < kMaxProcs);
    std::vector<Slot>& v = pages_[home];
    if (v.size() <= local) v.resize(local + 1);
    Slot& s = v[local];
    if (!s.touched) {
      s.touched = true;
      ++tracked_;
    }
    return s.info;
  }

  [[nodiscard]] const HomePageInfo* find(std::uint32_t page_id) const {
    const std::uint32_t home = page_id >> kLocalPageBits;
    const std::uint32_t local = page_id & kLocalPageMask;
    assert(home < kMaxProcs);
    const std::vector<Slot>& v = pages_[home];
    if (local >= v.size() || !v[local].touched) return nullptr;
    return &v[local].info;
  }

  /// Pages ever consulted through `page()` (directory entries that exist).
  [[nodiscard]] std::size_t tracked_pages() const { return tracked_; }

 private:
  struct Slot {
    HomePageInfo info;
    bool touched = false;
  };
  std::array<std::vector<Slot>, kMaxProcs> pages_;
  std::size_t tracked_ = 0;
};

/// Per-thread write log: pages (and lines within them) this thread has
/// written since its last migration. This is what the compiler-inserted
/// write-tracking code of Appendix A accumulates; the runtime drains it at
/// each migration departure.
///
/// The tracking code records the same page repeatedly as a structure's
/// lines are written in sequence, so: last-page fast path, then a binary
/// search of the page-sorted entries, inserting in order on a new page.
/// `for_each` walks the entries in place, in ascending page-id order.
class WriteLog {
 public:
  void record(std::uint32_t page_id, std::uint32_t line_mask) {
    if (last_ < entries_.size() && entries_[last_].page == page_id) {
      entries_[last_].mask |= line_mask;
      return;
    }
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), page_id,
        [](const Entry& e, std::uint32_t page) { return e.page < page; });
    if (it != entries_.end() && it->page == page_id) {
      it->mask |= line_mask;
    } else {
      it = entries_.insert(it, Entry{page_id, line_mask});
    }
    last_ = static_cast<std::size_t>(it - entries_.begin());
  }

  void clear() {
    entries_.clear();  // keeps capacity: no realloc churn across migrations
    last_ = 0;
  }

  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// fn(page_id, line_mask), ascending page_id. `fn` must not record into
  /// this log: the walk is over the live entries.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& e : entries_) fn(e.page, e.mask);
  }

 private:
  struct Entry {
    std::uint32_t page = 0;
    std::uint32_t mask = 0;
  };

  std::vector<Entry> entries_;  ///< sorted by page, pages unique
  std::size_t last_ = 0;        ///< index of the most recently recorded page
};

}  // namespace olden
