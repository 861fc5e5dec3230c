// The per-processor software cache of §3.2 and Figure 1.
//
// Each processor uses its local memory as a large fully-associative
// write-through cache. Allocation happens at page (2 KB) granularity and
// transfers at line (64 B) granularity. Because the CM-5 port cannot rely on
// virtual-memory support, translation goes through a 1024-bucket hash table
// whose buckets hold short chains of page entries; each entry carries the
// page tag, 32 line-valid bits, and the frame used to translate global to
// local addresses. In the authors' experience the average chain length is
// about one — `bench/fig1_cache_microbench` measures ours.
//
// This class is pure mechanism: it moves bytes and flips valid bits. All
// cycle charging and protocol messaging is done by the runtime machine,
// which also owns the coherence directory.
//
// Host-speed layout (virtual behavior unchanged): entries live in a pooled
// deque (stable addresses, no per-entry allocation), 2 KB frames come from
// slab storage with a free list so an invalidated-then-refilled page never
// round-trips through the host allocator, and lookups serve a one-entry MRU
// fast path plus move-to-front on hash-chain hits. The *charged* chain cost
// must not depend on any of this, so `chain_steps` is always the entry's
// logical position in insertion order (newest first) — exactly what a
// physical walk of the never-reordered chain would count — and misses report
// the full bucket population. `Tuning::kReference` disables every host
// shortcut (physical walks, no MRU, no move-to-front, no frame recycling);
// the A/B golden-equivalence suite runs the whole benchmark matrix both ways
// and requires byte-identical traces.
#pragma once

#include <array>
#include <cstddef>
#include <deque>
#include <memory>
#include <vector>

#include "olden/mem/global_addr.hpp"
#include "olden/support/types.hpp"

namespace olden {

inline constexpr std::uint32_t kCacheBuckets = 1024;

/// Home processor that owns a given global page.
inline ProcId page_home(std::uint32_t page_id) {
  return static_cast<ProcId>(page_id >> (kProcShift - 11));  // 2^11 = 2 KB
}

class SoftwareCache {
 public:
  /// Host-speed tuning. kOptimized is the production configuration;
  /// kReference walks chains physically in insertion order with no MRU,
  /// no move-to-front and no frame recycling — the pre-overhaul behavior,
  /// kept selectable so tests can prove the shortcuts change nothing
  /// simulation-visible. Captured per cache at construction.
  enum class Tuning : std::uint8_t { kOptimized, kReference };

  struct PageEntry {
    std::uint32_t page_id = 0;
    std::uint32_t valid = 0;  ///< bit i set => line i holds current data
    /// Bilateral scheme: home page version at last validation, and the
    /// epoch mark set on migration arrival ("miss on first access").
    std::uint64_t version = 0;
    bool suspect = false;
    /// 2 KB translation target, slab storage owned by the cache. May be
    /// null after a targeted push-invalidation drained the page's last
    /// valid line (the frame parks on the free list); any line fill goes
    /// through `ensure_frame` first. Invariant: valid != 0 => frame set.
    std::byte* frame = nullptr;
    PageEntry* next = nullptr;  ///< hash chain (MRU order when optimized)
    /// Insertion rank within the bucket (0 = first page hashed here).
    /// The logical chain position charged for a hit is
    /// `bucket population - rank`, which move-to-front must not change.
    std::uint32_t rank = 0;
  };

  struct LookupResult {
    PageEntry* entry = nullptr;  ///< null if the page is not allocated
    std::uint32_t chain_steps = 0;
  };

  struct InvalidateResult {
    std::uint64_t dropped = 0;    ///< lines actually invalidated
    std::uint32_t remaining = 0;  ///< valid lines the page still holds
  };

  SoftwareCache();

  /// Hash-table search for a page. Never allocates. Inline: this is the
  /// translation step of every cached access.
  [[nodiscard]] LookupResult lookup(std::uint32_t page_id) {
    LookupResult r;
    const std::uint32_t b = bucket_of(page_id);
    if (tuning_ == Tuning::kOptimized) {
      if (mru_ != nullptr && mru_->page_id == page_id) {
        r.entry = mru_;
        r.chain_steps = counts_[b] - mru_->rank;
        return r;
      }
      PageEntry* prev = nullptr;
      for (PageEntry* e = buckets_[b]; e != nullptr; prev = e, e = e->next) {
        if (e->page_id == page_id) {
          if (prev != nullptr) {  // move-to-front: host time only
            prev->next = e->next;
            e->next = buckets_[b];
            buckets_[b] = e;
          }
          mru_ = e;
          r.entry = e;
          // Logical position in insertion order (newest first): what a
          // physical walk of the never-reordered chain would have counted.
          r.chain_steps = counts_[b] - e->rank;
          return r;
        }
      }
      r.chain_steps = counts_[b];
      return r;
    }
    for (PageEntry* e = buckets_[b]; e != nullptr; e = e->next) {
      ++r.chain_steps;
      if (e->page_id == page_id) {
        r.entry = e;
        return r;
      }
    }
    return r;
  }

  /// Find-or-create a page entry. `created` reports a fresh allocation.
  PageEntry& ensure_page(std::uint32_t page_id, bool& created);

  /// Create a page known to be absent (the caller just saw `lookup` miss).
  /// Skips the re-search `ensure_page` would do.
  PageEntry& create_page(std::uint32_t page_id);

  /// The entry's frame, allocating from the free list / slab if the page
  /// currently holds none. Call before filling a line.
  std::byte* ensure_frame(PageEntry& e) {
    if (e.frame == nullptr) e.frame = alloc_frame();
    return e.frame;
  }

  /// Whole-cache invalidation (the local-knowledge scheme's migration
  /// arrival action). Page entries stay allocated; lines become invalid.
  /// Returns the number of lines invalidated.
  std::uint64_t invalidate_all();

  /// Invalidate every line of every cached page whose home is in `procs`
  /// (the return-stub optimization). Returns lines invalidated.
  std::uint64_t invalidate_from_procs(ProcSet procs);

  /// Invalidate specific lines of one page, if cached. Reports both the
  /// lines actually invalidated and how many valid lines the page still
  /// holds — zero remaining tells the eager-release protocol this sharer
  /// no longer caches the page and can be dropped from the sharer set.
  InvalidateResult invalidate_lines(std::uint32_t page_id,
                                    std::uint32_t mask);

  /// Bilateral scheme: mark every cached page suspect so its next access
  /// performs a timestamp check with the home.
  void mark_all_suspect();

  // --- introspection (tests, Figure 1 microbench) -----------------------
  [[nodiscard]] std::uint64_t pages_created() const { return pages_created_; }
  [[nodiscard]] std::uint64_t pages_live() const { return pages_live_; }
  /// Chain length of every nonempty bucket, for the Figure 1 claim.
  [[nodiscard]] std::vector<std::uint32_t> chain_lengths() const;
  [[nodiscard]] Tuning tuning() const { return tuning_; }
  /// Frames currently parked on the free list (test introspection).
  [[nodiscard]] std::size_t free_frames() const {
    return free_frames_.size();
  }

  /// Process-wide tuning for caches constructed after the call (the
  /// machine constructs one per processor). Tests flip this to run the
  /// same workload through the reference configuration.
  static void set_default_tuning(Tuning t);
  [[nodiscard]] static Tuning default_tuning();

 private:
  static std::uint32_t bucket_of(std::uint32_t page_id) {
    // Multiplicative mix so consecutive pages of one processor spread out.
    return (page_id * 2654435761u) >> 22 & (kCacheBuckets - 1);
  }

  std::byte* alloc_frame();
  void release_frame(PageEntry& e);

  std::array<PageEntry*, kCacheBuckets> buckets_{};
  /// Bucket populations; `chain_lengths()` and logical-position accounting
  /// read these instead of walking chains.
  std::array<std::uint32_t, kCacheBuckets> counts_{};
  /// Entry pool. A deque gives stable addresses (the machine holds
  /// `PageEntry*` across calls within one access) without per-entry
  /// allocations. Entries are never destroyed before the cache is.
  std::deque<PageEntry> pool_;
  PageEntry* mru_ = nullptr;  ///< last entry hit (optimized tuning only)

  // Frame storage: slabs of kFramesPerSlab pages plus a recycle list.
  static constexpr std::uint32_t kFramesPerSlab = 32;
  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  std::uint32_t slab_used_ = kFramesPerSlab;
  std::vector<std::byte*> free_frames_;

  std::uint64_t pages_created_ = 0;
  std::uint64_t pages_live_ = 0;
  Tuning tuning_;
};

}  // namespace olden
