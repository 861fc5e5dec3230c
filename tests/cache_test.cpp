// Unit tests for the software cache (§3.2, Figure 1) and the coherence
// bookkeeping structures (Appendix A).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "olden/cache/coherence.hpp"
#include "olden/cache/software_cache.hpp"
#include "olden/support/rng.hpp"

namespace olden {
namespace {

TEST(SoftwareCache, LookupMissesUntilEnsured) {
  SoftwareCache c;
  EXPECT_EQ(c.lookup(42).entry, nullptr);
  bool created = false;
  auto& e = c.ensure_page(42, created);
  EXPECT_TRUE(created);
  EXPECT_EQ(e.page_id, 42u);
  EXPECT_EQ(e.valid, 0u);
  EXPECT_EQ(c.lookup(42).entry, &e);
  c.ensure_page(42, created);
  EXPECT_FALSE(created);
  EXPECT_EQ(c.pages_created(), 1u);
  EXPECT_EQ(c.pages_live(), 1u);
}

TEST(SoftwareCache, FramesAreWholePagesAndDistinct) {
  SoftwareCache c;
  bool created = false;
  auto& a = c.ensure_page(1, created);
  auto& b = c.ensure_page(2, created);
  ASSERT_NE(a.frame, nullptr);
  ASSERT_NE(b.frame, nullptr);
  EXPECT_NE(a.frame, b.frame);
  a.frame[kPageBytes - 1] = std::byte{0x5a};  // last byte is addressable
  EXPECT_EQ(a.frame[kPageBytes - 1], std::byte{0x5a});
}

TEST(SoftwareCache, InvalidateAllClearsLinesNotEntries) {
  SoftwareCache c;
  bool created = false;
  for (std::uint32_t id = 0; id < 100; ++id) {
    c.ensure_page(id, created).valid = 0xffffffffu;
  }
  EXPECT_EQ(c.invalidate_all(), 100u * kLinesPerPage);
  EXPECT_EQ(c.pages_live(), 100u);  // entries survive, lines do not
  EXPECT_EQ(c.lookup(7).entry->valid, 0u);
  EXPECT_EQ(c.invalidate_all(), 0u);  // idempotent on an empty cache
}

TEST(SoftwareCache, InvalidateFromProcsIsSelective) {
  SoftwareCache c;
  bool created = false;
  // Page ids encode their home in the top bits (page_home).
  const std::uint32_t home3 = 3u << (kProcShift - 11);
  const std::uint32_t home5 = 5u << (kProcShift - 11);
  c.ensure_page(home3 + 1, created).valid = 0xf;
  c.ensure_page(home5 + 1, created).valid = 0xf0;
  ProcSet victims;
  victims.add(3);
  EXPECT_EQ(c.invalidate_from_procs(victims), 4u);
  EXPECT_EQ(c.lookup(home3 + 1).entry->valid, 0u);
  EXPECT_EQ(c.lookup(home5 + 1).entry->valid, 0xf0u);
}

TEST(SoftwareCache, InvalidateLinesByMask) {
  SoftwareCache c;
  bool created = false;
  c.ensure_page(9, created).valid = 0b1111;
  auto r = c.invalidate_lines(9, 0b0110);
  EXPECT_EQ(r.dropped, 2u);
  EXPECT_EQ(r.remaining, 2u);
  EXPECT_EQ(c.lookup(9).entry->valid, 0b1001u);
  r = c.invalidate_lines(9, 0b0110);  // already gone
  EXPECT_EQ(r.dropped, 0u);
  EXPECT_EQ(r.remaining, 2u);
  r = c.invalidate_lines(9, 0b1111);  // drops the rest of the page
  EXPECT_EQ(r.dropped, 2u);
  EXPECT_EQ(r.remaining, 0u);
  r = c.invalidate_lines(77, 0xff);   // absent page
  EXPECT_EQ(r.dropped, 0u);
  EXPECT_EQ(r.remaining, 0u);
}

TEST(SoftwareCache, SuspectMarking) {
  SoftwareCache c;
  bool created = false;
  auto& e = c.ensure_page(4, created);
  EXPECT_FALSE(e.suspect);
  c.mark_all_suspect();
  EXPECT_TRUE(e.suspect);
}

// Figure 1's claim: average chain length ~ 1 at realistic occupancies.
// Property-style sweep over page populations shaped like real heaps
// (contiguous runs per home processor).
class ChainLength : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChainLength, AverageNearOne) {
  const std::size_t pages = GetParam();
  SoftwareCache c;
  Rng rng(pages);
  bool created = false;
  std::size_t added = 0;
  for (ProcId h = 0; h < 31 && added < pages; ++h) {
    const std::uint32_t base =
        (static_cast<std::uint32_t>(h) << (kProcShift - 11)) +
        static_cast<std::uint32_t>(rng.next_below(32));
    for (std::size_t i = 0; i < pages / 31 + 1 && added < pages; ++i) {
      c.ensure_page(base + static_cast<std::uint32_t>(i), created);
      ++added;
    }
  }
  const auto chains = c.chain_lengths();
  std::uint64_t total = 0;
  for (auto n : chains) total += n;
  EXPECT_EQ(total, added);
  const double avg =
      static_cast<double>(total) / static_cast<double>(chains.size());
  // "In our experience, the average chain length is approximately one."
  EXPECT_LT(avg, pages <= 1024 ? 1.7 : 1.0 + static_cast<double>(pages) / 1024);
}

INSTANTIATE_TEST_SUITE_P(Occupancies, ChainLength,
                         ::testing::Values(64, 163, 502, 1024, 2982));

// --- coherence bookkeeping -------------------------------------------------

TEST(WriteLog, RecordsAndMergesLineMasks) {
  WriteLog log;
  EXPECT_TRUE(log.empty());
  log.record(10, 0b01);
  log.record(10, 0b10);
  log.record(11, 0b100);
  int seen = 0;
  log.for_each([&](std::uint32_t page, std::uint32_t mask) {
    ++seen;
    if (page == 10) {
      EXPECT_EQ(mask, 0b11u);
    }
    if (page == 11) {
      EXPECT_EQ(mask, 0b100u);
    }
  });
  EXPECT_EQ(seen, 2);
  log.clear();
  EXPECT_TRUE(log.empty());
}

// Against a std::map reference, at every log size real runs reach: a
// handful of pages (EM3D, MST, Power) up to the ~1,000 pages paper TreeAdd
// logs between releases. Each round draws writes from a fixed set of
// random pages, with repeats and same-page runs (the last-page fast path),
// checking part-way and at the end before clear() starts the next round.
TEST(WriteLog, MatchesAnOrderedMapReference) {
  Rng rng(0x5eed);
  WriteLog log;
  std::map<std::uint32_t, std::uint32_t> ref;
  const auto check = [&] {
    ASSERT_EQ(log.size(), ref.size());
    ASSERT_EQ(log.empty(), ref.empty());
    auto it = ref.begin();
    log.for_each([&](std::uint32_t page, std::uint32_t mask) {
      ASSERT_NE(it, ref.end());
      EXPECT_EQ(page, it->first);  // ascending, one visit per page
      EXPECT_EQ(mask, it->second);
      ++it;
    });
    EXPECT_EQ(it, ref.end());
  };
  std::size_t largest = 0;
  for (const std::size_t pages : {1, 5, 8, 9, 63, 64, 65, 300, 1100, 1500}) {
    std::vector<std::uint32_t> universe(pages);
    for (std::uint32_t& p : universe) {
      p = static_cast<std::uint32_t>(rng.next_u64());
    }
    const std::size_t writes = 4 * pages + 16;
    for (std::size_t w = 0; w < writes; ++w) {
      const std::uint32_t page = universe[rng.next_below(pages)];
      const std::uint64_t run = 1 + rng.next_below(3);
      for (std::uint64_t r = 0; r < run; ++r) {
        const std::uint32_t mask = 1u << rng.next_below(32);
        log.record(page, mask);
        ref[page] |= mask;
      }
      if (w == writes / 2) check();
    }
    check();
    largest = std::max(largest, log.size());
    log.clear();
    ref.clear();
    check();
  }
  EXPECT_GE(largest, 1100u);
}

TEST(CoherenceDirectory, PagesMaterializeOnDemand) {
  CoherenceDirectory dir;
  EXPECT_EQ(dir.find(5), nullptr);
  dir.page(5).sharers.add(3);
  ASSERT_NE(dir.find(5), nullptr);
  EXPECT_TRUE(dir.find(5)->sharers.contains(3));
  EXPECT_EQ(dir.tracked_pages(), 1u);
}

TEST(ProcSetOps, BasicSetAlgebra) {
  ProcSet s;
  EXPECT_TRUE(s.empty());
  s.add(0);
  s.add(63);
  EXPECT_TRUE(s.contains(0));
  EXPECT_TRUE(s.contains(63));
  EXPECT_FALSE(s.contains(31));
  EXPECT_EQ(s.count(), 2);
  std::set<ProcId> seen;
  s.for_each([&](ProcId p) { seen.insert(p); });
  EXPECT_EQ(seen, (std::set<ProcId>{0, 63}));
  s.remove(0);
  EXPECT_FALSE(s.contains(0));
  s.clear();
  EXPECT_TRUE(s.empty());
}

}  // namespace
}  // namespace olden
