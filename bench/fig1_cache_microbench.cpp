// Figure 1's structural claim: Olden's software cache is a 1024-bucket
// hash of 2 KB pages, and at real occupancies "the average chain length is
// approximately one."
//
// This binary prints the chain-length distribution at the page
// populations each benchmark actually reaches (Table 3's "pages cached").
// host_perf times lookups, fills and invalidation over the same
// populations.
#include <algorithm>
#include <cstdio>

#include "olden/cache/software_cache.hpp"
#include "page_population.hpp"

int main(int argc, char**) {
  // No Machine runs, so there is nothing to observe and no flag to take.
  if (argc > 1) {
    std::fprintf(stderr,
                 "usage: fig1_cache_microbench (takes no arguments)\n");
    return 2;
  }
  std::printf(
      "Figure 1 claim: average chain length ~ 1 at benchmark "
      "occupancies (Table 3 page counts):\n");
  for (std::size_t pages : {163u, 502u, 1604u, 1995u, 2982u, 21749u}) {
    olden::SoftwareCache cache;
    bool created = false;
    for (auto id : olden::bench::page_population(pages, pages)) {
      cache.ensure_page(id, created);
    }
    const auto chains = cache.chain_lengths();
    std::uint64_t total = 0;
    std::uint32_t longest = 0;
    for (auto c : chains) {
      total += c;
      longest = std::max(longest, c);
    }
    std::printf(
        "  %6zu pages: %4zu nonempty buckets, avg chain %.2f, max %u\n",
        pages, chains.size(),
        static_cast<double>(total) / static_cast<double>(chains.size()),
        longest);
  }
  return 0;
}
