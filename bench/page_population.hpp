// The page populations Figure 1's cache is loaded with, shared by
// fig1_cache_microbench (chain lengths) and host_perf (lookup costs).
#pragma once

#include <cstdint>
#include <vector>

#include "olden/mem/global_addr.hpp"
#include "olden/support/rng.hpp"

namespace olden::bench {

/// Page ids as a benchmark would produce: per-processor heaps allocate
/// consecutively, so each remote home contributes a contiguous run.
inline std::vector<std::uint32_t> page_population(std::size_t pages,
                                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint32_t> ids;
  ids.reserve(pages);
  const std::uint32_t homes = 31;
  for (std::uint32_t h = 0; h < homes; ++h) {
    const auto share = pages / homes + (h < pages % homes ? 1 : 0);
    const std::uint32_t base =
        (h << (kProcShift - 11)) + static_cast<std::uint32_t>(
                                       rng.next_below(64));
    for (std::uint32_t i = 0; i < share; ++i) ids.push_back(base + i);
  }
  return ids;
}

}  // namespace olden::bench
