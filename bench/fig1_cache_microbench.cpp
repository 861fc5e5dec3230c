// Figure 1's structural claim: Olden's software cache is a 1024-bucket
// hash of 2 KB pages, and at real occupancies "the average chain length is
// approximately one."
//
// This binary (google-benchmark) measures the host cost of the lookup and
// fill paths, and prints the chain-length distribution at the page
// populations each benchmark actually reaches (Table 3's "pages cached").
#include <benchmark/benchmark.h>

#include <cstdio>

#include "olden/cache/software_cache.hpp"
#include "olden/support/rng.hpp"

namespace {

using namespace olden;

/// Page ids as a benchmark would produce: per-processor heaps allocate
/// consecutively, so each remote home contributes a contiguous run.
std::vector<std::uint32_t> page_population(std::size_t pages,
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

void BM_LookupHit(benchmark::State& state) {
  SoftwareCache cache;
  const auto ids = page_population(static_cast<std::size_t>(state.range(0)),
                                   1234);
  bool created = false;
  for (auto id : ids) cache.ensure_page(id, created);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(ids[i]).entry);
    i = (i + 1) % ids.size();
  }
}
BENCHMARK(BM_LookupHit)->Arg(163)->Arg(1604)->Arg(2982)->Arg(21749);

void BM_LookupMiss(benchmark::State& state) {
  SoftwareCache cache;
  const auto ids = page_population(2000, 99);
  bool created = false;
  for (auto id : ids) cache.ensure_page(id, created);
  std::uint32_t probe = 0x03c00000;  // a home no population uses
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(probe).entry);
    ++probe;
  }
}
BENCHMARK(BM_LookupMiss);

void BM_PageFill(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    SoftwareCache cache;
    state.ResumeTiming();
    bool created = false;
    for (std::uint32_t id = 0; id < 1024; ++id) {
      benchmark::DoNotOptimize(&cache.ensure_page(id * 7 + 1, created));
    }
  }
}
BENCHMARK(BM_PageFill);

void BM_InvalidateAll(benchmark::State& state) {
  SoftwareCache cache;
  const auto ids = page_population(2000, 5);
  bool created = false;
  for (auto id : ids) {
    cache.ensure_page(id, created).valid = 0xffffffffu;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.invalidate_all());
    for (auto id : ids) cache.lookup(id).entry->valid = 0xffffffffu;
  }
}
BENCHMARK(BM_InvalidateAll);

void report_chains() {
  std::printf(
      "\nFigure 1 claim: average chain length ~ 1 at benchmark "
      "occupancies (Table 3 page counts):\n");
  for (std::size_t pages : {163u, 502u, 1604u, 1995u, 2982u, 21749u}) {
    SoftwareCache cache;
    bool created = false;
    for (auto id : page_population(pages, pages)) {
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
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  report_chains();
  return 0;
}
