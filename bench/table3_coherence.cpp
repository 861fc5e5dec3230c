// Regenerates Table 3 (Appendix A): caching statistics on 32 processors
// for the six migration+caching benchmarks, under the three coherence
// schemes — local knowledge, eager release ("global"), and bilateral.
//
// Columns mirror the paper: cacheable writes and reads (counts and the
// percentage that reference remote memory — identical across schemes), the
// percentage of remote references that miss under each scheme, and the
// total number of pages ever cached.
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "olden/bench/benchmark.hpp"
#include "olden/bench/obs_cli.hpp"
#include "olden/fault/fault_plane.hpp"

namespace {

using namespace olden;
using namespace olden::bench;

struct PaperRow {
  double writes_k, writes_pct, reads_k, reads_pct;
  double miss_local, miss_global, miss_bilateral;
  unsigned pages;
};

// Table 3 of the paper, verbatim (counts in thousands).
const std::map<std::string, PaperRow> kPaper = {
    {"Bisort", {8208, 0.045, 32617, 0.054, 28.6, 24.9, 29.2, 1604}},
    {"Voronoi", {9825, 1.57, 42359, 1.26, 5.89, 5.89, 5.89, 2982}},
    {"EM3D", {0, 0, 839, 19.4, 6.18, 6.18, 6.18, 1995}},
    {"Barnes-Hut", {2707, 18.3, 73601, 55.6, 0.815, 0.563, 0.792, 21749}},
    {"Perimeter", {0, 0, 1018, 2.02, 8.80, 8.63, 8.80, 502}},
    {"Health", {8861, 0.063, 33405, 0.019, 87.0, 10.3, 87.0, 163}},
};

const char* kMCBenchmarks[] = {"Bisort",     "Voronoi",   "EM3D",
                               "Barnes-Hut", "Perimeter", "Health"};

}  // namespace

int main(int argc, char** argv) try {
  ObsCli obs;
  obs.parse(&argc, argv, {"--paper-size"});
  bool paper_size = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--paper-size") == 0) {
      paper_size = true;
    } else {
      std::fprintf(stderr, "usage: table3_coherence [--paper-size]\n%s",
                   ObsCli::usage());
      return 2;
    }
  }

  std::printf("Table 3: caching statistics on 32 processors%s\n",
              paper_size ? "" : " (scaled problem sizes)");
  std::printf("%-11s | %13s | %13s | %26s | %10s\n", "", "Cacheable Wr",
              "Cacheable Rd", "%% of remote refs that miss", "Pages");
  std::printf("%-11s | %7s %5s | %7s %5s | %8s %8s %8s | %10s\n",
              "Benchmark", "(1000s)", "%rem", "(1000s)", "%rem", "local",
              "global", "bilat", "cached");

  for (const char* name : kMCBenchmarks) {
    const Benchmark* b = find_benchmark(name);
    double miss[3] = {0, 0, 0};
    MachineStats local_stats;
    std::uint64_t pages = 0;
    const Coherence schemes[3] = {Coherence::kLocalKnowledge,
                                  Coherence::kEagerGlobal,
                                  Coherence::kBilateral};
    for (int s = 0; s < 3; ++s) {
      BenchConfig cfg;
      cfg.paper_size = paper_size;
      cfg.nprocs = 32;
      cfg.scheme = schemes[s];
      cfg.observer = obs.observer();
      cfg.faults = obs.faults();
      cfg.fault_seed = obs.fault_seed();
      obs.begin_run(std::string(name) + "/p=32/" + to_string(schemes[s]),
                    {{"benchmark", name}});
      const BenchResult r = b->run(cfg);
      miss[s] = r.stats.remote_miss_percent();
      if (s == 0) {
        local_stats = r.stats;
        pages = r.stats.pages_cached;
      }
    }
    const PaperRow& pr = kPaper.at(name);
    std::printf("%-11s | %7.0f %5.2f | %7.0f %5.2f | %8.2f %8.2f %8.2f | %10llu\n",
                name, local_stats.cacheable_writes / 1000.0,
                local_stats.percent_writes_remote(),
                local_stats.cacheable_reads / 1000.0,
                local_stats.percent_reads_remote(), miss[0], miss[1], miss[2],
                static_cast<unsigned long long>(pages));
    std::printf("%-11s | %7.0f %5.2f | %7.0f %5.2f | %8.2f %8.2f %8.2f | %10u\n",
                "  (paper)", pr.writes_k, pr.writes_pct, pr.reads_k,
                pr.reads_pct, pr.miss_local, pr.miss_global,
                pr.miss_bilateral, pr.pages);
  }
  std::printf(
      "\nShape checks: the global scheme never misses more than local "
      "(line-precise invalidations); bilateral sits near local; Health's "
      "miss %% collapses under global knowledge; remote fractions are "
      "small everywhere but Barnes-Hut, whose cached tree dominates.\n");
  return obs.finish() ? 0 : 1;
} catch (const olden::fault::WatchdogError& e) {
  // A fault plane that ran out of retransmissions: an error, not a
  // crash (docs/ROBUSTNESS.md).
  std::fprintf(stderr, "table3_coherence: %s\n", e.what());
  return 1;
}
