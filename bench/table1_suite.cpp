// Regenerates Table 1: the benchmark suite inventory, with a quick
// correctness pass (each benchmark's simulated checksum vs. its host
// reference at 4 processors). A mismatch is named on stderr and makes the
// binary exit 1.
#include <cstdint>
#include <cstdio>

#include "olden/bench/benchmark.hpp"
#include "olden/bench/obs_cli.hpp"
#include "olden/fault/fault_plane.hpp"

int main(int argc, char** argv) try {
  using namespace olden::bench;
  ObsCli obs;
  obs.parse(&argc, argv);
  if (argc > 1) {
    std::fprintf(stderr, "usage: table1_suite\n%s", ObsCli::usage());
    return 2;
  }
  std::printf("Table 1: Benchmark Descriptions\n");
  std::printf("%-11s %-62s %-16s %s\n", "Benchmark", "Description",
              "Problem Size", "verified");
  bool all_ok = true;
  for (const Benchmark* b : suite()) {
    BenchConfig cfg;
    cfg.nprocs = 4;
    cfg.observer = obs.observer();
    cfg.faults = obs.faults();
    cfg.fault_seed = obs.fault_seed();
    obs.begin_run(b->name() + "/p=4", {{"benchmark", b->name()}});
    const BenchResult r = b->run(cfg);
    const std::uint64_t want = b->reference_checksum(cfg);
    const bool ok = r.checksum == want;
    std::printf("%-11s %-62s %-16s %s\n", b->name().c_str(),
                b->description().c_str(), b->problem_size(true).c_str(),
                ok ? "ok" : "MISMATCH");
    if (!ok) {
      std::fprintf(stderr,
                   "table1_suite: %s checksum mismatch: got %llu, want %llu\n",
                   b->name().c_str(),
                   static_cast<unsigned long long>(r.checksum),
                   static_cast<unsigned long long>(want));
      all_ok = false;
    }
  }
  const bool wrote = obs.finish();
  return wrote && all_ok ? 0 : 1;
} catch (const olden::fault::WatchdogError& e) {
  // A fault plane that ran out of retransmissions: an error, not a
  // crash (docs/ROBUSTNESS.md).
  std::fprintf(stderr, "table1_suite: %s\n", e.what());
  return 1;
}
