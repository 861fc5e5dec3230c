// Regenerates Table 1: the benchmark suite inventory, with a quick
// correctness pass (each benchmark's simulated checksum vs. its host
// reference at 4 processors). A mismatch is named on stderr and makes the
// binary exit 1.
#include <cstdio>
#include <vector>

#include "olden/bench/benchmark.hpp"
#include "olden/bench/obs_cli.hpp"
#include "olden/bench/runner.hpp"

int main(int argc, char** argv) {
  using namespace olden::bench;
  ObsCli obs;
  obs.parse(&argc, argv);
  if (argc > 1) {
    std::fprintf(stderr, "usage: table1_suite\n%s", ObsCli::usage());
    return 2;
  }
  std::vector<Cell> cells;
  for (const Benchmark* b : suite()) cells.push_back({b, 4});
  std::printf("Table 1: Benchmark Descriptions\n");
  std::printf("%-11s %-62s %-16s %s\n", "Benchmark", "Description",
              "Problem Size", "verified");
  bool all_ok = true;
  const auto print_row = [&](std::size_t i,
                             const std::vector<CellResult>& runs) {
    const Benchmark* b = cells[i].bench;
    std::printf("%-11s %-62s %-16s %s\n", b->name().c_str(),
                b->description().c_str(), b->problem_size(true).c_str(),
                runs[i].ok ? "ok" : "FAILED");
    all_ok = all_ok && runs[i].ok;
  };
  run_cells("table1_suite", cells, obs.bench_config(), 1, print_row);
  const bool wrote = obs.finish();
  return wrote && all_ok ? 0 : 1;
}
