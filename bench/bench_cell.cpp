// bench_cell: run individual (benchmark x coherence-scheme) cells with
// checksum validation. Its --tiny cells are the ones the tests pin
// (docs/ANALYSIS.md, "When a pin moves").
//
//   bench_cell --benchmark=TreeAdd[,MST,...] [--schemes=local,global,bilateral]
//              [--nprocs=8] [--tiny | --paper-size] [--jobs=N] [--list]
//
// Each cell runs the simulated machine at a deterministic pinned size
// through the cell runner (src/olden/bench/runner.hpp), which validates
// the result checksum against the host-side sequential reference and
// labels the observer run "BENCH/<name>/p=N/<scheme>", so the stats /
// binary-trace exports carry one run per cell. Exits 1 on any checksum
// mismatch (a correctness regression is worse than a slow one).
//
// --jobs=N runs the cells on N host threads; stdout, traces, stats and
// feedback are byte-identical at every N (see runner.hpp).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "olden/bench/benchmark.hpp"
#include "olden/bench/obs_cli.hpp"
#include "olden/bench/runner.hpp"
#include "olden/profile/feedback.hpp"
#include "olden/support/io.hpp"

namespace {

using namespace olden;
using namespace olden::bench;

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: bench_cell --benchmark=NAME[,NAME...] [options]\n"
               "  --benchmark=A,B    suite benchmarks to run (see --list)\n"
               "  --schemes=A,B      coherence schemes (default "
               "local,global,bilateral)\n"
               "  --nprocs=N         processors per cell (default 8)\n"
               "  --tiny             pinned tiny size (the tested cells)\n"
               "  --paper-size       original paper problem size\n"
               "  --jobs=N           run cells on N host threads (default 1;\n"
               "                     output identical to serial)\n"
               "  --heuristic=SPEC   'static' (default) or 'profile:FILE' to\n"
               "                     apply the per-site feedback a --profile\n"
               "                     run wrote (see docs/PROFILING.md)\n"
               "  --list             print suite benchmark names and exit\n"
               "%s",
               ObsCli::usage());
}

}  // namespace

int main(int argc, char** argv) {
  ObsCli obs;
  obs.parse(&argc, argv,
            {"--benchmark", "--schemes", "--nprocs", "--tiny", "--paper-size",
             "--jobs", "--heuristic", "--list"});

  std::string bench_str;
  std::string schemes_str = "local,global,bilateral";
  std::uint64_t nprocs = 8;
  std::uint64_t jobs = 1;
  bool tiny = false;
  bool paper_size = false;
  profile::FeedbackTable feedback;
  bool use_feedback = false;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (flag_value(argv[i], "--benchmark", &v)) {
      bench_str = v;
    } else if (flag_value(argv[i], "--heuristic", &v)) {
      std::string err;
      if (!profile::parse_heuristic_spec(v, &feedback, &use_feedback, &err)) {
        std::fprintf(stderr, "bench_cell: --heuristic: %s\n", err.c_str());
        return 2;
      }
    } else if (flag_value(argv[i], "--schemes", &v)) {
      schemes_str = v;
    } else if (flag_value(argv[i], "--nprocs", &v)) {
      if (!parse_u64_strict(v, &nprocs) || nprocs == 0 || nprocs > kMaxProcs) {
        std::fprintf(stderr, "bench_cell: --nprocs must be in [1, %u]\n",
                     static_cast<unsigned>(kMaxProcs));
        return 2;
      }
    } else if (flag_value(argv[i], "--jobs", &v)) {
      if (!parse_u64_strict(v, &jobs) || jobs == 0) {
        std::fprintf(stderr, "bench_cell: --jobs must be a positive integer\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--tiny") == 0) {
      tiny = true;
    } else if (std::strcmp(argv[i], "--paper-size") == 0) {
      paper_size = true;
    } else if (std::strcmp(argv[i], "--list") == 0) {
      for (const Benchmark* b : suite()) std::printf("%s\n", b->name().c_str());
      return 0;
    } else {
      usage(stderr);
      return 2;
    }
  }
  if (bench_str.empty()) {
    usage(stderr);
    return 2;
  }

  std::vector<Cell> cells;
  std::string err;
  if (!grid_cells(bench_str, schemes_str, static_cast<ProcId>(nprocs), &cells,
                  &err)) {
    std::fprintf(stderr, "bench_cell: %s\n", err.c_str());
    return 2;
  }

  BenchConfig base = obs.bench_config();
  base.tiny = tiny;
  base.paper_size = paper_size;
  if (use_feedback) base.feedback = &feedback;

  bool ok = true;
  run_cells("bench_cell", cells, base, jobs,
            [&](std::size_t i, const std::vector<CellResult>& runs) {
              ok = ok && runs[i].ok;
              if (!runs[i].ok) return;  // the runner named it on stderr
              std::printf(
                  "%-12s %-9s p=%-2u makespan %12llu cycles  checksum ok\n",
                  cells[i].bench->name().c_str(), to_string(cells[i].scheme),
                  cells[i].nprocs,
                  static_cast<unsigned long long>(runs[i].result.total_cycles));
            });
  if (!obs.finish()) ok = false;
  return ok ? 0 : 1;
}
