// Regenerates Table 2: sequential time, speedups at 1..32 processors under
// the heuristic's choices (local-knowledge coherence, as in the paper's
// runs), and the migrate-only speedup at 32 processors.
//
// The paper's numbers are printed alongside for shape comparison — who
// wins, by roughly what factor, where the M+C benchmarks beat migrate-only.
// Absolute values differ (our substrate is a calibrated simulator and the
// default problem sizes are scaled; pass --paper-size for the original
// sizes).
#include <cstdio>
#include <cstring>
#include <map>
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

struct PaperRow {
  double seq;
  double speedup[6];  // P = 1 2 4 8 16 32
  double migrate_only32;  // < 0: not reported (M-only rows)
};

// Table 2 of the paper, verbatim.
const std::map<std::string, PaperRow> kPaper = {
    {"TreeAdd", {4.49, {0.73, 1.47, 2.93, 5.90, 11.81, 23.4}, -1}},
    {"Power", {286.59, {0.96, 1.94, 3.81, 6.92, 14.85, 27.5}, -1}},
    {"TSP", {43.35, {0.95, 1.92, 3.70, 6.70, 10.08, 15.8}, -1}},
    {"MST", {9.81, {0.96, 1.36, 2.20, 3.43, 4.56, 5.14}, -1}},
    {"Bisort", {31.41, {0.73, 1.35, 2.29, 3.52, 4.92, 6.33}, 6.13}},
    {"Voronoi", {49.73, {0.75, 1.38, 2.41, 4.23, 6.88, 8.76}, 0.47}},
    {"EM3D", {1.21, {0.86, 1.51, 2.69, 4.48, 6.72, 12.0}, 0.05}},
    {"Barnes-Hut", {555.79, {0.74, 1.42, 3.00, 5.29, 8.13, 11.2}, 0.01}},
    {"Perimeter", {2.47, {0.86, 1.70, 3.37, 6.09, 9.86, 14.1}, 2.96}},
    {"Health", {34.19, {0.73, 1.47, 2.93, 5.72, 11.09, 16.42}, 16.52}},
};

double timed_seconds(const Benchmark& b, const BenchResult& r) {
  return b.whole_program_timing() ? r.total_seconds() : r.kernel_seconds();
}

}  // namespace

int main(int argc, char** argv) {
  ObsCli obs;
  obs.parse(&argc, argv, {"--paper-size", "--heuristic"});
  bool paper_size = false;
  profile::FeedbackTable feedback;
  bool use_feedback = false;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (std::strcmp(argv[i], "--paper-size") == 0) {
      paper_size = true;
    } else if (flag_value(argv[i], "--heuristic", &v)) {
      std::string err;
      if (!profile::parse_heuristic_spec(v, &feedback, &use_feedback, &err)) {
        std::fprintf(stderr, "table2_speedups: --heuristic: %s\n",
                     err.c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: table2_speedups [--paper-size] "
                   "[--heuristic=static|profile:FILE]\n"
                   "  --heuristic=SPEC   'static' (default) or 'profile:FILE' "
                   "to apply the\n"
                   "                     per-site feedback a --profile run "
                   "wrote\n%s",
                   ObsCli::usage());
      return 2;
    }
  }

  std::printf(
      "Table 2: speedups (measured | paper). Sequential seconds are "
      "simulated 33 MHz-cycle time%s.\n",
      paper_size ? "" : "; default (scaled) problem sizes");
  std::printf(
      "%-11s %-4s %9s | %41s | %s\n", "Benchmark", "Mech", "Seq(s)",
      "speedup at P = 1     2     4     8    16    32", "Migrate-only(32)");

  // Per benchmark: the sequential baseline, the plan at each P, migrate-only.
  const ProcId kProcs[6] = {1, 2, 4, 8, 16, 32};
  constexpr std::size_t kRow = 8;
  std::vector<Cell> cells;
  for (const Benchmark* b : suite()) {
    cells.push_back({b, 1, Coherence::kLocalKnowledge, Role::kSequential});
    for (const ProcId p : kProcs) cells.push_back({b, p});
    cells.push_back({b, 32, Coherence::kLocalKnowledge, Role::kMigrateOnly});
  }
  BenchConfig base = obs.bench_config();
  base.paper_size = paper_size;
  if (use_feedback) base.feedback = &feedback;
  // Each benchmark's row prints once its last cell is merged.
  bool all_ok = true;
  const auto print_row = [&](std::size_t i,
                             const std::vector<CellResult>& runs) {
    if (i % kRow != kRow - 1) return;
    const std::size_t row = i + 1 - kRow;
    const Benchmark& b = *cells[row].bench;
    bool row_ok = true;
    for (std::size_t c = row; c <= i; ++c) row_ok = row_ok && runs[c].ok;
    all_ok = all_ok && row_ok;
    const PaperRow& pr = kPaper.at(b.name());
    const double seq_s = timed_seconds(b, runs[row].result);
    if (!row_ok) {
      std::printf("%-11s (a cell failed; see stderr)", b.name().c_str());
    } else {
      const BenchResult& r32 = runs[row + 6].result;
      std::printf("%-11s %-4s %8.2fs |", b.name().c_str(),
                  r32.stats.remote_cacheable() == 0 ? "M" : "M+C", seq_s);
      for (std::size_t c = 1; c <= 6; ++c) {
        std::printf(" %5.2f", seq_s / timed_seconds(b, runs[row + c].result));
      }
      std::printf(" |");
      if (pr.migrate_only32 >= 0) {
        std::printf(" %5.2f (paper %.2f)",
                    seq_s / timed_seconds(b, runs[row + 7].result),
                    pr.migrate_only32);
      } else {
        std::printf("   n/a (M row)");
      }
    }
    std::printf("\n%-11s %-4s %8.2fs |", "  (paper)", "", pr.seq);
    for (double v : pr.speedup) std::printf(" %5.2f", v);
    std::printf(" |\n");
  };
  run_cells("table2_speedups", cells, base, 1, print_row);
  std::printf(
      "\nShape checks: TreeAdd/Power scale best; MST degrades with P "
      "(O(N*P) synchronizing migrations); M+C rows beat their migrate-only "
      "column, dramatically for Voronoi/EM3D/Barnes-Hut; Health's M+C is "
      "within noise of migrate-only (too few remote patients to pay for "
      "caching).\n");
  const bool wrote = obs.finish();
  return wrote && all_ok ? 0 : 1;
}
