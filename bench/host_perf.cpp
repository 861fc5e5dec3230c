// host_perf: wall-clock (host-time) benchmark of the simulator itself.
//
// Every other binary in bench/ reports *virtual* cycles — the machine being
// simulated. This one times the machine doing the simulating: it runs the
// 30 --tiny cells (ten benchmarks x three coherence schemes, the cells the
// equivalence tests pin) with no observer attached and reports host
// milliseconds per cell, best-of-N. The paper's makespans are
// untouched by any host-side optimization, so this is the number that
// measures "runs as fast as the hardware allows" for the simulator's own
// hot paths: cache translation, the coherence directory, write logs and the
// event wheel.
//
//   host_perf [--repeat=N] [--nprocs=N] [--benchmarks=A,B,...]
//             [--schemes=A,B] [--jobs=N] [--json=FILE]
//
// A cell's repetitions run back to back through the cell runner
// (src/olden/bench/runner.hpp), on --jobs=N host threads. Per-cell times
// under a loaded pool are noisier than serial ones — use --jobs for
// throughput (total suite wall-clock), --jobs=1 for per-cell numbers.
//
// The JSON document is schema-versioned (host_bench_schema_version) and is
// what tools/host_bench.py diffs against bench/baselines/HOST_seed.json.
// Checksums are validated against the sequential reference on every run, so
// a fast-but-wrong simulator fails here too (exit 1); bad flags exit 2.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "olden/bench/benchmark.hpp"
#include "olden/bench/runner.hpp"
#include "olden/support/io.hpp"

namespace {

using namespace olden;
using namespace olden::bench;

constexpr int kHostBenchSchemaVersion = 1;

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: host_perf [options]\n"
               "  --repeat=N         timing repetitions per cell, best "
               "reported (default 3)\n"
               "  --nprocs=N         processors per cell (default 8)\n"
               "  --benchmarks=A,B   subset of the suite (default: all ten)\n"
               "  --schemes=A,B      coherence schemes (default "
               "local,global,bilateral)\n"
               "  --jobs=N           time cells on N host threads (default 1; "
               "per-cell ms\n"
               "                     is noisier under a loaded pool)\n"
               "  --json=FILE        write the schema-versioned timing "
               "document\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t repeat = 3;
  std::uint64_t nprocs = 8;
  std::uint64_t jobs = 1;
  std::string benchmarks_str;
  std::string schemes_str = "local,global,bilateral";
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (flag_value(argv[i], "--repeat", &v)) {
      if (!parse_u64_strict(v, &repeat) || repeat == 0) {
        std::fprintf(stderr, "host_perf: --repeat must be a positive integer\n");
        return 2;
      }
    } else if (flag_value(argv[i], "--nprocs", &v)) {
      if (!parse_u64_strict(v, &nprocs) || nprocs == 0 || nprocs > kMaxProcs) {
        std::fprintf(stderr, "host_perf: --nprocs must be in [1, %u]\n",
                     static_cast<unsigned>(kMaxProcs));
        return 2;
      }
    } else if (flag_value(argv[i], "--jobs", &v)) {
      if (!parse_u64_strict(v, &jobs) || jobs == 0) {
        std::fprintf(stderr, "host_perf: --jobs must be a positive integer\n");
        return 2;
      }
    } else if (flag_value(argv[i], "--benchmarks", &v)) {
      benchmarks_str = v;
    } else if (flag_value(argv[i], "--schemes", &v)) {
      schemes_str = v;
    } else if (flag_value(argv[i], "--json", &v)) {
      json_path = v;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      usage(stdout);
      return 0;
    } else {
      usage(stderr);
      return 2;
    }
  }

  std::vector<Cell> specs;
  std::string err;
  if (!grid_cells(benchmarks_str, schemes_str, static_cast<ProcId>(nprocs),
                  &specs, &err)) {
    std::fprintf(stderr, "host_perf: %s\n", err.c_str());
    return 2;
  }
  // Each cell's `repeat` runs are cells in a row; the best is reported.
  std::vector<Cell> cells;
  for (const Cell& c : specs) cells.insert(cells.end(), repeat, c);
  bool ok = true;
  std::vector<double> best_ms(specs.size(), -1.0);
  double total_best_ms = 0.0;
  const std::vector<CellResult> runs = run_cells(
      "host_perf", cells, {.tiny = true}, jobs,
      [&](std::size_t i, const std::vector<CellResult>& done) {
        ok = ok && done[i].ok;  // the runner named a failed cell on stderr
        double& best = best_ms[i / repeat];
        if (best < 0.0 || done[i].run_ms < best) best = done[i].run_ms;
        if (!ok || (i + 1) % repeat != 0) return;
        std::printf("%-12s %-9s %8.2f ms\n", cells[i].bench->name().c_str(),
                    to_string(cells[i].scheme), best);
        std::fflush(stdout);
        total_best_ms += best;
      });
  if (!ok) return 1;
  std::printf("%-12s %-9s %8.2f ms  (%zu cells, best of %" PRIu64
              ", p=%" PRIu64 ", tiny)\n",
              "TOTAL", "", total_best_ms, specs.size(), repeat, nprocs);

  if (!json_path.empty()) {
    std::string doc;
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\n \"host_bench_schema_version\": %d,\n"
                  " \"generator\": \"host_perf\",\n"
                  " \"mode\": \"tiny\",\n"
                  " \"nprocs\": %" PRIu64 ",\n \"repeat\": %" PRIu64
                  ",\n \"jobs\": %" PRIu64 ",\n"
                  " \"cells\": [\n",
                  kHostBenchSchemaVersion, nprocs, repeat, jobs);
    doc += buf;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      doc += "  {\"benchmark\": \"";
      append_escaped(doc, specs[i].bench->name());
      doc += "\", \"scheme\": \"";
      append_escaped(doc, to_string(specs[i].scheme));
      std::snprintf(
          buf, sizeof buf,
          "\", \"best_ms\": %.3f, \"makespan_cycles\": %llu}%s\n",
          best_ms[i],
          static_cast<unsigned long long>(
              runs[i * repeat].result.total_cycles),
          i + 1 < specs.size() ? "," : "");
      doc += buf;
    }
    std::snprintf(buf, sizeof buf, " ],\n \"total_best_ms\": %.3f\n}\n",
                  total_best_ms);
    doc += buf;
    if (!write_file(json_path, doc, &err)) {
      std::fprintf(stderr, "host_perf: %s\n", err.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
