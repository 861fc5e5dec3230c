// host_perf: wall-clock (host-time) benchmark of the simulator itself.
//
// Every other binary in bench/ reports *virtual* cycles — the machine being
// simulated. This one times the machine doing the simulating: it runs the
// full --tiny regression matrix (ten benchmarks x three coherence schemes,
// the exact cells tools/bench_runner.py pins) with no observer attached and
// reports host milliseconds per cell, best-of-N. The paper's makespans are
// untouched by any host-side optimization, so this is the number that
// measures "runs as fast as the hardware allows" for the simulator's own
// hot paths: cache translation, the coherence directory, write logs and the
// event wheel.
//
//   host_perf [--repeat=N] [--nprocs=N] [--benchmarks=A,B,...]
//             [--schemes=A,B] [--jobs=N] [--json=FILE]
//
// --jobs=N times the cells on a pool of N host threads (cells are
// independent deterministic Machines). Per-cell wall times measured under
// a loaded pool are noisier than serial ones — use --jobs for throughput
// (total suite wall-clock), --jobs=1 when comparing per-cell numbers.
//
// The JSON document is schema-versioned (host_bench_schema_version) and is
// what tools/host_bench.py diffs against bench/baselines/HOST_seed.json.
// Checksums are validated against the sequential reference on every run, so
// a fast-but-wrong simulator fails here too (exit 1); bad flags exit 2.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "olden/bench/benchmark.hpp"
#include "olden/support/io.hpp"

namespace {

using namespace olden;
using namespace olden::bench;

constexpr int kHostBenchSchemaVersion = 1;

struct SchemeName {
  Coherence scheme;
  const char* name;
};
constexpr SchemeName kAllSchemes[] = {
    {Coherence::kLocalKnowledge, "local"},
    {Coherence::kEagerGlobal, "global"},
    {Coherence::kBilateral, "bilateral"},
};

struct CellTiming {
  std::string benchmark;
  std::string scheme;
  double best_ms = 0.0;
  std::uint64_t makespan_cycles = 0;
  std::string error;
};

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

  std::vector<const Benchmark*> benches;
  if (benchmarks_str.empty()) {
    benches = suite();
  } else {
    for (const std::string& name : split_commas(benchmarks_str)) {
      const Benchmark* b = find_benchmark(name);
      if (b == nullptr) {
        std::fprintf(stderr, "host_perf: unknown benchmark '%s'\n",
                     name.c_str());
        return 2;
      }
      benches.push_back(b);
    }
  }
  std::vector<SchemeName> schemes;
  for (const std::string& name : split_commas(schemes_str)) {
    bool found = false;
    for (const SchemeName& s : kAllSchemes) {
      if (name == s.name) {
        schemes.push_back(s);
        found = true;
      }
    }
    if (!found) {
      std::fprintf(stderr,
                   "host_perf: unknown scheme '%s' (local, global, "
                   "bilateral)\n",
                   name.c_str());
      return 2;
    }
  }

  using Clock = std::chrono::steady_clock;
  struct CellSpec {
    const Benchmark* b;
    SchemeName s;
  };
  std::vector<CellSpec> specs;
  for (const Benchmark* b : benches) {
    for (const SchemeName& s : schemes) specs.push_back({b, s});
  }
  std::vector<CellTiming> cells(specs.size());
  const bool serial = jobs <= 1 || specs.size() <= 1;
  auto time_cell = [&](std::size_t i) {
    const Benchmark* b = specs[i].b;
    const SchemeName& s = specs[i].s;
    BenchConfig cfg;
    cfg.nprocs = static_cast<ProcId>(nprocs);
    cfg.scheme = s.scheme;
    cfg.tiny = true;
    CellTiming& cell = cells[i];
    cell.benchmark = b->name();
    cell.scheme = s.name;
    cell.best_ms = -1.0;
    for (std::uint64_t r = 0; r < repeat; ++r) {
      const auto t0 = Clock::now();
      const BenchResult res = b->run(cfg);
      const auto t1 = Clock::now();
      if (res.checksum != b->reference_checksum(cfg)) {
        cell.error = "host_perf: " + b->name() + "/" + s.name +
                     " checksum mismatch\n";
        return;
      }
      cell.makespan_cycles = res.total_cycles;
      const double ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      if (cell.best_ms < 0.0 || ms < cell.best_ms) cell.best_ms = ms;
    }
    if (serial) {
      std::printf("%-12s %-9s %8.2f ms\n", cell.benchmark.c_str(),
                  cell.scheme.c_str(), cell.best_ms);
      std::fflush(stdout);
    }
  };
  if (serial) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      time_cell(i);
      if (!cells[i].error.empty()) {
        std::fputs(cells[i].error.c_str(), stderr);
        return 1;
      }
    }
  } else {
    std::atomic<std::size_t> next{0};
    const std::size_t nworkers =
        jobs < specs.size() ? static_cast<std::size_t>(jobs) : specs.size();
    std::vector<std::thread> pool;
    pool.reserve(nworkers);
    for (std::size_t w = 0; w < nworkers; ++w) {
      pool.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1); i < specs.size();
             i = next.fetch_add(1)) {
          try {
            time_cell(i);
          } catch (const std::exception& e) {
            cells[i].error = "host_perf: " + specs[i].b->name() + "/" +
                             specs[i].s.name + " failed: " + e.what() + "\n";
          }
        }
      });
    }
    for (std::thread& t : pool) t.join();
    bool failed = false;
    for (const CellTiming& c : cells) {
      if (!c.error.empty()) {
        std::fputs(c.error.c_str(), stderr);
        failed = true;
      } else {
        std::printf("%-12s %-9s %8.2f ms\n", c.benchmark.c_str(),
                    c.scheme.c_str(), c.best_ms);
      }
    }
    if (failed) return 1;
  }
  double total_best_ms = 0.0;
  for (const CellTiming& c : cells) total_best_ms += c.best_ms;
  std::printf("%-12s %-9s %8.2f ms  (%zu cells, best of %" PRIu64
              ", p=%" PRIu64 ", tiny)\n",
              "TOTAL", "", total_best_ms, cells.size(), repeat, nprocs);

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
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const CellTiming& c = cells[i];
      doc += "  {\"benchmark\": \"";
      append_escaped(doc, c.benchmark);
      doc += "\", \"scheme\": \"";
      append_escaped(doc, c.scheme);
      std::snprintf(buf, sizeof buf,
                    "\", \"best_ms\": %.3f, \"makespan_cycles\": %llu}%s\n",
                    c.best_ms,
                    static_cast<unsigned long long>(c.makespan_cycles),
                    i + 1 < cells.size() ? "," : "");
      doc += buf;
    }
    std::snprintf(buf, sizeof buf, " ],\n \"total_best_ms\": %.3f\n}\n",
                  total_best_ms);
    doc += buf;
    std::string err;
    if (!write_file(json_path, doc, &err)) {
      std::fprintf(stderr, "host_perf: %s\n", err.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
