// bench_cell: run individual (benchmark x coherence-scheme) cells with
// checksum validation — the execution backend of the regression harness
// (tools/bench_runner.py).
//
//   bench_cell --benchmark=TreeAdd[,MST,...] [--schemes=local,global,bilateral]
//              [--nprocs=8] [--tiny | --paper-size] [--jobs=N] [--list]
//
// Each cell runs the simulated machine at a deterministic pinned size,
// validates the result checksum against the host-side sequential
// reference, and labels the observer run "BENCH/<name>/p=N/<scheme>" so
// the stats / binary-trace exports carry one run per cell. Exits 1 on any
// checksum mismatch (a correctness regression is worse than a slow one).
//
// --jobs=N runs the cells on a pool of N host threads. Every cell is an
// independent deterministic Machine (runtime state is per-Machine or
// thread_local), so parallel cells compute exactly the serial results;
// each worker records into a private Observer and the main thread merges
// the records in serial cell order (Observer::adopt_runs_from), so stdout,
// traces and stats are byte-identical to --jobs=1 no matter which cell
// finishes first.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "olden/bench/benchmark.hpp"
#include "olden/bench/obs_cli.hpp"
#include "olden/profile/feedback.hpp"
#include "olden/support/io.hpp"

namespace {

using namespace olden;
using namespace olden::bench;

/// Maps a --schemes token to its coherence protocol: the inverse of
/// to_string(Coherence).
bool scheme_from_name(const std::string& name, Coherence* out) {
  for (const Coherence c : {Coherence::kLocalKnowledge, Coherence::kEagerGlobal,
                            Coherence::kBilateral}) {
    if (name == to_string(c)) {
      *out = c;
      return true;
    }
  }
  return false;
}

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: bench_cell --benchmark=NAME[,NAME...] [options]\n"
               "  --benchmark=A,B    suite benchmarks to run (see --list)\n"
               "  --schemes=A,B      coherence schemes (default "
               "local,global,bilateral)\n"
               "  --nprocs=N         processors per cell (default 8)\n"
               "  --tiny             pinned tiny size (regression harness)\n"
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

struct Cell {
  const Benchmark* b = nullptr;
  Coherence scheme = Coherence::kLocalKnowledge;
  std::string sname;
};

struct CellOutcome {
  std::string line;  ///< stdout row, printed in serial cell order
  std::string err;   ///< stderr diagnostics (mismatch / exception)
  bool ok = true;
  trace::Observer obs;  ///< worker-private record (merged by adopt_runs_from)
};

/// Runs one cell; used verbatim by the serial path (recording straight
/// into the main observer) and the pool (recording into `out->obs`). A
/// throw (a fault-plane watchdog trip, say) fails just this cell: its
/// message goes to stderr and the other cells still run.
void run_cell(const Cell& c, const BenchConfig& base, ObsCli& cli,
              trace::Observer* rec, CellOutcome* out) try {
  BenchConfig cfg = base;
  cfg.scheme = c.scheme;
  cfg.observer = rec;
  const std::string label = "BENCH/" + c.b->name() + "/p=" +
                            std::to_string(cfg.nprocs) + "/" + c.sname;
  const std::map<std::string, std::string> meta = {
      {"benchmark", c.b->name()},
      {"scheme", c.sname},
      {"size",
       cfg.tiny ? "tiny" : (cfg.paper_size ? "paper" : "default")}};
  if (rec == cli.observer()) {
    cli.begin_run(label, meta);
  } else if (rec != nullptr) {
    rec->begin_run(label, meta);
  }
  const BenchResult r = c.b->run(cfg);
  const std::uint64_t want = c.b->reference_checksum(cfg);
  out->ok = r.checksum == want;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%-12s %-9s p=%-2u makespan %12llu cycles  checksum %s\n",
                c.b->name().c_str(), c.sname.c_str(), cfg.nprocs,
                static_cast<unsigned long long>(r.total_cycles),
                out->ok ? "ok" : "MISMATCH");
  out->line = buf;
  if (!out->ok) {
    std::snprintf(buf, sizeof buf,
                  "bench_cell: %s/%s checksum mismatch: got %llu, want %llu\n",
                  c.b->name().c_str(), c.sname.c_str(),
                  static_cast<unsigned long long>(r.checksum),
                  static_cast<unsigned long long>(want));
    out->err = buf;
  }
} catch (const std::exception& e) {
  out->ok = false;
  out->err = "bench_cell: " + c.b->name() + "/" + c.sname +
             " failed: " + e.what() + "\n";
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
  for (const std::string& name : split_commas(bench_str)) {
    const Benchmark* b = find_benchmark(name);
    if (b == nullptr) {
      std::fprintf(stderr, "bench_cell: unknown benchmark '%s' (try --list)\n",
                   name.c_str());
      return 2;
    }
    for (const std::string& sname : split_commas(schemes_str)) {
      Cell c;
      c.b = b;
      if (!scheme_from_name(sname, &c.scheme)) {
        std::fprintf(stderr,
                     "bench_cell: unknown scheme '%s' (local, global, "
                     "bilateral)\n",
                     sname.c_str());
        return 2;
      }
      c.sname = sname;
      cells.push_back(std::move(c));
    }
  }

  BenchConfig base;
  base.nprocs = static_cast<ProcId>(nprocs);
  base.tiny = tiny;
  base.paper_size = paper_size;
  base.faults = obs.faults();
  base.fault_seed = obs.fault_seed();
  if (use_feedback) base.feedback = &feedback;

  bool ok = true;
  if (jobs <= 1 || cells.size() <= 1) {
    for (const Cell& c : cells) {
      CellOutcome out;
      run_cell(c, base, obs, obs.observer(), &out);
      std::fputs(out.line.c_str(), stdout);
      if (!out.err.empty()) std::fputs(out.err.c_str(), stderr);
      ok = ok && out.ok;
    }
  } else {
    trace::Observer* main_obs = obs.observer();
    std::vector<CellOutcome> outs(cells.size());
    if (main_obs != nullptr) {
      // Workers record into private observers configured like the main
      // one. Each starts from the full retention limit — a superset of
      // whatever budget the serial run would have left for that cell —
      // and adopt_runs_from re-applies the cross-run limit at merge time.
      for (CellOutcome& o : outs) {
        o.obs.set_trace_enabled(main_obs->trace_enabled());
        o.obs.set_event_limit(main_obs->event_limit());
        if (main_obs->profile_enabled()) o.obs.enable_profile();
      }
    }
    std::atomic<std::size_t> next{0};
    const std::size_t nworkers =
        jobs < cells.size() ? static_cast<std::size_t>(jobs) : cells.size();
    std::vector<std::thread> pool;
    pool.reserve(nworkers);
    for (std::size_t w = 0; w < nworkers; ++w) {
      pool.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1); i < cells.size();
             i = next.fetch_add(1)) {
          run_cell(cells[i], base, obs,
                   main_obs != nullptr ? &outs[i].obs : nullptr, &outs[i]);
        }
      });
    }
    for (std::thread& t : pool) t.join();
    for (std::size_t i = 0; i < cells.size(); ++i) {
      std::fputs(outs[i].line.c_str(), stdout);
      if (!outs[i].err.empty()) std::fputs(outs[i].err.c_str(), stderr);
      ok = ok && outs[i].ok;
      if (main_obs != nullptr) main_obs->adopt_runs_from(outs[i].obs);
    }
  }
  if (!obs.finish()) ok = false;
  return ok ? 0 : 1;
}
