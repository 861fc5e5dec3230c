#include "olden/bench/runner.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "olden/analyze/trace_reader.hpp"
#include "olden/support/io.hpp"

namespace olden::bench {

bool grid_cells(const std::string& benchmarks, const std::string& schemes,
                ProcId nprocs, std::vector<Cell>* out, std::string* err) {
  std::vector<const Benchmark*> benches = suite();
  if (!benchmarks.empty()) {
    benches.clear();
    for (const std::string& name : split_commas(benchmarks)) {
      benches.push_back(find_benchmark(name));
      if (benches.back() == nullptr) {
        *err = "unknown benchmark '" + name + "'";
        return false;
      }
    }
  }
  for (const Benchmark* b : benches) {
    for (const std::string& name : split_commas(schemes)) {
      const Coherence* s = std::find_if(
          std::begin(kSchemes), std::end(kSchemes),
          [&](Coherence c) { return name == to_string(c); });
      if (s == std::end(kSchemes)) {
        *err = "unknown scheme '" + name + "' (local, global, bilateral)";
        return false;
      }
      out->push_back({b, nprocs, *s});
    }
  }
  return true;
}

namespace {

BenchConfig cell_config(const Cell& c, const BenchConfig& base) {
  BenchConfig cfg = base;
  cfg.nprocs = c.nprocs;
  cfg.scheme = c.scheme;
  cfg.sequential_baseline = c.role == Role::kSequential;
  cfg.migrate_only = c.role == Role::kMigrateOnly;
  if (c.role != Role::kPlan) cfg.feedback = nullptr;
  return cfg;
}

std::string cell_label(const Cell& c) {
  return "BENCH/" + c.bench->name() + "/p=" + std::to_string(c.nprocs) +
         "/" + to_string(c.scheme) +
         (c.role == Role::kSequential    ? "/seq"
          : c.role == Role::kMigrateOnly ? "/migrate-only"
                                         : "");
}

std::map<std::string, std::string> cell_meta(const Cell& c,
                                             const BenchConfig& base) {
  std::map<std::string, std::string> meta = {
      {"size", base.tiny ? "tiny" : base.paper_size ? "paper" : "default"}};
  if (c.role == Role::kPlan && c.nprocs > 1) {
    meta["benchmark"] = c.bench->name();
  }
  return meta;
}

/// A benchmark's host reference, computed by the first of its cells to
/// need it. A reference reads only the size and seed, which every cell of
/// a run_cells call shares (SuiteShape.ReferenceReadsOnlySizeAndSeed).
struct Reference {
  std::once_flag once;
  std::uint64_t checksum = 0;
};

/// Runs and validates one cell; a throw (a watchdog trip, say) fails it.
void run_one(const Cell& c, const BenchConfig& cfg, Reference& ref,
             CellResult* out) try {
  const auto t0 = std::chrono::steady_clock::now();
  out->result = c.bench->run(cfg);
  out->run_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  std::call_once(ref.once,
                 [&] { ref.checksum = c.bench->reference_checksum(cfg); });
  const std::uint64_t want = ref.checksum;
  out->ok = out->result.checksum == want;
  if (!out->ok) {
    out->error = cell_label(c) + " checksum mismatch: got " +
                 std::to_string(out->result.checksum) + ", want " +
                 std::to_string(want);
  }
} catch (const std::exception& e) {
  out->error = cell_label(c) + " failed: " + e.what();
}

/// Adopts a cell's runs into `main`, re-applying the retention limit;
/// with a sink, copies the events each keeps from `cell_path` one read
/// batch at a time and removes the file. False if it does not read back.
bool adopt_cell(trace::Observer& main, trace::Observer& cell,
                const std::string& cell_path, std::string* err) {
  // One read batch of the cell file is all the copy holds.
  constexpr std::uint64_t kBatchEvents = 1 << 14;
  // A cell whose run threw left its file unfinished, and no run to copy.
  analyze::TraceStream in;
  bool ok = main.sink() == nullptr || cell.runs().empty() ||
            in.open(cell_path, err);
  analyze::TraceRun run;
  std::vector<trace::TraceEvent> batch;
  main.adopt_runs_from(cell, [&](trace::StreamingTraceSink& to,
                                 std::uint64_t keep) {
    ok = ok && in.next_run(&run, err);
    while (ok && keep > 0) {
      ok = in.next_events(&batch, std::min(keep, kBatchEvents), err);
      for (const trace::TraceEvent& e : batch) to.append(e);
      keep -= batch.size();
    }
  });
  if (main.sink() == nullptr) return true;
  std::remove(cell_path.c_str());
  if (!ok && err->empty()) {
    *err = cell_path + ": holds fewer events than its cell streamed";
  }
  return ok;
}

}  // namespace

std::vector<CellResult> run_cells(const char* prog,
                                  const std::vector<Cell>& cells,
                                  const BenchConfig& base, std::size_t jobs,
                                  const CellDone& done) {
  const std::size_t n = cells.size();
  jobs = std::min(jobs, n);
  trace::Observer* const main = base.observer;
  trace::StreamingTraceSink* const sink = main ? main->sink() : nullptr;
  const auto cell_path = [&](std::size_t i) {
    return sink != nullptr ? sink->path() + ".cell" + std::to_string(i) : "";
  };
  std::vector<CellResult> results(n);
  std::vector<BenchConfig> cfgs(n);
  std::vector<std::optional<trace::Observer>> recs(n);
  std::map<const Benchmark*, Reference> refs;  // filled before any worker
  for (const Cell& c : cells) refs.try_emplace(c.bench);
  // A trace that did not write or merge fails a cell that had not failed.
  const auto trace_failed = [&](std::size_t i, const std::string& err) {
    if (!results[i].error.empty()) return;
    results[i].ok = false;
    results[i].error = cell_label(cells[i]) + ": " + err;
  };
  // Cell i's config and observer, set on the calling thread, recording
  // from the budget main has left.
  const auto prepare = [&](std::size_t i) {
    cfgs[i] = cell_config(cells[i], base);
    if (main == nullptr) return;
    trace::Observer& rec = recs[i].emplace();
    rec.set_trace_enabled(main->trace_enabled());
    rec.set_event_limit(main->events_left());
    if (main->profile_enabled()) rec.enable_profile();
    rec.begin_run(cell_label(cells[i]), cell_meta(cells[i], base));
    cfgs[i].observer = &rec;
  };

  // An observed cell starts once the cell `jobs` places before it is
  // merged, so at most `jobs` cell files exist at once; an unobserved one
  // as soon as a worker is free. Workers claim cells in order and live
  // across cells (a thread per cell let glibc return each cell's memory at
  // thread exit: Table 3 took 7x the page faults). `mu` guards the four
  // below; in between, a worker owns its cell's result and observer.
  const std::size_t window = main != nullptr ? jobs : n;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t claimed = 0;
  std::size_t merged = 0;
  bool stop = false;
  std::vector<char> ran(n, 0);
  const auto run = [&](std::size_t i) {
    // The cell's file lives only while the cell runs.
    std::optional<trace::StreamingTraceSink> file;
    if (sink != nullptr) recs[i]->set_sink(&file.emplace(cell_path(i)));
    run_one(cells[i], cfgs[i], refs.at(cells[i].bench), &results[i]);
    std::string err;
    if (file && !file->finalize(&err)) trace_failed(i, err);
  };
  const auto work = [&] {
    std::unique_lock lock(mu);
    for (std::size_t i = claimed++; i < n && !stop; i = claimed++) {
      cv.wait(lock, [&] { return stop || i < merged + window; });
      if (stop) return;
      lock.unlock();
      run(i);
      lock.lock();
      ran[i] = 1;
      cv.notify_all();
    }
  };
  std::vector<std::thread> pool;
  try {
    for (std::size_t i = 0; i < window; ++i) prepare(i);
    // At one job the calling thread runs each cell before merging it: a
    // worker's malloc arena took the traced tiny suite from 24.6 to 27.3 MB.
    for (std::size_t w = 0; jobs > 1 && w < jobs; ++w) pool.emplace_back(work);
    std::unique_lock lock(mu);
    for (std::size_t i = 0; i < n; ++i) {
      cv.wait(lock, [&] { return pool.empty() || ran[i] != 0; });
      lock.unlock();
      if (pool.empty()) run(i);
      std::string err;
      if (main != nullptr && !adopt_cell(*main, *recs[i], cell_path(i), &err)) {
        trace_failed(i, err);
      }
      recs[i].reset();
      if (i + window < n) prepare(i + window);
      if (!results[i].ok) {
        std::fprintf(stderr, "%s: %s\n", prog, results[i].error.c_str());
      }
      if (done) done(i, results);
      lock.lock();
      merged = i + 1;
      cv.notify_all();
    }
  } catch (...) {
    {
      std::lock_guard lock(mu);  // release the workers waiting on `merged`
      stop = true;
    }
    cv.notify_all();
    for (std::thread& t : pool) t.join();
    throw;
  }
  for (std::thread& t : pool) t.join();
  return results;
}

}  // namespace olden::bench
