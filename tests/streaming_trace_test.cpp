// Equivalence guarantees for the streaming trace plane.
//
// Three promises are tested to the byte, because every downstream
// consumer (baseline diffs, olden-analyze, the schema checker) depends on
// them:
//
//   * the cell runner (bench::run_cells), which copies the file each cell
//     streamed into the main sink in cell order, writes the same trace,
//     stats and feedback documents at every job count as the same cells
//     streamed serially — including when the cross-run retention limit
//     truncates mid-list, and when a cell fails — names and validates
//     every cell, and leaves no cell file behind,
//   * the sink hands every field of every record back through the reader
//     as it was given, and a truncated multi-run file says what it dropped,
//   * the analyzer (TraceStream + StreamingRunAnalyzer) and the Chrome
//     renderer reproduce the pinned documents of healthy, truncated and
//     fault-injected runs, and the analyzer fails loudly, never silently
//     diverging, on streams that break its invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "olden/analyze/report.hpp"
#include "olden/analyze/streaming.hpp"
#include "olden/analyze/trace_reader.hpp"
#include "olden/bench/benchmark.hpp"
#include "olden/bench/runner.hpp"
#include "olden/fault/fault_spec.hpp"
#include "olden/profile/feedback.hpp"
#include "olden/trace/observer.hpp"
#include "olden/trace/streaming_sink.hpp"
#include "trace_digest.hpp"

namespace olden::bench {
namespace {

using test::read_file;
using test::temp_path;
using test::write_file;

/// One (benchmark, scheme) tiny cell on four processors into `obs`.
void run_cell(trace::Observer& obs, const std::string& name, Coherence scheme,
              const fault::FaultSpec* faults = nullptr) {
  const Benchmark* b = find_benchmark(name);
  ASSERT_NE(b, nullptr) << name;
  obs.begin_run(name + "/stream-equiv");
  BenchConfig cfg{.nprocs = 4, .scheme = scheme};
  cfg.tiny = true;
  cfg.observer = &obs;
  cfg.faults = faults;
  (void)b->run(cfg);
}

/// What a list of cells leaves behind: the trace bytes, the stats and
/// the feedback document.
struct Golden {
  std::string trace_bytes;
  std::string stats;
  std::string feedback;
};

Golden golden_of(test::StreamedObserver& obs) {
  return {test::trace_bytes(obs), trace::stats_json(obs),
          profile::feedback_from_profile(obs.runs())};
}

BenchConfig tiny_config(const fault::FaultSpec* faults = nullptr) {
  BenchConfig cfg;
  cfg.tiny = true;
  cfg.faults = faults;
  return cfg;
}

/// The reference every job count of the runner must reproduce: `cells`
/// run one after another straight into one streamed, profiled observer,
/// each configured, labelled and tagged by the rules runner.hpp states.
Golden run_serial(const std::vector<Cell>& cells, std::uint64_t limit,
                  const BenchConfig& base) {
  test::StreamedObserver obs;
  obs.set_event_limit(limit);
  obs.enable_profile();
  for (const Cell& c : cells) {
    const bool plan = c.role == Role::kPlan;
    std::map<std::string, std::string> meta = {{"size", "tiny"}};
    if (plan && c.nprocs > 1) meta["benchmark"] = c.bench->name();
    obs.begin_run("BENCH/" + c.bench->name() + "/p=" +
                      std::to_string(c.nprocs) + "/" + to_string(c.scheme) +
                      (c.role == Role::kSequential    ? "/seq"
                       : c.role == Role::kMigrateOnly ? "/migrate-only"
                                                      : ""),
                  meta);
    BenchConfig cfg = base;
    cfg.nprocs = c.nprocs;
    cfg.scheme = c.scheme;
    cfg.sequential_baseline = c.role == Role::kSequential;
    cfg.migrate_only = c.role == Role::kMigrateOnly;
    if (!plan) cfg.feedback = nullptr;
    cfg.observer = &obs;
    (void)c.bench->run(cfg);
  }
  return golden_of(obs);
}

/// Runs `cells` through the runner at one job and at four, at the default
/// retention limit and at `truncating`, which the cells run dry of. Each
/// run must write what the serial run of `completing` (the cells that do
/// not throw) writes, merge its cells in order with at most `jobs` cell
/// files on disk at once, and leave none. `check` sees each run's
/// observer and results.
void expect_runner_matches_serial(
    const std::vector<Cell>& cells, const std::vector<Cell>& completing,
    std::uint64_t truncating, const BenchConfig& base,
    const std::function<void(test::StreamedObserver&,
                             const std::vector<CellResult>&)>& check = {}) {
  for (const std::uint64_t limit :
       {trace::Observer{}.event_limit(), truncating}) {
    const Golden serial = run_serial(completing, limit, base);
    if (limit == truncating) {
      EXPECT_NE(serial.stats.find("\"trace_truncated\":true"),
                std::string::npos);
    }
    for (const std::size_t jobs : {1, 4}) {
      SCOPED_TRACE("limit " + std::to_string(limit) + ", jobs " +
                   std::to_string(jobs));
      test::StreamedObserver obs;
      obs.set_event_limit(limit);
      obs.enable_profile();
      BenchConfig cfg = base;
      cfg.observer = &obs;
      const std::string cell_prefix = obs.sink()->path() + ".cell";
      const auto cell_files = [&] {
        std::size_t on_disk = 0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
          on_disk += std::filesystem::exists(cell_prefix + std::to_string(i));
        }
        return on_disk;
      };
      std::size_t merged = 0;
      const std::vector<CellResult> results = run_cells(
          "runner", cells, cfg, jobs,
          [&](std::size_t i, const std::vector<CellResult>&) {
            EXPECT_EQ(i, merged++);
            EXPECT_LE(cell_files(), jobs);
          });
      EXPECT_EQ(merged, cells.size());
      EXPECT_EQ(cell_files(), 0u);
      const Golden got = golden_of(obs);
      EXPECT_EQ(got.stats, serial.stats);
      EXPECT_EQ(got.feedback, serial.feedback);
      ASSERT_EQ(got.trace_bytes.size(), serial.trace_bytes.size());
      EXPECT_TRUE(got.trace_bytes == serial.trace_bytes);
      if (check) check(obs, results);
    }
  }
}

class StreamingSinkEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, Coherence>> {};

/// One cell through the runner writes the serial bytes and stats.
TEST_P(StreamingSinkEquivalence, MergedCellMatchesSerial) {
  const auto [name, scheme] = GetParam();
  const std::vector<Cell> cells = {{find_benchmark(name), 4, scheme}};
  expect_runner_matches_serial(cells, cells, 2'000, tiny_config());
}

INSTANTIATE_TEST_SUITE_P(
    Cells, StreamingSinkEquivalence,
    ::testing::Combine(::testing::Values("TreeAdd", "MST", "Health"),
                       ::testing::Values(Coherence::kLocalKnowledge,
                                         Coherence::kEagerGlobal,
                                         Coherence::kBilateral)),
    [](const auto& info) {
      const Coherence scheme = std::get<1>(info.param);
      const char* s = scheme == Coherence::kLocalKnowledge ? "local"
                      : scheme == Coherence::kEagerGlobal  ? "global"
                                                           : "bilateral";
      return std::get<0>(info.param) + "_" + s;
    });

TEST(StreamingSink, MultiRunFileWithCrossRunTruncationMatches) {
  // A limit small enough that the suite runs dry mid-file: the first run
  // streams a prefix, later runs drop everything. Each run's header must
  // carry what its record counts, and the file hold exactly the limit.
  test::StreamedObserver obs;
  obs.set_event_limit(2'000);
  run_cell(obs, "TreeAdd", Coherence::kLocalKnowledge);
  run_cell(obs, "MST", Coherence::kEagerGlobal);
  run_cell(obs, "Health", Coherence::kBilateral);
  analyze::TraceStream ts;
  analyze::TraceRun run;
  std::string err;
  ASSERT_TRUE(ts.open(obs.path(), &err)) << err;
  std::uint64_t streamed = 0;
  for (const trace::RunRecord& rec : obs.runs()) {
    ASSERT_TRUE(ts.next_run(&run, &err)) << err;
    EXPECT_EQ(run.label, rec.label);
    EXPECT_EQ(run.num_events, rec.events_streamed);
    EXPECT_EQ(run.events_dropped, rec.events_dropped);
    EXPECT_GT(rec.events_dropped, 0u) << rec.label;
    streamed += run.num_events;
  }
  EXPECT_EQ(streamed, 2'000u);
  EXPECT_EQ(obs.runs().back().events_streamed, 0u);
  EXPECT_FALSE(ts.next_run(&run, &err));
  EXPECT_EQ(err, "");
  EXPECT_NE(trace::stats_json(obs).find("\"trace_truncated\":true"),
            std::string::npos);
}

/// Every field of a record, at 0, at its all-ones maximum (the kNo*
/// sentinels) and at a value of its own, under every kind, comes back from
/// TraceStream as the sink was given it. The first run's label outgrows the
/// sink's buffer, so its records land on buffer bytes that held the label;
/// their pad bytes must still read zero.
TEST(StreamingSink, RecordRoundTripsEveryField) {
  const auto fields = [](const trace::TraceEvent& e) {
    return std::tuple(e.time, e.proc, e.thread, static_cast<int>(e.kind),
                      e.site, e.arg0, e.arg1, e.id, e.chain, e.parent);
  };
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  std::vector<trace::TraceEvent> events;
  for (std::size_t k = 0; k < trace::kNumEventKinds; ++k) {
    const auto kind = static_cast<trace::EventKind>(k);
    events.push_back({0, 0, 0, kind, 0, 0, 0, 0, 0, 0});
    events.push_back({kMax, kMaxProcs - 1, trace::kNoThread, kind,
                      trace::kNoSite, kMax, kMax, trace::kNoEvent,
                      trace::kNoChain, trace::kNoEvent});
    events.push_back({0x0102030405060708, 9, 0x1112131415161718, kind,
                      0x21222324, 0x3132333435363738, 0x4142434445464748,
                      0x5152535455565758, 0x6162636465666768,
                      0x7172737475767778});
  }
  const std::string long_label(trace::StreamingTraceSink::kBufferBytes + 100,
                               'x');
  const std::string path = temp_path("fields.bin");
  {
    trace::StreamingTraceSink sink(path);
    for (const std::string& label : {long_label, std::string("short")}) {
      sink.begin_run(label, kMaxProcs);
      for (const trace::TraceEvent& e : events) sink.append(e);
      sink.end_run(kMax, 7);
    }
    std::string err;
    ASSERT_TRUE(sink.finalize(&err)) << err;
  }

  const std::string bytes = read_file(path);
  const std::size_t first_record = 16 + 4 + long_label.size() + 28;
  ASSERT_GE(bytes.size(),
            first_record + events.size() * trace::kBinaryRecordBytes);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::size_t kind_at =
        first_record + i * trace::kBinaryRecordBytes + 20;
    EXPECT_EQ(bytes.substr(kind_at + 1, 3), std::string(3, '\0'))
        << "pad bytes of record " << i;
  }

  std::string err;
  analyze::TraceStream ts;
  ASSERT_TRUE(ts.open(path, &err)) << err;
  analyze::TraceRun run;
  std::vector<trace::TraceEvent> batch;
  for (const std::string& label : {long_label, std::string("short")}) {
    ASSERT_TRUE(ts.next_run(&run, &err)) << err;
    EXPECT_TRUE(run.label == label) << "label of " << label.size() << " bytes";
    EXPECT_EQ(run.nprocs, kMaxProcs);
    EXPECT_EQ(run.makespan, kMax);
    EXPECT_EQ(run.events_dropped, 7u);
    ASSERT_EQ(run.num_events, events.size());
    ASSERT_TRUE(ts.next_events(&batch, events.size(), &err)) << err;
    ASSERT_EQ(batch.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(fields(batch[i]), fields(events[i])) << "record " << i;
    }
  }
  EXPECT_FALSE(ts.next_run(&run, &err));
  EXPECT_EQ(err, "");
  std::remove(path.c_str());
}

/// The runner's merge of three cells reconstructs the serial record, also
/// when the retention limit truncates mid-list. Byte equality with the
/// serial record is what makes --jobs output-invisible.
TEST(CellMerge, ReconstructsSerialRecord) {
  const std::vector<Cell> cells = {{find_benchmark("TreeAdd"), 4},
                                   {find_benchmark("MST"), 4},
                                   {find_benchmark("Health"), 4}};
  expect_runner_matches_serial(cells, cells, 2'500, tiny_config());
}

/// Lost fills trip the watchdog, so under `drop=1,classes=fill` a cell that
/// caches throws and the migrate-only TreeAdd and MST complete.
fault::FaultSpec lost_fills() {
  fault::FaultSpec spec;
  std::string err;
  EXPECT_TRUE(fault::parse_fault_spec("drop=1,classes=fill", &spec, &err))
      << err;
  return spec;
}

/// A cell whose run throws (a watchdog trip) adds no run to the merge, and
/// its file goes as well: the merged trace is the other cells' serial one.
TEST(CellMerge, FailedCellAddsNothingAndLeavesNoFile) {
  const fault::FaultSpec faults = lost_fills();
  const Cell tree = {find_benchmark("TreeAdd"), 4, Coherence::kBilateral};
  const Cell em3d = {find_benchmark("EM3D"), 4, Coherence::kBilateral};
  const Cell mst = {find_benchmark("MST"), 4, Coherence::kBilateral};
  expect_runner_matches_serial(
      {tree, em3d, mst}, {tree, mst}, 3'000, tiny_config(&faults),
      [](test::StreamedObserver&, const std::vector<CellResult>& results) {
        EXPECT_TRUE(results[0].ok && results[2].ok);
        EXPECT_FALSE(results[1].ok);
        EXPECT_EQ(results[1].run_ms, 0.0);
      });
}

/// TreeAdd under another name, with a host reference of its own.
class TreeAlias : public Benchmark {
 public:
  std::string description() const override { return tree().description(); }
  std::string problem_size(bool paper) const override {
    return tree().problem_size(paper);
  }
  bool whole_program_timing() const override {
    return tree().whole_program_timing();
  }
  std::string heuristic_choice() const override {
    return tree().heuristic_choice();
  }
  ir::Program ir_program() const override { return tree().ir_program(); }
  std::size_t num_sites() const override { return tree().num_sites(); }
  BenchResult run(const BenchConfig& cfg) const override {
    return tree().run(cfg);
  }

 protected:
  static const Benchmark& tree() { return treeadd_benchmark(); }
};

/// Its host reference disagrees with TreeAdd.
class WrongReference final : public TreeAlias {
 public:
  std::string name() const override { return "WrongRef"; }
  std::uint64_t reference_checksum(const BenchConfig& cfg) const override {
    return tree().reference_checksum(cfg) + 1;
  }
};

/// Counts the host references it computes.
class CountedReference final : public TreeAlias {
 public:
  std::string name() const override { return "Counted"; }
  std::uint64_t reference_checksum(const BenchConfig& cfg) const override {
    ++references;
    return tree().reference_checksum(cfg);
  }
  mutable std::atomic<int> references{0};
};

/// Every cell of a benchmark shares one host reference, at any job count.
TEST(CellRunner, ComputesEachReferenceOnce) {
  const CountedReference counted;
  const std::vector<Cell> cells = {
      {&counted, 1, Coherence::kLocalKnowledge, Role::kSequential},
      {&counted, 4, Coherence::kLocalKnowledge},
      {find_benchmark("MST"), 4},
      {&counted, 4, Coherence::kEagerGlobal},
      {&counted, 8, Coherence::kBilateral, Role::kMigrateOnly}};
  for (const std::size_t jobs : {1, 4}) {
    counted.references = 0;
    for (const CellResult& r : run_cells("runner", cells, tiny_config(), jobs)) {
      EXPECT_TRUE(r.ok) << r.error;
    }
    EXPECT_EQ(counted.references, 1) << "jobs " << jobs;
  }
}

/// One list through every job count and limit: the three roles, two
/// schemes, a plan at p=1, a cell the lost fills trip and one whose
/// reference disagrees. Each run is labelled and tagged by the rule in
/// runner.hpp, and a failure fails its own cell alone, named by label.
TEST(CellRunner, LabelsValidatesAndFailsCellsAlone) {
  const fault::FaultSpec faults = lost_fills();
  const WrongReference wrong;
  const Benchmark* tree = find_benchmark("TreeAdd");
  const std::vector<Cell> cells = {
      {tree, 1, Coherence::kLocalKnowledge, Role::kSequential},
      {tree, 4, Coherence::kLocalKnowledge},
      {find_benchmark("EM3D"), 4, Coherence::kLocalKnowledge},
      {tree, 4, Coherence::kEagerGlobal},
      {&wrong, 4, Coherence::kLocalKnowledge},
      {find_benchmark("MST"), 4, Coherence::kEagerGlobal, Role::kMigrateOnly},
      {tree, 1, Coherence::kEagerGlobal}};
  std::vector<Cell> completing = cells;
  completing.erase(completing.begin() + 2);
  using Meta = std::map<std::string, std::string>;
  const std::vector<std::pair<std::string, Meta>> runs = {
      {"BENCH/TreeAdd/p=1/local/seq", {{"size", "tiny"}}},
      {"BENCH/TreeAdd/p=4/local", {{"benchmark", "TreeAdd"}, {"size", "tiny"}}},
      {"BENCH/TreeAdd/p=4/global",
       {{"benchmark", "TreeAdd"}, {"size", "tiny"}}},
      {"BENCH/WrongRef/p=4/local",
       {{"benchmark", "WrongRef"}, {"size", "tiny"}}},
      {"BENCH/MST/p=4/global/migrate-only", {{"size", "tiny"}}},
      {"BENCH/TreeAdd/p=1/global", {{"size", "tiny"}}}};
  expect_runner_matches_serial(
      cells, completing, 20'000, tiny_config(&faults),
      [&](test::StreamedObserver& obs, const std::vector<CellResult>& results) {
        ASSERT_EQ(obs.runs().size(), runs.size());
        for (std::size_t i = 0; i < runs.size(); ++i) {
          EXPECT_EQ(obs.runs()[i].label, runs[i].first);
          EXPECT_EQ(obs.runs()[i].meta, runs[i].second) << runs[i].first;
        }
        ASSERT_EQ(results.size(), cells.size());
        for (std::size_t i = 0; i < cells.size(); ++i) {
          const CellResult& r = results[i];
          EXPECT_EQ(r.ok, i != 2 && i != 4) << i;
          EXPECT_EQ(r.run_ms > 0.0, i != 2) << i;  // EM3D's run() threw
          EXPECT_EQ(r.error.empty(), r.ok) << r.error;
        }
        EXPECT_EQ(results[2].error.rfind(
                      "BENCH/EM3D/p=4/local failed: watchdog: ", 0),
                  0u)
            << results[2].error;
        const std::uint64_t got = results[4].result.checksum;
        EXPECT_EQ(results[4].error,
                  "BENCH/WrongRef/p=4/local checksum mismatch: got " +
                      std::to_string(got) + ", want " +
                      std::to_string(got + 1));
      });
}

/// Unobserved cells start as soon as a thread is free, yet reach `done`
/// in cell order with the results and failures of one job.
TEST(CellRunner, UnobservedCellsRunFreelyAndMergeInOrder) {
  const fault::FaultSpec faults = lost_fills();
  const Benchmark* tree = find_benchmark("TreeAdd");
  const std::vector<Cell> cells = {
      {find_benchmark("EM3D"), 4},
      {tree, 4},
      {tree, 1, Coherence::kLocalKnowledge, Role::kSequential},
      {find_benchmark("MST"), 4, Coherence::kBilateral},
      {tree, 8, Coherence::kEagerGlobal}};
  std::vector<std::uint64_t> serial;
  for (const std::size_t jobs : {1, 4}) {
    std::size_t merged = 0;
    const std::vector<CellResult> results = run_cells(
        "runner", cells, tiny_config(&faults), jobs,
        [&](std::size_t i, const std::vector<CellResult>&) {
          EXPECT_EQ(i, merged++);
        });
    ASSERT_EQ(merged, cells.size());
    EXPECT_EQ(results[0].error.rfind(
                  "BENCH/EM3D/p=4/local failed: watchdog: ", 0),
              0u)
        << results[0].error;
    std::vector<std::uint64_t> makespans;
    for (std::size_t i = 1; i < cells.size(); ++i) {
      EXPECT_TRUE(results[i].ok) << results[i].error;
      makespans.push_back(results[i].result.total_cycles);
    }
    if (jobs == 1) serial = makespans;
    EXPECT_EQ(makespans, serial) << "jobs " << jobs;
  }
}

/// A healthy run, a truncated run, and a fault-injected run (which
/// exercises the retry buckets and the fault summary), into `obs`.
void record_three_runs(trace::Observer& obs) {
  fault::FaultSpec spec;
  std::string err;
  ASSERT_TRUE(
      fault::parse_fault_spec("drop=0.05,dup=0.02,delay=0.1:800", &spec, &err))
      << err;
  obs.set_event_limit(20'000);  // truncates the middle run
  run_cell(obs, "TreeAdd", Coherence::kLocalKnowledge);
  run_cell(obs, "MST", Coherence::kEagerGlobal);
  const Benchmark* b = find_benchmark("TreeAdd");
  ASSERT_NE(b, nullptr);
  obs.begin_run("TreeAdd/faulty");
  BenchConfig cfg{.nprocs = 4, .scheme = Coherence::kBilateral};
  cfg.tiny = true;
  cfg.observer = &obs;
  cfg.faults = &spec;
  (void)b->run(cfg);
}

/// The analyzer's reports of the three runs match their pinned digests
/// byte for byte.
TEST(StreamingAnalyzer, JsonReportByteIdentical) {
  test::StreamedObserver obs;
  record_three_runs(obs);
  analyze::TraceFile file;
  std::vector<analyze::RunReport> reports;
  test::analyze_observer(obs, 10, &file, &reports);
  ASSERT_EQ(file.runs.size(), 3u);
  EXPECT_TRUE(file.runs[1].truncated());  // the limit actually bit

  std::string human;
  for (std::size_t r = 0; r < file.runs.size(); ++r) {
    human += analyze::human_report(file.runs[r], reports[r]);
  }
  EXPECT_EQ(test::fnv1a(analyze::json_report(file, reports)),
            0x37e5291fd9353cfdULL);
  EXPECT_EQ(test::fnv1a(human), 0x74859d22456c36c3ULL);
}

/// The Chrome trace_event document of the same three runs matches its
/// pinned digest byte for byte.
TEST(StreamingAnalyzer, ChromeJsonByteIdentical) {
  test::StreamedObserver obs;
  record_three_runs(obs);
  EXPECT_EQ(test::fnv1a(test::chrome_json(obs)), 0x24751c4f725052e9ULL);
}

/// A small valid single-run trace file's bytes, to corrupt.
std::string small_trace_bytes() {
  test::StreamedObserver obs;
  obs.set_event_limit(64);
  run_cell(obs, "TreeAdd", Coherence::kLocalKnowledge);
  return test::trace_bytes(obs);
}

/// The first run's label length. File layout: magic(8) + version(4) +
/// num_runs(4), then per run label_len(4) + label + nprocs(4) +
/// makespan(8) + dropped(8) + nevents(8) + 68-byte records.
std::uint32_t first_label_len(const std::string& bytes) {
  return trace::load_le<std::uint32_t>(bytes.data() + 16);
}

/// Each corruption is reported by the first TraceStream call that can see
/// it: a bad file header by open(), a run whose declared events overrun
/// the file by next_run() (before any of its events is streamed), and a
/// bad record by next_events().
TEST(TraceStream, RejectsCorruptInput) {
  std::string err;
  const std::string good = small_trace_bytes();
  {
    const std::string path = temp_path("badmagic.bin");
    std::string bad = good;
    bad[0] = 'X';
    write_file(path, bad);
    analyze::TraceStream ts;
    EXPECT_FALSE(ts.open(path, &err));
    EXPECT_NE(err.find("bad magic"), std::string::npos) << err;
    std::remove(path.c_str());
  }
  {
    const std::string path = temp_path("v1.bin");
    std::string v1 = good;
    std::copy_n(trace::kBinaryTraceMagicV1, 8, v1.begin());
    write_file(path, v1);
    analyze::TraceStream ts;
    EXPECT_FALSE(ts.open(path, &err));
    EXPECT_NE(err.find("OLDNTRC1"), std::string::npos) << err;
    std::remove(path.c_str());
  }
  {
    // Chop the file mid-events: the per-run plausibility bound must
    // refuse the run instead of crashing or spinning.
    const std::string path = temp_path("chopped.bin");
    write_file(path, good.substr(0, good.size() - 10));
    analyze::TraceStream ts;
    ASSERT_TRUE(ts.open(path, &err)) << err;
    analyze::TraceRun run;
    EXPECT_FALSE(ts.next_run(&run, &err));
    EXPECT_NE(err.find("exceeds file size"), std::string::npos) << err;
    std::remove(path.c_str());
  }
  {
    // Corrupt the first record's kind byte (at +20) past kNumEventKinds.
    const std::string path = temp_path("badkind.bin");
    std::string bad = good;
    const std::size_t first_record = 16 + 4 + first_label_len(bad) + 28;
    ASSERT_LT(first_record + 68, bad.size());
    bad[first_record + 20] = static_cast<char>(0xEE);
    write_file(path, bad);
    analyze::TraceStream ts;
    ASSERT_TRUE(ts.open(path, &err)) << err;
    analyze::TraceRun run;
    ASSERT_TRUE(ts.next_run(&run, &err)) << err;
    std::vector<trace::TraceEvent> batch;
    EXPECT_FALSE(ts.next_events(&batch, 4'096, &err));
    EXPECT_NE(err.find("out-of-range kind"), std::string::npos) << err;
    std::remove(path.c_str());
  }
}

/// A streaming sink that dies (or a file copied mid-write) leaves the
/// back-patched header placeholders zeroed while the event records are
/// already on disk. The reader must reject the disagreement instead of
/// silently analyzing the declared (empty or partial) prefix.
TEST(TraceReader, RejectsBackPatchedHeaderDisagreement) {
  const std::string good = small_trace_bytes();
  const std::size_t nevents_off = 16 + 4 + first_label_len(good) + 4 + 8 + 8;

  /// The error reading every run and event of `bytes`, "" if none.
  const auto read_error = [&](const std::string& bytes) {
    const std::string path = temp_path("backpatch.bin");
    write_file(path, bytes);
    std::string err;
    analyze::TraceStream ts;
    if (ts.open(path, &err)) {
      analyze::TraceRun run;
      std::vector<trace::TraceEvent> batch;
      while (ts.next_run(&run, &err)) {
        while (ts.next_events(&batch, 4'096, &err)) {
        }
        if (!err.empty()) break;
      }
    }
    std::remove(path.c_str());
    return err;
  };
  const auto expect_rejected = [&](const std::string& name,
                                   const std::string& bytes) {
    const std::string err = read_error(bytes);
    EXPECT_NE(err.find("disagree"), std::string::npos) << name << ": " << err;
    EXPECT_NE(err.find("v2"), std::string::npos) << name << ": " << err;
  };

  {
    // Unfinalized run header: nevents still holds the zero placeholder,
    // but the records were written. The old readers parsed "0 events" and
    // ignored the rest of the file.
    std::string bad = good;
    for (std::size_t i = 0; i < 8; ++i) bad[nevents_off + i] = 0;
    expect_rejected("zeroed_nevents", bad);
  }
  {
    // Unfinalized file header: num_runs still zero, every run unclaimed.
    std::string bad = good;
    for (std::size_t i = 12; i < 16; ++i) bad[i] = 0;
    expect_rejected("zeroed_nruns", bad);
  }
  // Garbage appended past a perfectly finalized file.
  expect_rejected("appended", good + std::string(13, '\xAB'));

  // Control: the untouched bytes still read.
  EXPECT_EQ(read_error(good), "");
}

TEST(StreamingAnalyzer, RejectsInvariantViolations) {
  analyze::TraceRun header;
  header.label = "synthetic";
  header.nprocs = 2;
  header.makespan = 100;
  header.num_events = 2;

  auto event = [](std::uint64_t id, std::uint64_t parent) {
    trace::TraceEvent e;
    e.time = 10 * (id + 1);
    e.proc = 0;
    e.kind = trace::EventKind::kCacheMiss;
    e.id = id;
    e.parent = parent;
    return e;
  };

  {
    // Non-dense ids: record 0 claims id 5.
    analyze::StreamingRunAnalyzer an(header, 10);
    EXPECT_FALSE(an.add(event(5, trace::kNoEvent)));
    EXPECT_NE(an.error().find("dense"), std::string::npos) << an.error();
  }
  {
    // Forward parent link: event 0 points at event 1.
    analyze::StreamingRunAnalyzer an(header, 10);
    EXPECT_FALSE(an.add(event(0, 1)));
    EXPECT_NE(an.error().find("forward parent"), std::string::npos)
        << an.error();
  }
  {
    // An event on a processor the run does not have.
    analyze::StreamingRunAnalyzer an(header, 10);
    trace::TraceEvent e = event(0, trace::kNoEvent);
    e.proc = 2;
    EXPECT_FALSE(an.add(e));
    EXPECT_NE(an.error().find("processor 2"), std::string::npos)
        << an.error();
  }
  {
    // Stream ends short of the header's event count.
    analyze::StreamingRunAnalyzer an(header, 10);
    EXPECT_TRUE(an.add(event(0, trace::kNoEvent)));
    analyze::RunReport rep;
    std::string err;
    EXPECT_FALSE(an.finish(&rep, &err));
    EXPECT_NE(err.find("ended at 1 of 2"), std::string::npos) << err;
  }
}

}  // namespace
}  // namespace olden::bench
