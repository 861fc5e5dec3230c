// Equivalence guarantees for the streaming trace plane.
//
// Three promises are tested to the byte, because every downstream
// consumer (baseline diffs, olden-analyze, the schema checker) depends on
// them:
//
//   * the bench_cell --jobs merge (bench::adopt_cell), which copies the
//     file each worker cell streamed into the main sink in serial cell
//     order, writes the same trace and stats document as the same cells
//     streamed serially — including when the cross-run retention limit
//     truncates mid-suite, and when a cell fails — and leaves no cell
//     file behind,
//   * the sink hands every field of every record back through the reader
//     as it was given, and a truncated multi-run file says what it dropped,
//   * the analyzer (TraceStream + StreamingRunAnalyzer) and the Chrome
//     renderer reproduce the pinned documents of healthy, truncated and
//     fault-injected runs, and the analyzer fails loudly, never silently
//     diverging, on streams that break its invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "olden/analyze/report.hpp"
#include "olden/analyze/streaming.hpp"
#include "olden/analyze/trace_reader.hpp"
#include "olden/bench/benchmark.hpp"
#include "olden/bench/obs_cli.hpp"
#include "olden/fault/fault_spec.hpp"
#include "olden/trace/observer.hpp"
#include "olden/trace/streaming_sink.hpp"
#include "trace_digest.hpp"

namespace olden::bench {
namespace {

using test::read_file;
using test::temp_path;
using test::write_file;

/// One (benchmark, scheme) cell into `obs`, the way bench_cell labels it.
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

struct Golden {
  std::string trace_bytes;
  std::string stats;
};

using Cells = std::vector<std::pair<std::string, Coherence>>;

/// The cells run one after another into one streamed observer.
Golden run_serial(const Cells& cells, std::uint64_t limit) {
  test::StreamedObserver obs;
  obs.set_event_limit(limit);
  for (const auto& [name, scheme] : cells) run_cell(obs, name, scheme);
  return {test::trace_bytes(obs), trace::stats_json(obs)};
}

/// One cell the bench_cell --jobs way: it records into an observer of its
/// own, from the full retention limit (a superset of the serial budget),
/// and streams to a file of its own, which adopt_cell then copies into
/// `main` and removes. Returns false if the cell's run threw.
bool merge_cell(trace::Observer& main, const std::string& name,
                Coherence scheme, const fault::FaultSpec* faults = nullptr) {
  static int cells_merged = 0;
  const std::string path =
      temp_path("cell" + std::to_string(cells_merged++) + ".bin");
  trace::StreamingTraceSink sink(path);
  trace::Observer cell;
  cell.set_trace_enabled(true);
  cell.set_event_limit(main.event_limit());
  cell.set_sink(&sink);
  bool ran = true;
  try {
    run_cell(cell, name, scheme, faults);
  } catch (const std::exception&) {
    ran = false;
  }
  std::string err;
  EXPECT_EQ(sink.finalize(&err), ran) << err;  // a thrown run stays open
  err.clear();
  EXPECT_TRUE(adopt_cell(main, cell, path, &err)) << err;
  EXPECT_FALSE(std::filesystem::exists(path)) << path << " left behind";
  return ran;
}

/// The cells through the --jobs merge, in cell order, write the trace
/// and stats document the serial run writes, at the default limit and at
/// `truncating`, which the cells run dry of.
void expect_merge_matches_serial(const Cells& cells,
                                 std::uint64_t truncating) {
  for (const std::uint64_t limit :
       {trace::Observer{}.event_limit(), truncating}) {
    const Golden serial = run_serial(cells, limit);
    test::StreamedObserver main_obs;
    main_obs.set_event_limit(limit);
    for (const auto& [name, scheme] : cells) {
      EXPECT_TRUE(merge_cell(main_obs, name, scheme));
    }
    EXPECT_EQ(trace::stats_json(main_obs), serial.stats) << "limit " << limit;
    const std::string merged = test::trace_bytes(main_obs);
    ASSERT_EQ(merged.size(), serial.trace_bytes.size()) << "limit " << limit;
    EXPECT_TRUE(merged == serial.trace_bytes) << "limit " << limit;
  }
}

class StreamingSinkEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, Coherence>> {};

/// One cell merged the --jobs way writes the serial bytes and stats.
TEST_P(StreamingSinkEquivalence, MergedCellMatchesSerial) {
  const auto [name, scheme] = GetParam();
  expect_merge_matches_serial({{name, scheme}}, 2'000);
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
}

/// The bench_cell --jobs merge of three cells reconstructs the serial
/// record, also when the retention limit truncates mid-suite. Byte
/// equality with the serial record is what makes --jobs output-invisible.
TEST(CellMerge, ReconstructsSerialRecord) {
  expect_merge_matches_serial({{"TreeAdd", Coherence::kLocalKnowledge},
                               {"MST", Coherence::kLocalKnowledge},
                               {"Health", Coherence::kLocalKnowledge}},
                              2'500);
}

/// A cell whose run throws (a watchdog trip) adds no run to the merge, and
/// its file goes as well: the merged trace is the other cells' serial one.
TEST(CellMerge, FailedCellAddsNothingAndLeavesNoFile) {
  fault::FaultSpec drop_all;
  std::string err;
  ASSERT_TRUE(fault::parse_fault_spec("drop=1", &drop_all, &err)) << err;
  const Golden serial = run_serial(
      {{"TreeAdd", Coherence::kBilateral}, {"MST", Coherence::kBilateral}},
      3'000);

  test::StreamedObserver main_obs;
  main_obs.set_event_limit(3'000);
  EXPECT_TRUE(merge_cell(main_obs, "TreeAdd", Coherence::kBilateral));
  EXPECT_FALSE(
      merge_cell(main_obs, "EM3D", Coherence::kBilateral, &drop_all));
  EXPECT_TRUE(merge_cell(main_obs, "MST", Coherence::kBilateral));
  EXPECT_EQ(trace::stats_json(main_obs), serial.stats);
  EXPECT_TRUE(test::trace_bytes(main_obs) == serial.trace_bytes);
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
  }
  {
    const std::string path = temp_path("v1.bin");
    std::string v1 = good;
    std::copy_n(trace::kBinaryTraceMagicV1, 8, v1.begin());
    write_file(path, v1);
    analyze::TraceStream ts;
    EXPECT_FALSE(ts.open(path, &err));
    EXPECT_NE(err.find("OLDNTRC1"), std::string::npos) << err;
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
    if (!ts.open(path, &err)) return err;
    analyze::TraceRun run;
    std::vector<trace::TraceEvent> batch;
    while (ts.next_run(&run, &err)) {
      while (ts.next_events(&batch, 4'096, &err)) {
      }
      if (!err.empty()) break;
    }
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
