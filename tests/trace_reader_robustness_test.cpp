// Adversarial inputs for the binary-trace reader: truncations at every
// byte boundary, corrupt header lengths, absurd processor / run / event
// counts, wrong versions, out-of-range record fields. Every case must fail
// with a descriptive error — never crash, over-read, or attempt a
// corrupt-count-sized allocation.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "olden/analyze/trace_reader.hpp"
#include "olden/bench/benchmark.hpp"
#include "olden/trace/observer.hpp"
#include "trace_digest.hpp"

namespace olden::analyze {
namespace {

/// A small but real trace: one TreeAdd run with events. The event limit
/// keeps the file a few KB so the every-prefix truncation sweep (O(n^2))
/// stays cheap even under sanitizers.
std::string valid_trace_bytes() {
  const bench::Benchmark* b = bench::find_benchmark("TreeAdd");
  EXPECT_NE(b, nullptr);
  test::StreamedObserver obs;
  obs.set_event_limit(64);
  obs.begin_run("adv");
  bench::BenchConfig cfg{.nprocs = 2};
  cfg.tiny = true;
  cfg.observer = &obs;
  (void)b->run(cfg);
  return test::trace_bytes(obs);
}

/// Read every run and event of `bytes` through TraceStream, from a temp
/// file. Returns the first error, or "" when the whole file reads; the
/// run headers read land in *runs.
std::string read_error(const std::string& bytes,
                       std::vector<TraceRun>* runs = nullptr) {
  const std::string path = test::temp_path("robustness.bin");
  test::write_file(path, bytes);
  std::string err;
  TraceStream ts;
  if (ts.open(path, &err)) {
    TraceRun run;
    std::vector<trace::TraceEvent> batch;
    while (ts.next_run(&run, &err)) {
      // Odd batches so record reads straddle batch boundaries.
      while (ts.next_events(&batch, 7, &err)) {
      }
      if (!err.empty()) break;
      if (runs != nullptr) runs->push_back(run);
    }
  }
  std::remove(path.c_str());
  return err;
}

void poke_u32(std::string* bytes, std::size_t off, std::uint32_t v) {
  ASSERT_LE(off + 4, bytes->size());
  for (int i = 0; i < 4; ++i) {
    (*bytes)[off + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

void poke_u64(std::string* bytes, std::size_t off, std::uint64_t v) {
  ASSERT_LE(off + 8, bytes->size());
  for (int i = 0; i < 8; ++i) {
    (*bytes)[off + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

// Layout after the 8-byte magic: version u32 @8, nruns u32 @12, then per
// run: label_len u32 @16, label bytes, nprocs u32, makespan u64,
// dropped u64, nevents u64, then fixed-size event records
// (trace::kBinaryRecordBytes each: time u64, proc u32, thread u64, kind
// u8, ...).
constexpr std::size_t kVersionOff = 8;
constexpr std::size_t kNrunsOff = 12;
constexpr std::size_t kLabelLenOff = 16;
constexpr std::size_t kLabelLen = 3;  // "adv"
constexpr std::size_t kNprocsOff = kLabelLenOff + 4 + kLabelLen;
constexpr std::size_t kNeventsOff = kNprocsOff + 4 + 8 + 8;
constexpr std::size_t kFirstRecordOff = kNeventsOff + 8;
constexpr std::size_t kRecordProcOff = 8;
constexpr std::size_t kRecordKindOff = 8 + 4 + 8;

TEST(TraceReaderRobustness, ParsesItsOwnOutput) {
  std::vector<TraceRun> runs;
  EXPECT_EQ(read_error(valid_trace_bytes(), &runs), "");
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].label, "adv");
  EXPECT_EQ(runs[0].nprocs, 2u);
  EXPECT_GT(runs[0].num_events, 0u);
}

TEST(TraceReaderRobustness, EveryTruncationFailsCleanly) {
  const std::string bytes = valid_trace_bytes();
  ASSERT_GT(bytes.size(), 64u);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_NE(read_error(bytes.substr(0, len)), "")
        << "a " << len << "-byte prefix read as complete";
  }
}

TEST(TraceReaderRobustness, MissingFileIsRejected) {
  TraceStream ts;
  std::string err;
  EXPECT_FALSE(ts.open(test::temp_path("missing.bin"), &err));
  EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
}

TEST(TraceReaderRobustness, AbsurdRunCountIsRejectedBeforeAllocating) {
  std::string bytes = valid_trace_bytes();
  poke_u32(&bytes, kNrunsOff, 0xffffffffu);
  const std::string err = read_error(bytes);
  EXPECT_NE(err.find("run count"), std::string::npos) << err;
  EXPECT_NE(err.find("exceeds file size"), std::string::npos) << err;
}

TEST(TraceReaderRobustness, CorruptLabelLengthIsRejected) {
  std::string bytes = valid_trace_bytes();
  poke_u32(&bytes, kLabelLenOff, 0xfffffff0u);
  const std::string err = read_error(bytes);
  EXPECT_NE(err.find("label length"), std::string::npos) << err;
}

TEST(TraceReaderRobustness, AbsurdProcessorCountIsRejected) {
  for (std::uint32_t nprocs : {0u, 65u, 0xffffffffu}) {
    std::string bytes = valid_trace_bytes();
    poke_u32(&bytes, kNprocsOff, nprocs);
    const std::string err = read_error(bytes);
    EXPECT_NE(err.find("processor count"), std::string::npos)
        << nprocs << ": " << err;
  }
}

TEST(TraceReaderRobustness, AbsurdEventCountIsRejected) {
  std::string bytes = valid_trace_bytes();
  poke_u64(&bytes, kNeventsOff, 0xffffffffffffffffULL);
  const std::string err = read_error(bytes);
  EXPECT_NE(err.find("event count exceeds file size"), std::string::npos)
      << err;
}

TEST(TraceReaderRobustness, WrongVersionNamesBothVersions) {
  std::string bytes = valid_trace_bytes();
  poke_u32(&bytes, kVersionOff, 99);
  const std::string err = read_error(bytes);
  EXPECT_NE(err.find("99"), std::string::npos) << err;
  EXPECT_NE(err.find(std::to_string(trace::kBinaryTraceVersion)),
            std::string::npos)
      << err;
}

TEST(TraceReaderRobustness, V1MagicGetsTheMigrationHint) {
  std::string bytes = valid_trace_bytes();
  std::memcpy(bytes.data(), trace::kBinaryTraceMagicV1, 8);
  const std::string err = read_error(bytes);
  EXPECT_NE(err.find("v1"), std::string::npos) << err;
  EXPECT_NE(err.find("OLDNTRC2"), std::string::npos) << err;
}

TEST(TraceReaderRobustness, GarbageMagicIsRejected) {
  const std::string err = read_error("GARBAGE!plus some trailing bytes");
  EXPECT_NE(err.find("bad magic"), std::string::npos) << err;
}

TEST(TraceReaderRobustness, OutOfRangeEventKindIsRejected) {
  // The last kind reads; kNumEventKinds, the first past it, does not.
  // That one is 21, the retired fill_request: kinds 21 to 27 are the
  // coherence wire messages and scheme_flip, which traces written by old
  // faulted or adaptive runs still hold.
  std::string bytes = valid_trace_bytes();
  const std::size_t kind_off = kFirstRecordOff + kRecordKindOff;
  ASSERT_LT(kind_off, bytes.size());
  bytes[kind_off] = static_cast<char>(trace::kNumEventKinds - 1);
  EXPECT_EQ(read_error(bytes), "");
  for (const std::size_t kind : {trace::kNumEventKinds, std::size_t{0xff}}) {
    bytes[kind_off] = static_cast<char>(kind);
    const std::string err = read_error(bytes);
    EXPECT_NE(err.find("out-of-range kind " + std::to_string(kind)),
              std::string::npos)
        << err;
  }
}

TEST(TraceReaderRobustness, ProcessorIdOutsideTheRunIsRejected) {
  // The run has 2 processors; a record on processor 2 is corrupt.
  std::string bytes = valid_trace_bytes();
  poke_u32(&bytes, kFirstRecordOff + kRecordProcOff, 2);
  const std::string err = read_error(bytes);
  EXPECT_NE(err.find("on processor 2 of a 2-processor run"),
            std::string::npos)
      << err;
}

}  // namespace
}  // namespace olden::analyze
