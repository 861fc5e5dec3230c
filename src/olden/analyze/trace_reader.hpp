// Reader for the binary trace log (format v2, "OLDNTRC2").
//
// The reader is the bridge between the runtime's observability layer and
// the analysis engine: it streams the bytes StreamingTraceSink wrote back
// as run headers (nprocs, makespan, dropped-event count) and bounded
// batches of TraceEvents, so multi-GB traces are analyzed without being
// loaded. Malformed input fails with a descriptive error: wrong magic, v1
// logs (detected by magic and named explicitly, never mis-parsed), counts
// the file size cannot hold, implausible processor counts, records with
// an out-of-range event kind or processor id, truncated records, and
// header counts that disagree with the records present.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "olden/trace/trace.hpp"

namespace olden::analyze {

/// The header of one run of a binary trace log.
struct TraceRun {
  std::string label;
  ProcId nprocs = 0;
  Cycles makespan = 0;
  /// Events the observer discarded at its retention limit. When non-zero
  /// the event stream is incomplete and analyses flag the run truncated.
  std::uint64_t events_dropped = 0;
  /// Events recorded in the run (the records that follow the header).
  std::uint64_t num_events = 0;

  [[nodiscard]] bool truncated() const { return events_dropped > 0; }
};

/// The run headers of a whole trace file, as json_report renders them.
struct TraceFile {
  int version = 0;  ///< always kBinaryTraceVersion after a successful read
  std::vector<TraceRun> runs;
};

/// Streaming reader over a binary trace file:
///
///   TraceStream ts;
///   ts.open(path, &err);
///   TraceRun run;
///   while (ts.next_run(&run, &err)) {
///     while (ts.next_events(&batch, 65536, &err)) { ... }
///     // falls out with err empty when the run is exhausted
///   }
///   // next_run false + empty err = clean end of file
class TraceStream {
 public:
  TraceStream() = default;
  ~TraceStream();
  TraceStream(const TraceStream&) = delete;
  TraceStream& operator=(const TraceStream&) = delete;

  bool open(const std::string& path, std::string* err);
  [[nodiscard]] int version() const { return version_; }
  [[nodiscard]] std::uint32_t num_runs() const { return num_runs_; }

  /// Advance to the next run header. Skips any unread events of the
  /// current run. Returns false with *err empty at end of file, false with
  /// *err set on malformed input.
  bool next_run(TraceRun* run, std::string* err);

  /// Read up to `max` events of the current run into *batch (replaced,
  /// not appended). Returns false with *err empty when the run's events
  /// are exhausted, false with *err set on malformed input.
  bool next_events(std::vector<trace::TraceEvent>* batch, std::size_t max,
                   std::string* err);

 private:
  bool fail(std::string* err, const std::string& msg);

  std::FILE* file_ = nullptr;
  std::string path_;
  std::uint64_t file_size_ = 0;
  std::uint64_t pos_ = 0;
  int version_ = 0;
  std::uint32_t num_runs_ = 0;
  std::uint32_t runs_delivered_ = 0;
  std::uint64_t run_events_left_ = 0;
  ProcId run_nprocs_ = 0;  ///< the current run's processor count
  std::string buf_;  ///< batch read buffer, reused across next_events calls
};

}  // namespace olden::analyze
