// StreamingTraceSink — the one encoder of the v2 ("OLDNTRC2") binary
// trace format, and the only place an Observer's events go.
//
// No run's events are held in memory (a 256K-node TreeAdd at p=8 emits
// millions of events; the full paper suite would need gigabytes of RAM),
// so the sink writes the byte stream incrementally: events go through a
// large private buffer as they are emitted, each as one record by
// encode_record (the record layout lives in trace.hpp, beside
// kBinaryRecordBytes and the reader's decode_record), and the fields a
// writer cannot know up front — the file-level run count and each run's
// makespan / dropped-event / event counts — are back-patched with fseek
// when the run (or file) closes.
//
// Lifecycle (driven by trace::Observer once installed via set_sink()):
//
//   StreamingTraceSink sink("trace.bin");
//   obs.set_sink(&sink);
//   ... runs: Observer calls begin_run()/append()/end_run() ...
//   sink.finalize(&err);   // back-patch the run count, flush, close
//
// Errors are sticky: the first I/O failure is recorded, every later call
// becomes a no-op, and finalize() reports it. The sink is single-threaded
// by design — each cell the cell runner runs (bench::run_cells) streams
// into a sink and file of its own, and the calling thread copies those
// files into the real sink in cell order (bench::adopt_cell).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "olden/support/types.hpp"
#include "olden/trace/trace.hpp"

namespace olden::trace {

class StreamingTraceSink {
 public:
  /// Write-buffer size: big enough that paper-scale runs hit the
  /// filesystem in ~4 MiB sequential chunks, small enough to be invisible
  /// next to the simulator's own footprint.
  static constexpr std::size_t kBufferBytes = std::size_t{4} << 20;

  explicit StreamingTraceSink(std::string path);
  ~StreamingTraceSink();
  StreamingTraceSink(const StreamingTraceSink&) = delete;
  StreamingTraceSink& operator=(const StreamingTraceSink&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] bool ok() const { return err_.empty(); }
  [[nodiscard]] const std::string& error() const { return err_; }
  [[nodiscard]] std::uint64_t events_written() const {
    return events_written_;
  }

  /// Open one run: writes the label header with zero placeholders for
  /// makespan / dropped / event count.
  void begin_run(const std::string& label, ProcId nprocs);

  /// Append one event record to the open run (hot path: 68 bytes into the
  /// buffer, amortized one fwrite per buffer fill).
  void append(const TraceEvent& e) {
    if (!run_open_ || !err_.empty()) {
      if (err_.empty()) set_error("event emitted outside a run");
      return;
    }
    if (buf_.size() + kBinaryRecordBytes > kBufferBytes) flush();
    const std::size_t at = buf_.size();
    buf_.resize(at + kBinaryRecordBytes);
    encode_record(e, buf_.data() + at);
    ++run_events_;
    ++events_written_;
  }

  /// Close the open run: back-patches its makespan / dropped / event-count
  /// header fields.
  void end_run(Cycles makespan, std::uint64_t events_dropped);

  /// Back-patch the file-level run count, flush and close. Idempotent; the
  /// destructor calls it as a safety net. Returns false (and sets *err)
  /// if any write along the way failed.
  bool finalize(std::string* err = nullptr);

 private:
  /// Append header bytes (a label longer than the buffer grows it).
  void put(const char* bytes, std::size_t n) {
    if (buf_.size() + n > kBufferBytes) flush();
    buf_.insert(buf_.end(), bytes, bytes + n);
  }
  void flush();
  void set_error(std::string what);
  /// Seek to `off`, overwrite `n` bytes, seek back to the end.
  void patch(long off, const char* bytes, std::size_t n);

  std::string path_;
  std::FILE* file_ = nullptr;
  std::vector<char> buf_;
  std::string err_;
  /// Bytes already fwritten; logical position = written_ + buf_.size().
  std::uint64_t written_ = 0;
  /// File offset of the open run's makespan/dropped/nevents patch area.
  std::uint64_t run_patch_off_ = 0;
  std::uint64_t run_events_ = 0;
  std::uint64_t events_written_ = 0;
  std::uint32_t runs_begun_ = 0;
  bool run_open_ = false;
  bool finalized_ = false;
};

}  // namespace olden::trace
