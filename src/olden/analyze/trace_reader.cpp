#include "olden/analyze/trace_reader.hpp"

#include <cstdio>
#include <cstring>

namespace olden::analyze {

namespace {

bool read_exact(std::FILE* f, void* dst, std::size_t n) {
  return std::fread(dst, 1, n, f) == n;
}

}  // namespace

TraceStream::~TraceStream() {
  if (file_ != nullptr) std::fclose(file_);
}

bool TraceStream::fail(std::string* err, const std::string& msg) {
  if (err != nullptr) *err = path_.empty() ? msg : path_ + ": " + msg;
  return false;
}

bool TraceStream::open(const std::string& path, std::string* err) {
  if (file_ != nullptr) return fail(err, "stream already open");
  path_ = path;
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    path_.clear();
    return fail(err, "cannot open " + path);
  }
  if (std::fseek(file_, 0, SEEK_END) != 0) return fail(err, "seek failed");
  const long end = std::ftell(file_);
  if (end < 0) return fail(err, "seek failed");
  file_size_ = static_cast<std::uint64_t>(end);
  if (std::fseek(file_, 0, SEEK_SET) != 0) return fail(err, "seek failed");

  char magic[8];
  if (file_size_ < 8 || !read_exact(file_, magic, 8)) {
    return fail(err, "trace too short for magic");
  }
  pos_ = 8;
  if (std::memcmp(magic, trace::kBinaryTraceMagicV1, 8) == 0) {
    return fail(err,
                "binary trace is format v1 (OLDNTRC1); this analyzer "
                "requires v2 (OLDNTRC2) — regenerate the trace with a "
                "current bench binary");
  }
  if (std::memcmp(magic, trace::kBinaryTraceMagic, 8) != 0) {
    return fail(err, "not an Olden binary trace (bad magic)");
  }
  char hdr[8];
  if (!read_exact(file_, hdr, 8)) return fail(err, "truncated trace header");
  pos_ += 8;
  const auto version = trace::load_le<std::uint32_t>(hdr);
  num_runs_ = trace::load_le<std::uint32_t>(hdr + 4);
  if (version != static_cast<std::uint32_t>(trace::kBinaryTraceVersion)) {
    return fail(err, "unsupported binary trace version " +
                         std::to_string(version) + " (expected " +
                         std::to_string(trace::kBinaryTraceVersion) + ")");
  }
  // A run header is at least 32 bytes (label length + nprocs + makespan +
  // dropped + event count), so a run count the file cannot hold is
  // corruption: reject it before anything is sized from it.
  if (num_runs_ > (file_size_ - pos_) / 32) {
    return fail(err, "run count " + std::to_string(num_runs_) +
                         " exceeds file size (v" + std::to_string(version) +
                         " header corrupt?)");
  }
  version_ = static_cast<int>(version);
  return true;
}

bool TraceStream::next_run(TraceRun* run, std::string* err) {
  if (err != nullptr) err->clear();
  if (file_ == nullptr) return fail(err, "stream not open");
  if (run_events_left_ > 0) {
    // Caller moved on without draining the events: seek past them.
    const std::uint64_t skip = run_events_left_ * trace::kBinaryRecordBytes;
    if (std::fseek(file_, static_cast<long>(skip), SEEK_CUR) != 0) {
      return fail(err, "seek failed");
    }
    pos_ += skip;
    run_events_left_ = 0;
  }
  if (runs_delivered_ >= num_runs_) {
    // The streaming sink back-patches run/event counts at finalize; a crash
    // (or a copy taken mid-write) leaves zeroed counts with the records
    // still present. A clean end of file must land exactly on the file
    // size, or the header under-claims what was written and the analysis
    // would silently cover an empty or partial prefix.
    if (pos_ != file_size_) {
      std::string msg = "v";
      msg += std::to_string(version_);
      msg += " header declares ";
      msg += std::to_string(num_runs_);
      msg += " run(s) but ";
      msg += std::to_string(file_size_ - pos_);
      msg +=
          " byte(s) follow the last declared record — header counts "
          "disagree with records present (unfinalized streaming trace?)";
      return fail(err, msg);
    }
    return false;  // clean end of file
  }
  const std::string rno = std::to_string(runs_delivered_);

  char lenb[4];
  if (!read_exact(file_, lenb, 4)) {
    return fail(err, "truncated run header (run " + rno + ")");
  }
  pos_ += 4;
  const auto label_len = trace::load_le<std::uint32_t>(lenb);
  if (label_len > file_size_ - pos_) {
    return fail(err, "run label length " + std::to_string(label_len) +
                         " exceeds file size (run " + rno + ")");
  }
  run->label.resize(label_len);
  if (label_len > 0 && !read_exact(file_, run->label.data(), label_len)) {
    return fail(err, "truncated run header (run " + rno + ")");
  }
  pos_ += label_len;

  char tail[4 + 8 + 8 + 8];
  if (!read_exact(file_, tail, sizeof tail)) {
    return fail(err, "truncated run header (run " + rno + ")");
  }
  pos_ += sizeof tail;
  const auto nprocs = trace::load_le<std::uint32_t>(tail);
  run->makespan = trace::load_le<std::uint64_t>(tail + 4);
  run->events_dropped = trace::load_le<std::uint64_t>(tail + 12);
  const auto nevents = trace::load_le<std::uint64_t>(tail + 20);
  // The simulator never runs more than kMaxProcs processors; a larger
  // value is corruption, and passing it through would size analysis
  // arrays (per-processor chains) from attacker-controlled bytes.
  if (nprocs == 0 || nprocs > kMaxProcs) {
    return fail(err, "implausible processor count " + std::to_string(nprocs) +
                         " (run " + rno + ", max " + std::to_string(kMaxProcs) +
                         ")");
  }
  run->nprocs = static_cast<ProcId>(nprocs);
  run_nprocs_ = run->nprocs;
  if (nevents > (file_size_ - pos_) / trace::kBinaryRecordBytes) {
    return fail(err, "event count exceeds file size (run " + rno + ")");
  }
  run->num_events = nevents;
  run_events_left_ = nevents;
  ++runs_delivered_;
  return true;
}

bool TraceStream::next_events(std::vector<trace::TraceEvent>* batch,
                              std::size_t max, std::string* err) {
  if (err != nullptr) err->clear();
  batch->clear();
  if (file_ == nullptr) return fail(err, "stream not open");
  if (run_events_left_ == 0 || max == 0) return false;  // run exhausted

  const std::uint64_t want =
      max < run_events_left_ ? max : run_events_left_;
  buf_.resize(static_cast<std::size_t>(want) * trace::kBinaryRecordBytes);
  if (!read_exact(file_, buf_.data(), buf_.size())) {
    return fail(err, "truncated event record");
  }
  pos_ += buf_.size();
  run_events_left_ -= want;

  batch->reserve(static_cast<std::size_t>(want));
  const char* p = buf_.data();
  for (std::uint64_t i = 0; i < want; ++i, p += trace::kBinaryRecordBytes) {
    const trace::TraceEvent e = trace::decode_record(p);
    const auto kind = static_cast<std::uint8_t>(e.kind);
    if (kind >= trace::kNumEventKinds) {
      return fail(err, "event record with out-of-range kind " +
                           std::to_string(kind));
    }
    if (e.proc >= run_nprocs_) {
      return fail(err, "event record on processor " + std::to_string(e.proc) +
                           " of a " + std::to_string(run_nprocs_) +
                           "-processor run");
    }
    batch->push_back(e);
  }
  return true;
}

}  // namespace olden::analyze
