// olden-analyze --chrome-out: the binary trace rendered as Chrome
// trace_event JSON in one TraceStream pass, written as it goes.
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "olden/analyze/streaming.hpp"
#include "olden/support/io.hpp"

namespace olden::analyze {

namespace {

using trace::EventKind;
using trace::TraceEvent;

/// Instant-event scope is per-thread so each event lands on its
/// processor's track.
void append_instant(std::string& out, std::size_t pid, const TraceEvent& e) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":%zu,"
                "\"tid\":%u,\"ts\":%" PRIu64 ",\"args\":{",
                to_string(e.kind), pid, e.proc, e.time);
  out += buf;
  if (e.thread != trace::kNoThread) append_kv(out, "thread", e.thread);
  if (e.site != trace::kNoSite) append_kv(out, "site", e.site);
  if (e.chain != trace::kNoChain) append_kv(out, "chain", e.chain);
  append_kv(out, "arg0", e.arg0);
  append_kv(out, "arg1", e.arg1, /*comma=*/false);
  out += "}},\n";
}

/// Migration / return-stub arrivals carry their transit latency in arg1;
/// render them as duration ("X") slices on the destination track so
/// Perfetto shows communication as filled spans.
void append_transit(std::string& out, std::size_t pid, const TraceEvent& e,
                    const char* name) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%zu,\"tid\":%u,"
                "\"ts\":%" PRIu64 ",\"dur\":%" PRIu64 ",\"args\":{",
                name, pid, e.proc, e.time - e.arg1, e.arg1);
  out += buf;
  if (e.thread != trace::kNoThread) append_kv(out, "thread", e.thread);
  append_kv(out, "from_proc", e.arg0, /*comma=*/false);
  out += "}},\n";
}

/// One Perfetto flow arrow, named after what the child event represents:
/// "s" (start) at the parent event, "f" with bp:"e" (finish, bind to
/// enclosing) at the child. Perfetto matches the two halves on (cat, id).
void append_flow(std::string& out, std::size_t pid,
                 std::pair<Cycles, ProcId> parent, const TraceEvent& child) {
  const char* name =
      child.kind == EventKind::kMigrationArrive    ? "migration"
      : child.kind == EventKind::kReturnStubArrive ? "return_stub"
      : child.kind == EventKind::kFutureSteal      ? "future_steal"
                                                   : "causal";
  const std::uint64_t id = (static_cast<std::uint64_t>(pid) << 40) | child.id;
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"name\":\"%s\",\"cat\":\"causal\",\"ph\":\"s\","
                "\"id\":%" PRIu64 ",\"pid\":%zu,\"tid\":%u,\"ts\":%" PRIu64
                "},\n{\"name\":\"%s\",\"cat\":\"causal\",\"ph\":\"f\","
                "\"bp\":\"e\",\"id\":%" PRIu64 ",\"pid\":%zu,\"tid\":%u,"
                "\"ts\":%" PRIu64 "},\n",
                name, id, pid, parent.second, parent.first, name, id, pid,
                child.proc, child.time);
  out += buf;
}

/// The process and thread-name metadata that open run `pid`.
void append_run_header(std::string& out, std::size_t pid,
                       const TraceRun& run) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%zu,"
                "\"args\":{\"name\":\"",
                pid);
  out += buf;
  append_escaped(out, run.label);
  std::snprintf(buf, sizeof buf,
                "\"}},\n{\"name\":\"process_sort_index\",\"ph\":\"M\","
                "\"pid\":%zu,\"args\":{\"sort_index\":%zu}},\n",
                pid, pid);
  out += buf;
  for (ProcId p = 0; p < run.nprocs; ++p) {
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%zu,"
                  "\"tid\":%u,\"args\":{\"name\":\"proc %u\"}},\n",
                  pid, p, p);
    out += buf;
  }
}

}  // namespace

bool render_chrome_trace(const std::string& path, const std::string& out_path,
                         std::string* err) {
  TraceStream ts;
  if (!ts.open(path, err)) return false;
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(out_path.c_str(), "wb"), &std::fclose);
  if (f == nullptr) {
    *err = "cannot open " + out_path + " for writing";
    return false;
  }
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool wrote = true;
  const auto write_out = [&] {
    wrote =
        wrote && std::fwrite(out.data(), 1, out.size(), f.get()) == out.size();
    out.clear();
  };
  // The time and processor of each event of the current run, by id: all
  // a flow arrow needs of its parent.
  std::vector<std::pair<Cycles, ProcId>> at;
  std::vector<TraceEvent> batch;
  TraceRun run;
  for (std::size_t pid = 0; err->empty() && ts.next_run(&run, err); ++pid) {
    append_run_header(out, pid, run);
    at.clear();
    at.reserve(run.num_events);
    while (err->empty() && ts.next_events(&batch, 1 << 16, err)) {
      for (const TraceEvent& e : batch) {
        // Ids are dense and parents precede their children, so a
        // truncated run keeps every retained event's parent.
        if (e.id != at.size() ||
            (e.parent != trace::kNoEvent && e.parent >= e.id)) {
          *err = path + ": run '" + run.label + "': event record " +
                 std::to_string(at.size()) +
                 " breaks the dense-id, backward-parent order";
          break;
        }
        at.emplace_back(e.time, e.proc);
        if (e.kind == EventKind::kMigrationArrive) {
          append_transit(out, pid, e, "migration");
        } else if (e.kind == EventKind::kReturnStubArrive) {
          append_transit(out, pid, e, "return_stub");
        } else {
          append_instant(out, pid, e);
        }
        // Draw arrows only for cross-processor causality: same-track
        // links are already visible as event order, and Perfetto renders
        // them as clutter.
        if (e.parent != trace::kNoEvent && at[e.parent].second != e.proc) {
          append_flow(out, pid, at[e.parent], e);
        }
      }
      if (out.size() >= std::size_t{1} << 20) write_out();
    }
  }
  // Closing sentinel avoids trailing-comma bookkeeping and marks the
  // export as complete.
  out += "{\"name\":\"olden_trace_end\",\"ph\":\"M\",\"pid\":0,\"args\":{}}\n";
  out += "]}\n";
  if (err->empty()) write_out();
  const bool closed = std::fclose(f.release()) == 0;
  if (!err->empty()) return false;
  if (wrote && closed) return true;
  *err = "cannot write " + out_path + ": " + std::strerror(errno);
  return false;
}

}  // namespace olden::analyze
