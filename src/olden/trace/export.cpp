// Exporters for the observability layer: the structured stats JSON
// document and the human-readable per-processor cycle-breakdown table.
// (The binary event log is written by StreamingTraceSink as events fire;
// olden-analyze --chrome-out renders it as Chrome trace_event JSON.)
#include <cinttypes>
#include <cstdio>
#include <string>

#include "olden/support/io.hpp"
#include "olden/trace/observer.hpp"

namespace olden::trace {

namespace {

void append_histogram(std::string& out, const Histogram& h) {
  out += "{";
  append_kv(out, "count", h.count());
  append_kv(out, "sum", h.sum());
  append_kv(out, "min", h.min());
  append_kv(out, "max", h.max());
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"mean\":%.3f,", h.mean());
  out += buf;
  out += "\"buckets\":[";
  bool first = true;
  for (std::size_t b = 0; b < Histogram::kBucketCount; ++b) {
    if (h.bucket_count(b) == 0) continue;
    if (!first) out += ",";
    first = false;
    out += "{";
    append_kv(out, "lo", Histogram::bucket_lo(b));
    append_kv(out, "hi", Histogram::bucket_hi(b));
    append_kv(out, "count", h.bucket_count(b), /*comma=*/false);
    out += "}";
  }
  out += "]}";
}

}  // namespace

std::string stats_json(const Observer& obs) {
  std::string out;
  out.reserve(1 << 14);
  out += "{\"schema_version\":";
  out += std::to_string(kStatsSchemaVersion);
  out += ",\"generator\":\"olden-trace\",";
  // Top-level truncation flag: consumers (the analyzer, the bench harness)
  // check one place to learn the event stream is incomplete.
  bool truncated = false;
  for (const RunRecord& run : obs.runs()) {
    truncated = truncated || run.events_dropped > 0;
  }
  out += "\"trace_truncated\":";
  out += truncated ? "true" : "false";
  out += ",\"runs\":[";
  bool first_run = true;
  for (const RunRecord& run : obs.runs()) {
    if (!first_run) out += ",";
    first_run = false;
    out += "\n{\"label\":\"";
    append_escaped(out, run.label);
    out += "\",\"config\":{";
    append_kv(out, "nprocs", run.nprocs);
    out += "\"scheme\":\"";
    append_escaped(out, run.scheme);
    out += "\",\"sequential_baseline\":";
    out += run.sequential_baseline ? "true" : "false";
    for (const auto& [k, v] : run.meta) {
      out += ",\"";
      append_escaped(out, k);
      out += "\":\"";
      append_escaped(out, v);
      out += "\"";
    }
    out += "},";
    append_kv(out, "makespan_cycles", run.makespan);
    char buf[64];
    std::snprintf(buf, sizeof buf, "\"seconds\":%.9f,",
                  cycles_to_seconds(run.makespan));
    out += buf;
    out += "\"counters\":{";
    bool first = true;
    for (const auto& [k, v] : run.counters) {
      if (!first) out += ",";
      first = false;
      append_kv(out, k.c_str(), v, /*comma=*/false);
    }
    out += "},\"fault_classes\":{";
    first = true;
    for (std::size_t i = 0; i < kNumMsgClasses; ++i) {
      if (!first) out += ",";
      first = false;
      out += "\"";
      out += to_string(static_cast<MsgClass>(i));
      out += "\":{";
      append_kv(out, "sent", run.class_sent[i]);
      append_kv(out, "drops", run.class_drops[i]);
      append_kv(out, "dups", run.class_dups[i]);
      append_kv(out, "delays", run.class_delays[i]);
      append_kv(out, "retries", run.class_retries[i], /*comma=*/false);
      out += "}";
    }
    out += "},\"histograms\":{";
    first = true;
    for (std::size_t h = 0; h < kNumHists; ++h) {
      if (run.hists[h].empty()) continue;
      if (!first) out += ",";
      first = false;
      out += "\"";
      out += to_string(static_cast<Hist>(h));
      out += "\":";
      append_histogram(out, run.hists[h]);
    }
    out += "},\"breakdown\":[";
    for (ProcId p = 0; p < run.nprocs; ++p) {
      if (p != 0) out += ",";
      out += "{";
      append_kv(out, "proc", p);
      for (std::size_t b = 0; b < kNumBuckets; ++b) {
        append_kv(out, to_string(static_cast<CycleBucket>(b)),
                  run.breakdown[p][b]);
      }
      append_kv(out, "clock", run.proc_clock[p], /*comma=*/false);
      out += "}";
    }
    out += "],\"events\":{\"counts\":{";
    first = true;
    for (std::size_t k = 0; k < kNumEventKinds; ++k) {
      if (run.event_counts[k] == 0) continue;
      if (!first) out += ",";
      first = false;
      append_kv(out, to_string(static_cast<EventKind>(k)),
                run.event_counts[k], /*comma=*/false);
    }
    out += "},";
    append_kv(out, "retained", run.events_streamed);
    append_kv(out, "dropped", run.events_dropped, /*comma=*/false);
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

bool write_stats_json(const Observer& obs, const std::string& path,
                      std::string* err) {
  return write_file(path, stats_json(obs), err);
}

std::string breakdown_table(const RunRecord& run) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof buf, "cycle breakdown: %s (makespan %" PRIu64
                                 " cycles, %.6f s)\n",
                run.label.c_str(), run.makespan,
                cycles_to_seconds(run.makespan));
  out += buf;
  std::snprintf(buf, sizeof buf, "%-6s %12s %12s %12s %12s %12s %12s %12s\n",
                "proc", "compute", "migration", "cache_stall", "coherence",
                "idle", "retry", "clock");
  out += buf;
  auto row = [&](const char* name, const BucketCycles& b, Cycles clock) {
    std::snprintf(buf, sizeof buf,
                  "%-6s %12" PRIu64 " %12" PRIu64 " %12" PRIu64 " %12" PRIu64
                  " %12" PRIu64 " %12" PRIu64 " %12" PRIu64 "\n",
                  name, b[0], b[1], b[2], b[3], b[4], b[5], clock);
    out += buf;
  };
  Cycles clock_total = 0;
  for (ProcId p = 0; p < run.nprocs; ++p) {
    char name[16];
    std::snprintf(name, sizeof name, "%u", p);
    row(name, run.breakdown[p], run.proc_clock[p]);
    clock_total += run.proc_clock[p];
  }
  const BucketCycles t = run.bucket_totals();
  row("total", t, clock_total);
  const std::uint64_t busy_total =
      t[0] + t[1] + t[2] + t[3] + t[4] + t[5];
  if (busy_total > 0) {
    std::snprintf(buf, sizeof buf,
                  "%-6s %11.1f%% %11.1f%% %11.1f%% %11.1f%% %11.1f%% %11.1f%%\n",
                  "",
                  100.0 * static_cast<double>(t[0]) / busy_total,
                  100.0 * static_cast<double>(t[1]) / busy_total,
                  100.0 * static_cast<double>(t[2]) / busy_total,
                  100.0 * static_cast<double>(t[3]) / busy_total,
                  100.0 * static_cast<double>(t[4]) / busy_total,
                  100.0 * static_cast<double>(t[5]) / busy_total);
    out += buf;
  }
  return out;
}

}  // namespace olden::trace
