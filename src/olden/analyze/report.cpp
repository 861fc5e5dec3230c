#include "olden/analyze/report.hpp"

#include <cinttypes>
#include <cstdio>

#include "olden/support/io.hpp"

namespace olden::analyze {

namespace {

using trace::CycleBucket;

}  // namespace

std::string human_report(const TraceRun& run, const RunReport& rep) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "run: %s (%u procs, makespan %" PRIu64 " cycles, %" PRIu64
                " events%s)\n",
                run.label.c_str(), run.nprocs, run.makespan, run.num_events,
                run.truncated() ? ", TRUNCATED" : "");
  out += buf;

  out += "critical path:\n";
  std::snprintf(buf, sizeof buf,
                "  total %" PRIu64 " cycles over %" PRIu64 " edges\n",
                rep.path.total_cycles, rep.path.edges);
  out += buf;
  for (std::size_t b = 0; b < trace::kNumBuckets; ++b) {
    const std::uint64_t w = rep.path.attribution[b];
    const double pct = rep.path.total_cycles == 0
                           ? 0.0
                           : 100.0 * static_cast<double>(w) /
                                 static_cast<double>(rep.path.total_cycles);
    std::snprintf(buf, sizeof buf, "  %-12s %12" PRIu64 "  %5.1f%%\n",
                  to_string(static_cast<CycleBucket>(b)), w, pct);
    out += buf;
  }

  // The handful of edges that dominate the path usually name the fix.
  out += "  heaviest edges:\n";
  for (const HeavyEdge& e : rep.path.heaviest) {
    char where[64] = "";
    if (e.dst_kind != kSinkNode) {
      std::snprintf(where, sizeof where, " @ proc %u t=%" PRIu64, e.proc,
                    e.time);
    }
    std::snprintf(buf, sizeof buf, "    %10" PRIu64 " %-12s %s -> %s%s\n",
                  e.weight, to_string(e.bucket), node_kind_name(e.src_kind),
                  node_kind_name(e.dst_kind), where);
    out += buf;
  }

  out += "hottest migration sites:\n";
  if (rep.hot_sites.empty()) out += "  (no migrations traced)\n";
  for (const SiteStats& s : rep.hot_sites) {
    const double mean =
        s.arrives_matched == 0
            ? 0.0
            : static_cast<double>(s.transit_cycles) /
                  static_cast<double>(s.arrives_matched);
    char site_name[32];
    if (s.site == trace::kNoSite) {
      std::snprintf(site_name, sizeof site_name, "(no site)");
    } else {
      std::snprintf(site_name, sizeof site_name, "site %u", s.site);
    }
    std::snprintf(buf, sizeof buf,
                  "  %-12s %8" PRIu64 " departs, %8" PRIu64
                  " transit cycles (mean %.1f)\n",
                  site_name, s.departs, s.transit_cycles, mean);
    out += buf;
  }

  std::snprintf(buf, sizeof buf,
                "pages: %" PRIu64 " tracked, %" PRIu64 " ping-pongs\n",
                rep.pages_tracked, rep.ping_pong_total);
  out += buf;
  for (const PageStats& p : rep.hot_pages) {
    std::snprintf(buf, sizeof buf,
                  "  page %-8" PRIu64 " heat %8" PRIu64 " fills %6" PRIu64
                  " invals %6" PRIu64 " ping-pongs %4" PRIu64
                  " sharers %2u%s\n",
                  p.page, p.heat, p.fills, p.invalidates, p.ping_pongs,
                  p.sharers, p.false_sharing_suspect ? "  FALSE-SHARING?" : "");
    out += buf;
  }

  if (rep.faults.any()) {
    out += "fault plane:\n";
    std::snprintf(buf, sizeof buf,
                  "  %" PRIu64 " drops, %" PRIu64 " delays, %" PRIu64
                  " duplicates injected; %" PRIu64 " retransmits, %" PRIu64
                  " duplicates suppressed\n",
                  rep.faults.drops, rep.faults.delays, rep.faults.duplicates,
                  rep.faults.retransmits, rep.faults.dup_suppressed);
    out += buf;
    std::snprintf(buf, sizeof buf,
                  "  %" PRIu64 " hiccups (%" PRIu64 " stall cycles); %" PRIu64
                  " retry cycles on the critical path\n",
                  rep.faults.hiccups, rep.faults.hiccup_cycles,
                  rep.path.attribution[static_cast<std::size_t>(
                      CycleBucket::kRetry)]);
    out += buf;
    if (rep.faults.retransmits > 0) {
      out += "  retransmits by class:";
      bool first = true;
      for (std::size_t i = 0; i < rep.faults.retransmits_by_class.size();
           ++i) {
        const std::uint64_t n = rep.faults.retransmits_by_class[i];
        if (n == 0) continue;
        std::snprintf(buf, sizeof buf, "%s %s %" PRIu64, first ? "" : ",",
                      FaultSummary::class_label(i), n);
        first = false;
        out += buf;
      }
      out += "\n";
    }
  }
  return out;
}

std::string json_report(const TraceFile& file,
                        const std::vector<RunReport>& reports) {
  std::string out;
  out.reserve(1 << 14);
  out += "{\"analysis_schema_version\":";
  out += std::to_string(kAnalysisSchemaVersion);
  out += ",\"generator\":\"olden-analyze\",";
  append_kv(out, "trace_version", static_cast<std::uint64_t>(file.version));
  out += "\"runs\":[";
  for (std::size_t r = 0; r < file.runs.size() && r < reports.size(); ++r) {
    const TraceRun& run = file.runs[r];
    const RunReport& rep = reports[r];
    if (r != 0) out += ",";
    out += "\n{\"label\":\"";
    append_escaped(out, run.label);
    out += "\",";
    append_kv(out, "nprocs", run.nprocs);
    append_kv(out, "makespan_cycles", run.makespan);
    append_kv(out, "events", run.num_events);
    append_kv(out, "events_dropped", run.events_dropped);
    out += "\"truncated\":";
    out += run.truncated() ? "true" : "false";
    out += ",\"critical_path\":{";
    append_kv(out, "total_cycles", rep.path.total_cycles);
    append_kv(out, "edges", rep.path.edges);
    out += "\"attribution\":{";
    for (std::size_t b = 0; b < trace::kNumBuckets; ++b) {
      append_kv(out, to_string(static_cast<CycleBucket>(b)),
                rep.path.attribution[b], b + 1 < trace::kNumBuckets);
    }
    out += "}},\"hot_sites\":[";
    for (std::size_t i = 0; i < rep.hot_sites.size(); ++i) {
      const SiteStats& s = rep.hot_sites[i];
      if (i != 0) out += ",";
      out += "{";
      append_kv(out, "site", s.site);
      append_kv(out, "departs", s.departs);
      append_kv(out, "arrives_matched", s.arrives_matched);
      append_kv(out, "transit_cycles", s.transit_cycles, /*comma=*/false);
      out += "}";
    }
    out += "],\"faults\":{";
    append_kv(out, "drops", rep.faults.drops);
    append_kv(out, "delays", rep.faults.delays);
    append_kv(out, "duplicates", rep.faults.duplicates);
    append_kv(out, "retransmits", rep.faults.retransmits);
    append_kv(out, "dup_suppressed", rep.faults.dup_suppressed);
    append_kv(out, "hiccups", rep.faults.hiccups);
    append_kv(out, "hiccup_cycles", rep.faults.hiccup_cycles);
    out += "\"retransmits_by_class\":{";
    for (std::size_t i = 0; i < rep.faults.retransmits_by_class.size(); ++i) {
      append_kv(out, FaultSummary::class_label(i),
                rep.faults.retransmits_by_class[i],
                i + 1 < rep.faults.retransmits_by_class.size());
    }
    out += "}},\"pages\":{";
    append_kv(out, "tracked", rep.pages_tracked);
    append_kv(out, "ping_pong_total", rep.ping_pong_total);
    out += "\"top\":[";
    for (std::size_t i = 0; i < rep.hot_pages.size(); ++i) {
      const PageStats& p = rep.hot_pages[i];
      if (i != 0) out += ",";
      out += "{";
      append_kv(out, "page", p.page);
      append_kv(out, "heat", p.heat);
      append_kv(out, "fills", p.fills);
      append_kv(out, "invalidates", p.invalidates);
      append_kv(out, "ping_pongs", p.ping_pongs);
      append_kv(out, "sharers", p.sharers);
      out += "\"false_sharing_suspect\":";
      out += p.false_sharing_suspect ? "true" : "false";
      out += "}";
    }
    out += "]}}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace olden::analyze
