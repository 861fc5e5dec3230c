// RunProfile accumulation + the schema-versioned profile JSON exporter.
#include "olden/profile/profile.hpp"

#include <cinttypes>
#include <cstdio>

#include "olden/support/io.hpp"
#include "olden/trace/observer.hpp"

namespace olden::profile {

void RunProfile::count_site_access(Cycles t, SiteId site) {
  ++sites[site].timeline[interval_of(t)];
  ++intervals[interval_of(t)].accesses;
}

void RunProfile::add_access(Cycles t, SiteId site, std::uint64_t page,
                            AccessClass cls) {
  SiteProfile& s = sites[site];
  PageProfile& pg = pages[page];
  switch (cls) {
    case AccessClass::kLocalRead:
      ++s.local_reads;
      ++pg.local_accesses;
      break;
    case AccessClass::kLocalWrite:
      ++s.local_writes;
      ++pg.local_accesses;
      break;
    case AccessClass::kWriteThrough:
      ++s.write_throughs;
      ++pg.write_throughs;
      break;
  }
  count_site_access(t, site);
}

void RunProfile::add_cycles(Cycles start, Cycles end, trace::CycleBucket b) {
  if (end <= start) return;
  const std::size_t bi = static_cast<std::size_t>(b);
  const Cycles w = interval_cycles;
  for (std::uint64_t i = start / w; i <= (end - 1) / w; ++i) {
    const Cycles lo = i * w;
    const Cycles hi = lo + w;
    const Cycles slice = (end < hi ? end : hi) - (start > lo ? start : lo);
    intervals[i].cycles[bi] += slice;
  }
}

void RunProfile::on_event(trace::EventKind k, Cycles t, ProcId p, SiteId site,
                          std::uint64_t a0, std::uint64_t a1) {
  using trace::EventKind;
  switch (k) {
    case EventKind::kMigrationDepart:
      // One dereference that moved the computation to the data. arg0 is
      // the target processor; the post-migration local completion is not
      // re-counted, so the access is charged here, at departure time.
      if (site != trace::kNoSite) {
        ++sites[site].migrations;
        count_site_access(t, site);
      }
      ++intervals[interval_of(t)].migrations;
      if (p < procs.size()) ++procs[p].migrations_out;
      if (a0 < procs.size()) ++procs[a0].migrations_in;
      break;
    case EventKind::kCacheHit:
      if (site != trace::kNoSite) {
        ++sites[site].cache_hits;
        count_site_access(t, site);
      }
      ++pages[a0].cache_hits;
      break;
    case EventKind::kCacheMiss:
      if (site != trace::kNoSite) {
        ++sites[site].cache_misses;
        count_site_access(t, site);
      }
      ++pages[a0].cache_misses;
      break;
    case EventKind::kCacheLineFill:
      ++pages[a0].line_fills;
      break;
    case EventKind::kLineInvalidate:
      pages[a0].lines_invalidated += a1;
      break;
    case EventKind::kTimestampCheck:
      ++pages[a0].timestamp_checks;
      pages[a0].lines_invalidated += a1;
      break;
    case EventKind::kFutureSteal:
      ++intervals[interval_of(t)].future_steals;
      if (p < procs.size()) ++procs[p].future_steals;
      break;
    default:
      break;
  }
}

std::uint64_t RunProfile::total_accesses() const {
  std::uint64_t n = 0;
  for (const auto& [site, s] : sites) n += s.accesses();
  return n;
}

std::uint64_t RunProfile::total_migrations() const {
  std::uint64_t n = 0;
  for (const auto& [i, s] : intervals) n += s.migrations;
  return n;
}

std::uint64_t RunProfile::total_future_steals() const {
  std::uint64_t n = 0;
  for (const auto& [i, s] : intervals) n += s.future_steals;
  return n;
}

// --- profile JSON exporter --------------------------------------------------

namespace {

void append_site(std::string& out, const std::string& benchmark, SiteId site,
                 const SiteProfile& s) {
  out += "    {";
  append_kv(out, "site", site);
  if (!benchmark.empty()) {
    out += "\"site_uid\":\"";
    append_escaped(out, benchmark);
    char buf[32];
    std::snprintf(buf, sizeof buf, "#%u\",", site);
    out += buf;
  }
  out += "\"mechanism\":\"";
  out += to_string(s.mechanism);
  out += "\",";
  append_kv(out, "local_reads", s.local_reads);
  append_kv(out, "local_writes", s.local_writes);
  append_kv(out, "cache_hits", s.cache_hits);
  append_kv(out, "cache_misses", s.cache_misses);
  append_kv(out, "write_throughs", s.write_throughs);
  append_kv(out, "migrations", s.migrations);
  append_kv(out, "accesses", s.accesses());
  out += "\"timeline\":[";
  bool first = true;
  for (const auto& [interval, n] : s.timeline) {
    if (!first) out += ",";
    first = false;
    char buf[64];
    std::snprintf(buf, sizeof buf, "[%" PRIu64 ",%" PRIu64 "]", interval, n);
    out += buf;
  }
  out += "]}";
}

void append_run(std::string& out, const trace::RunRecord& run) {
  const RunProfile& p = run.profile;
  const auto bench_it = run.meta.find("benchmark");
  const std::string benchmark =
      bench_it == run.meta.end() ? std::string{} : bench_it->second;

  out += "  {\"label\":\"";
  append_escaped(out, run.label);
  out += "\",\"benchmark\":\"";
  append_escaped(out, benchmark);
  out += "\",";
  append_kv(out, "nprocs", run.nprocs);
  out += "\"scheme\":\"";
  append_escaped(out, run.scheme);
  out += "\",";
  out += "\"sequential_baseline\":";
  out += run.sequential_baseline ? "true," : "false,";
  append_kv(out, "makespan_cycles", run.makespan);
  append_kv(out, "interval_cycles", p.interval_cycles);
  out += "\"totals\":{";
  append_kv(out, "accesses", p.total_accesses());
  append_kv(out, "migrations", p.total_migrations());
  append_kv(out, "future_steals", p.total_future_steals(), /*comma=*/false);
  out += "},\n  \"sites\":[\n";
  bool first = true;
  for (const auto& [site, s] : p.sites) {
    if (!first) out += ",\n";
    first = false;
    append_site(out, benchmark, site, s);
  }
  out += "\n  ],\n  \"pages\":[\n";
  first = true;
  for (const auto& [page, pg] : p.pages) {
    if (!first) out += ",\n";
    first = false;
    out += "    {";
    append_kv(out, "page", page);
    append_kv(out, "local_accesses", pg.local_accesses);
    append_kv(out, "cache_hits", pg.cache_hits);
    append_kv(out, "cache_misses", pg.cache_misses);
    append_kv(out, "write_throughs", pg.write_throughs);
    append_kv(out, "line_fills", pg.line_fills);
    append_kv(out, "lines_invalidated", pg.lines_invalidated);
    append_kv(out, "timestamp_checks", pg.timestamp_checks, /*comma=*/false);
    out += "}";
  }
  out += "\n  ],\n  \"procs\":[\n";
  for (std::size_t i = 0; i < p.procs.size(); ++i) {
    if (i != 0) out += ",\n";
    out += "    {";
    append_kv(out, "proc", i);
    append_kv(out, "migrations_out", p.procs[i].migrations_out);
    append_kv(out, "migrations_in", p.procs[i].migrations_in);
    append_kv(out, "future_steals", p.procs[i].future_steals,
              /*comma=*/false);
    out += "}";
  }
  out += "\n  ],\n  \"intervals\":[\n";
  first = true;
  for (const auto& [interval, s] : p.intervals) {
    if (!first) out += ",\n";
    first = false;
    out += "    {";
    append_kv(out, "interval", interval);
    append_kv(out, "start_cycle", interval * p.interval_cycles);
    append_kv(out, "accesses", s.accesses);
    append_kv(out, "migrations", s.migrations);
    append_kv(out, "future_steals", s.future_steals);
    out += "\"cycles\":{";
    for (std::size_t b = 0; b < trace::kNumBuckets; ++b) {
      append_kv(out, to_string(static_cast<trace::CycleBucket>(b)),
                s.cycles[b], /*comma=*/b + 1 < trace::kNumBuckets);
    }
    out += "}}";
  }
  out += "\n  ]}";
}

}  // namespace

std::string profile_json(const trace::Observer& obs) {
  std::string out;
  out += "{\n";
  append_kv(out, "profile_schema_version", kProfileSchemaVersion);
  out += "\"generator\":\"olden-profile\",\n\"runs\":[\n";
  bool first = true;
  for (const trace::RunRecord& run : obs.runs()) {
    if (!first) out += ",\n";
    first = false;
    append_run(out, run);
  }
  out += "\n]}\n";
  return out;
}

bool write_profile_json(const trace::Observer& obs, const std::string& path,
                        std::string* err) {
  return write_file(path, profile_json(obs), err);
}

}  // namespace olden::profile
