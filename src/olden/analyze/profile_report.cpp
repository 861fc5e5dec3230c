#include "olden/analyze/profile_report.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

#include "olden/profile/feedback.hpp"

namespace olden::analyze {

namespace {

void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out += buf;
}

/// The bucket that dominated an interval (ties resolve to the lower
/// bucket index, deterministically).
std::size_t dominant_bucket(const profile::IntervalRow& iv) {
  std::size_t best = 0;
  for (std::size_t b = 1; b < trace::kNumBuckets; ++b) {
    if (iv.cycles[b] > iv.cycles[best]) best = b;
  }
  return best;
}

std::string site_name(const profile::SiteRow& s) {
  if (!s.site_uid.empty()) return s.site_uid;
  return "site " + std::to_string(s.site);
}

void append_scoreboard_row(std::string& out, const profile::SiteRow& s,
                           const SiteGrade& g) {
  appendf(out, "    %-16s %-7s acc=%-8" PRIu64 " local=%5.1f%%",
          site_name(s).c_str(), s.mechanism.c_str(), s.accesses,
          100.0 * g.local_fraction);
  if (s.cache_hits + s.cache_misses > 0) {
    appendf(out, " hit=%5.1f%%", 100.0 * g.hit_rate);
  } else {
    out += "           ";
  }
  appendf(out, " mig=%-6" PRIu64, s.migrations);
  if (g.agree) {
    out += " agree\n";
  } else {
    appendf(out, " DISAGREE (recommend %s)\n", to_string(g.recommended));
  }
}

void append_run_report(std::string& out, const profile::ProfileRun& run,
                       std::size_t top, std::uint64_t* sites_total,
                       std::uint64_t* agree_total,
                       std::uint64_t* disagree_total) {
  appendf(out, "run %s (scheme %s, p=%u%s)\n", run.label.c_str(),
          run.scheme.c_str(), run.nprocs,
          run.sequential_baseline ? ", sequential baseline" : "");
  appendf(out,
          "  makespan %" PRIu64 " cycles, %zu intervals x %" PRIu64
          " cycles, %" PRIu64 " accesses, %" PRIu64 " migrations, %" PRIu64
          " future steals\n",
          run.makespan_cycles, run.intervals.size(), run.interval_cycles,
          run.total_accesses, run.total_migrations, run.total_future_steals);

  // Phase changes: where the dominant cycle bucket shifts between
  // consecutive intervals (TSP's build -> tour boundary, Health's list
  // churn onset, ...).
  if (run.intervals.size() > 1) {
    std::string changes;
    std::size_t prev = dominant_bucket(run.intervals[0]);
    for (std::size_t i = 1; i < run.intervals.size(); ++i) {
      const std::size_t cur = dominant_bucket(run.intervals[i]);
      if (cur != prev) {
        appendf(changes, "    interval %" PRIu64 " (cycle %" PRIu64 "): %s -> %s\n",
                run.intervals[i].interval, run.intervals[i].start_cycle,
                to_string(static_cast<trace::CycleBucket>(prev)),
                to_string(static_cast<trace::CycleBucket>(cur)));
        prev = cur;
      }
    }
    if (changes.empty()) {
      out += "  phase changes: none (dominant bucket "
             "stable)\n";
    } else {
      out += "  phase changes (dominant cycle bucket):\n" + changes;
    }
  }

  // Page heat, ranked by remote accesses (what the caching mechanism and
  // the coherence protocol actually fight over), local as tiebreak.
  if (!run.pages.empty()) {
    std::vector<const profile::PageRow*> ranked;
    ranked.reserve(run.pages.size());
    for (const profile::PageRow& p : run.pages) ranked.push_back(&p);
    std::sort(ranked.begin(), ranked.end(),
              [](const profile::PageRow* a, const profile::PageRow* b) {
                if (a->remote_accesses() != b->remote_accesses()) {
                  return a->remote_accesses() > b->remote_accesses();
                }
                if (a->local_accesses != b->local_accesses) {
                  return a->local_accesses > b->local_accesses;
                }
                return a->page < b->page;
              });
    const std::size_t n = std::min(top, ranked.size());
    appendf(out, "  page heat (top %zu of %zu by remote accesses):\n", n,
            ranked.size());
    for (std::size_t i = 0; i < n; ++i) {
      const profile::PageRow& p = *ranked[i];
      appendf(out,
              "    page %-8" PRIu64 " remote=%-8" PRIu64 " local=%-8" PRIu64
              " fills=%-6" PRIu64 " invalidated=%-6" PRIu64
              " ts_checks=%" PRIu64 "\n",
              p.page, p.remote_accesses(), p.local_accesses, p.line_fills,
              p.lines_invalidated, p.timestamp_checks);
    }
  }

  // The heuristic scoreboard. Baseline runs never engage a mechanism, so
  // they have no sites to grade.
  if (run.sites.empty()) {
    out += "  scoreboard: no profiled sites\n";
  } else {
    out += "  heuristic scoreboard (static decision vs observed):\n";
    std::uint64_t agree = 0;
    for (const profile::SiteRow& s : run.sites) {
      const SiteGrade g = grade_site(s);
      append_scoreboard_row(out, s, g);
      if (g.agree) ++agree;
    }
    *sites_total += run.sites.size();
    *agree_total += agree;
    *disagree_total += run.sites.size() - agree;
    appendf(out, "  sites: %zu (agree %" PRIu64 ", disagree %" PRIu64 ")\n",
            run.sites.size(), agree,
            static_cast<std::uint64_t>(run.sites.size()) - agree);
  }
  out += "\n";
}

}  // namespace

SiteGrade grade_site(const profile::SiteRow& s) {
  SiteGrade g;
  g.chosen = s.mechanism == "cache" ? Mechanism::kCache : Mechanism::kMigrate;
  g.recommended = g.chosen;
  if (s.accesses == 0) return g;  // never exercised: nothing to grade

  const std::uint64_t local = s.local_reads + s.local_writes;
  g.local_fraction =
      static_cast<double>(local) / static_cast<double>(s.accesses);
  const std::uint64_t reads = s.cache_hits + s.cache_misses;
  g.hit_rate = reads == 0 ? 0.0
                          : static_cast<double>(s.cache_hits) /
                                static_cast<double>(reads);

  g.recommended =
      graded_mechanism(g.chosen, s.accesses, local, reads, s.cache_hits);
  g.agree = g.recommended == g.chosen;
  return g;
}

std::string profile_human_report(const profile::ProfileDoc& doc,
                                 std::size_t top) {
  std::string out;
  appendf(out, "profile: %zu run(s), schema v%d\n\n", doc.runs.size(),
          doc.schema_version);
  std::uint64_t sites = 0, agree = 0, disagree = 0;
  for (const profile::ProfileRun& run : doc.runs) {
    append_run_report(out, run, top, &sites, &agree, &disagree);
  }
  appendf(out,
          "scoreboard: %" PRIu64 " sites, %" PRIu64 " agree, %" PRIu64
          " disagree\n",
          sites, agree, disagree);
  return out;
}

std::string feedback_from_profile(const profile::ProfileDoc& doc) {
  // Aggregate observed behaviour per stable (benchmark, site) identifier
  // over every non-baseline run, so one recommendation covers all three
  // coherence schemes of a bench_cell profile.
  std::map<std::pair<std::string, SiteId>, profile::SiteRow> agg;
  for (const profile::ProfileRun& run : doc.runs) {
    if (run.sequential_baseline || run.benchmark.empty()) continue;
    for (const profile::SiteRow& s : run.sites) {
      auto [it, fresh] = agg.try_emplace({run.benchmark, s.site}, s);
      if (fresh) continue;
      profile::SiteRow& a = it->second;
      a.local_reads += s.local_reads;
      a.local_writes += s.local_writes;
      a.cache_hits += s.cache_hits;
      a.cache_misses += s.cache_misses;
      a.write_throughs += s.write_throughs;
      a.migrations += s.migrations;
      a.accesses += s.accesses;
    }
  }
  std::string out = "# olden-profile-feedback v" +
                    std::to_string(profile::kFeedbackVersion) + "\n";
  out += "# benchmark site mechanism (recommended by the profile "
         "scoreboard)\n";
  for (const auto& [key, row] : agg) {
    const SiteGrade g = grade_site(row);
    appendf(out, "%s %u %s\n", key.first.c_str(), key.second,
            to_string(g.recommended));
  }
  return out;
}

}  // namespace olden::analyze
