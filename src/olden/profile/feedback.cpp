#include "olden/profile/feedback.hpp"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <sstream>
#include <vector>

#include "olden/support/io.hpp"
#include "olden/trace/observer.hpp"

namespace olden::profile {

namespace {

/// Split on runs of spaces/tabs; never returns empty tokens.
std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  for (char ch : line) {
    if (ch == ' ' || ch == '\t') {
      if (!cur.empty()) out.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += ch;
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

bool set_err(std::string* err, const std::string& msg) {
  if (err != nullptr) *err = msg;
  return false;
}

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

/// One site's evidence, as a comment line naming its uid.
void append_evidence(std::string& out, const std::string& uid,
                     const SiteProfile& s, const SiteGrade& g) {
  appendf(out, "# %-16s %-7s acc=%-8" PRIu64 " local=%5.1f%%", uid.c_str(),
          to_string(g.chosen), s.accesses(), 100.0 * g.local_fraction);
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

}  // namespace

bool FeedbackTable::parse(const std::string& text, std::string* err) {
  std::map<std::pair<std::string, SiteId>, Mechanism> rows;
  // First line number each (benchmark, site) key appeared on, so a
  // duplicate row can name both offending lines in its error.
  std::map<std::pair<std::string, SiteId>, int> first_line;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  bool saw_header = false;
  const std::string header =
      "# olden-profile-feedback v" + std::to_string(kFeedbackVersion);
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    std::string stripped = line;
    while (!stripped.empty() && (stripped.front() == ' ' ||
                                 stripped.front() == '\t')) {
      stripped.erase(stripped.begin());
    }
    if (stripped.empty()) continue;
    if (!saw_header) {
      // The first non-blank line names the format version; anything else
      // (including an unknown version) is rejected so stale files fail
      // loudly instead of silently changing mechanism tables.
      if (stripped != header) {
        return set_err(err, "feedback line " + std::to_string(lineno) +
                                ": expected header \"" + header + "\", got \"" +
                                stripped + "\"");
      }
      saw_header = true;
      continue;
    }
    if (stripped.front() == '#') continue;
    const std::vector<std::string> tok = split_ws(stripped);
    if (tok.size() != 3) {
      return set_err(err, "feedback line " + std::to_string(lineno) +
                              ": expected \"benchmark site mechanism\", got \"" +
                              stripped + "\"");
    }
    std::uint64_t site = 0;
    if (!parse_u64_strict(tok[1], &site) || site >= trace::kNoSite) {
      return set_err(err, "feedback line " + std::to_string(lineno) +
                              ": bad site index \"" + tok[1] + "\"");
    }
    Mechanism m;
    if (tok[2] == "migrate") {
      m = Mechanism::kMigrate;
    } else if (tok[2] == "cache") {
      m = Mechanism::kCache;
    } else {
      return set_err(err, "feedback line " + std::to_string(lineno) +
                              ": bad mechanism \"" + tok[2] +
                              "\" (want migrate|cache)");
    }
    const std::pair<std::string, SiteId> key{tok[0],
                                             static_cast<SiteId>(site)};
    // Two rows for one site mean the file was merged or hand-edited
    // badly; silently keeping either would apply a mechanism nobody
    // reviewed, so duplicates are a structured error, not last-wins.
    if (const auto dup = first_line.find(key); dup != first_line.end()) {
      return set_err(err, "feedback line " + std::to_string(lineno) +
                              ": duplicate row for " + tok[0] + "#" + tok[1] +
                              " (first defined on line " +
                              std::to_string(dup->second) + ")");
    }
    first_line[key] = lineno;
    rows[key] = m;
  }
  if (!saw_header) return set_err(err, "feedback file is empty (no header)");
  rows_ = std::move(rows);
  return true;
}

bool FeedbackTable::load(const std::string& path, std::string* err) {
  std::string text;
  if (!read_file(path, &text, err)) return false;
  std::string perr;
  if (!parse(text, &perr)) return set_err(err, path + ": " + perr);
  return true;
}

bool parse_heuristic_spec(const std::string& spec, FeedbackTable* out,
                          bool* use_feedback, std::string* err) {
  *use_feedback = false;
  if (spec == "static") return true;
  const std::string prefix = "profile:";
  if (spec.rfind(prefix, 0) != 0) {
    return set_err(err, "bad --heuristic value \"" + spec +
                            "\" (want static or profile:FILE)");
  }
  const std::string path = spec.substr(prefix.size());
  if (path.empty()) {
    return set_err(err, "--heuristic=profile: needs a feedback file path");
  }
  if (!out->load(path, err)) return false;
  *use_feedback = true;
  return true;
}

SiteGrade grade_site(const SiteProfile& s) {
  SiteGrade g;
  g.chosen = s.mechanism;
  g.recommended = g.chosen;
  const std::uint64_t accesses = s.accesses();
  if (accesses == 0) return g;  // never exercised: nothing to grade

  const std::uint64_t local = s.local_reads + s.local_writes;
  g.local_fraction =
      static_cast<double>(local) / static_cast<double>(accesses);
  const std::uint64_t reads = s.cache_hits + s.cache_misses;
  g.hit_rate = reads == 0 ? 0.0
                          : static_cast<double>(s.cache_hits) /
                                static_cast<double>(reads);

  g.recommended =
      graded_mechanism(g.chosen, accesses, local, reads, s.cache_hits);
  g.agree = g.recommended == g.chosen;
  return g;
}

std::string feedback_from_profile(const std::vector<trace::RunRecord>& runs) {
  // Aggregate observed behaviour per stable (benchmark, site) identifier
  // over every non-baseline run, so one recommendation covers all three
  // coherence schemes of a bench_cell profile. The first run's chosen
  // mechanism stands for the site.
  std::map<std::pair<std::string, SiteId>, SiteProfile> agg;
  for (const trace::RunRecord& run : runs) {
    const auto bench = run.meta.find("benchmark");
    if (run.sequential_baseline || bench == run.meta.end() ||
        bench->second.empty()) {
      continue;
    }
    for (const auto& [site, s] : run.profile.sites) {
      auto [it, fresh] = agg.try_emplace({bench->second, site}, s);
      if (fresh) continue;
      SiteProfile& a = it->second;
      a.local_reads += s.local_reads;
      a.local_writes += s.local_writes;
      a.cache_hits += s.cache_hits;
      a.cache_misses += s.cache_misses;
      a.write_throughs += s.write_throughs;
      a.migrations += s.migrations;
    }
  }
  std::string out =
      "# olden-profile-feedback v" + std::to_string(kFeedbackVersion) + "\n";
  out += "# benchmark site mechanism, each row after its site's evidence "
         "over the profiled runs\n";
  std::size_t agree = 0;
  for (const auto& [key, s] : agg) {
    const SiteGrade g = grade_site(s);
    append_evidence(out, key.first + "#" + std::to_string(key.second), s, g);
    appendf(out, "%s %u %s\n", key.first.c_str(), key.second,
            to_string(g.recommended));
    if (g.agree) ++agree;
  }
  appendf(out, "# scoreboard: %zu sites, %zu agree, %zu disagree\n",
          agg.size(), agree, agg.size() - agree);
  return out;
}

}  // namespace olden::profile
