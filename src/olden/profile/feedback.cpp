#include "olden/profile/feedback.hpp"

#include <sstream>
#include <vector>

#include "olden/support/io.hpp"

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
    unsigned long long site = 0;
    char extra = 0;
    if (std::sscanf(tok[1].c_str(), "%llu%c", &site, &extra) != 1 ||
        site > 0xfffffffeull) {
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

}  // namespace olden::profile
