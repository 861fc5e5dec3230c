// Profile-guided feedback: per-site mechanism overrides learned from a
// profiled run.
//
// A bench binary run with `--profile=FILE` grades every site it profiled
// (grade_site, by the one rule graded_mechanism) and writes the result as
// a plain-text feedback document; bench binaries accept it back through
// `--heuristic=profile:FILE`, overriding the static heuristic per
// (benchmark, site) — the minimal offline feedback loop (so Table 2 can be
// rerun with learned decisions against the paper's static ones).
//
// File format (docs/PROFILING.md):
//
//   # olden-profile-feedback v1
//   # TreeAdd#0        migrate acc=2047     local=100.0% ... agree
//   TreeAdd 0 migrate
//   # Health#2 ...
//   Health 2 cache
//   # scoreboard: 2 sites, 2 agree, 0 disagree
//
// The first non-blank line must be the version header. Later '#' lines
// are comments; the writer puts each site's evidence in one. Rows are
// whitespace-separated; a duplicate (benchmark, site) row is a parse
// error naming both lines — two rows for one site means the file was
// merged or hand-edited badly, and silently keeping either one would
// apply a mechanism nobody reviewed.
// Sites are joined by the stable (benchmark, site-index) identifiers
// that heuristic dumps and the evidence comments both carry (e.g.
// "TreeAdd#0"); a row whose site index falls outside the benchmark's site
// table (a stale file from an older build) is reported as a warning by
// the consumer (Benchmark::site_table) and otherwise ignored.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "olden/profile/profile.hpp"
#include "olden/support/types.hpp"

namespace olden::trace {
struct RunRecord;
}  // namespace olden::trace

namespace olden::profile {

/// Version expected in the feedback-file header line.
inline constexpr int kFeedbackVersion = 1;

class FeedbackTable {
 public:
  /// Parse a feedback document; on failure returns false and leaves the
  /// table unchanged, describing the problem (with a line number) in *err.
  bool parse(const std::string& text, std::string* err = nullptr);
  /// parse() for the contents of `path`.
  bool load(const std::string& path, std::string* err = nullptr);

  void set(const std::string& benchmark, SiteId site, Mechanism m) {
    rows_[{benchmark, site}] = m;
  }

  /// The override for (benchmark, site), if the table has one.
  [[nodiscard]] std::optional<Mechanism> lookup(const std::string& benchmark,
                                                SiteId site) const {
    const auto it = rows_.find({benchmark, site});
    if (it == rows_.end()) return std::nullopt;
    return it->second;
  }

  [[nodiscard]] std::size_t size() const { return rows_.size(); }
  [[nodiscard]] bool empty() const { return rows_.empty(); }

  /// "Benchmark#site" uids of rows for `benchmark` whose site index is
  /// >= num_sites — stale entries from a file generated against an older
  /// build of the benchmark. Consumers warn (naming the token) and skip
  /// them; lookup() never returns such a row a mechanism table would use,
  /// because callers only probe sites below num_sites.
  [[nodiscard]] std::vector<std::string> stale_uids(
      const std::string& benchmark, std::size_t num_sites) const {
    std::vector<std::string> out;
    for (const auto& [key, m] : rows_) {
      (void)m;
      if (key.first == benchmark && key.second >= num_sites) {
        out.push_back(key.first + "#" + std::to_string(key.second));
      }
    }
    return out;
  }

  [[nodiscard]] const std::map<std::pair<std::string, SiteId>, Mechanism>&
  rows() const {
    return rows_;
  }

 private:
  std::map<std::pair<std::string, SiteId>, Mechanism> rows_;
};

/// Parse a `--heuristic=SPEC` value: "static" leaves *use_feedback false;
/// "profile:FILE" loads FILE into *out and sets *use_feedback. Returns
/// false (with *err set) on an unknown spec or an unreadable/invalid file.
bool parse_heuristic_spec(const std::string& spec, FeedbackTable* out,
                          bool* use_feedback, std::string* err = nullptr);

/// How one site's static decision scored against observed behaviour.
struct SiteGrade {
  Mechanism chosen = Mechanism::kMigrate;       ///< what the run used
  Mechanism recommended = Mechanism::kMigrate;  ///< what the profile says
  bool agree = true;
  double local_fraction = 1.0;  ///< accesses that needed no mechanism
  double hit_rate = 0.0;        ///< remote reads served by the cache
};

/// Grade one profiled site by `graded_mechanism` (support/types.hpp), the
/// one site-grading rule. Sites with no accesses trivially agree.
[[nodiscard]] SiteGrade grade_site(const SiteProfile& s);

/// The feedback document: one recommended mechanism per (benchmark, site),
/// aggregated over every non-baseline run of that benchmark, each row
/// after a comment holding its site's evidence, and a closing scoreboard
/// line ("# scoreboard: N sites, A agree, D disagree"). Runs without a
/// benchmark name are skipped (there is no stable identifier to join on).
[[nodiscard]] std::string feedback_from_profile(
    const std::vector<trace::RunRecord>& runs);

}  // namespace olden::profile
