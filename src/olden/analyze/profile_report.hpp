// `olden-analyze --profile` report family: page-heat ranking, phase-change
// detection over the interval timelines, and the heuristic scoreboard that
// grades each static migrate/cache decision against the behaviour the
// profiling plane actually observed. Also emits the plain-text feedback
// file bench binaries accept back through `--heuristic=profile:FILE`.
#pragma once

#include <string>

#include "olden/profile/profile_reader.hpp"

namespace olden::analyze {

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
[[nodiscard]] SiteGrade grade_site(const profile::SiteRow& s);

/// The full human report for every run in the document: interval summary,
/// detected phase changes, top-`top` page-heat ranking, per-site
/// scoreboard, and a cross-run summary line
/// ("scoreboard: N sites, A agree, D disagree").
[[nodiscard]] std::string profile_human_report(const profile::ProfileDoc& doc,
                                               std::size_t top);

/// The feedback document (docs/PROFILING.md format): one recommended
/// mechanism per (benchmark, site), aggregated over every non-baseline run
/// of that benchmark in the document. Runs without a benchmark name are
/// skipped (there is no stable identifier to join on).
[[nodiscard]] std::string feedback_from_profile(const profile::ProfileDoc& doc);

}  // namespace olden::analyze
