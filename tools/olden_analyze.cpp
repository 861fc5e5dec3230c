// olden-analyze: offline trace analysis for Olden binary traces (v2).
//
//   olden-analyze --trace-bin FILE [--json] [--json-out FILE] [--top N]
//
// Reads the binary trace a bench binary's --trace-bin flag streamed to
// disk and reports, per run: the critical path (total
// weight always equals the traced makespan; per-edge attribution over
// compute / migration / cache_stall / coherence / idle, and the heaviest
// edges), the hottest migration sites, and per-page heat with ping-pong
// (invalidate-then-refill) detection. Analysis streams the trace in
// bounded memory (see streaming.hpp): only ~18 packed bytes per event
// (peaking at ~43 during critical-path extraction) are retained.
//
//   olden-analyze --diff A B [--run LABEL | --run-a LA --run-b LB]
//                 [--json] [--json-out FILE] [--top N]
//
// Diff mode (see diff.hpp) compares two traces of the same workload and
// decomposes the makespan delta into per-bucket, per-site, per-page and
// per-edge contributions, each summing exactly to the delta. Runs are
// paired index-wise by default, by label with --run, or asymmetrically
// with --run-a/--run-b (A and B may be the same file, e.g. to diff two
// schemes recorded in one suite trace).
//
//   olden-analyze --profile FILE [--top N] [--feedback-out FILE]
//
// Profile mode (see profile_report.hpp) reads the interval-sampled
// profile JSON a bench binary's --profile flag wrote and reports, per
// run: phase changes over the interval timeline, the page-heat ranking,
// and the heuristic scoreboard grading each static migrate/cache decision
// against observed behaviour. --feedback-out emits the per-site feedback
// file bench binaries accept back via --heuristic=profile:FILE.
//
// Exit codes: 0 success, 1 unreadable/unsupported trace or profile
// (including v1 logs and unknown schema versions, named explicitly),
// missing run labels, or a diff invariant violation, 2 usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "olden/analyze/diff.hpp"
#include "olden/analyze/profile_report.hpp"
#include "olden/analyze/report.hpp"
#include "olden/analyze/streaming.hpp"
#include "olden/profile/profile.hpp"
#include "olden/support/io.hpp"
#include "olden/trace/observer.hpp"

namespace {

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: olden-analyze --trace-bin FILE [options]\n"
               "       olden-analyze --diff A B [pairing] [options]\n"
               "       olden-analyze --profile FILE [options]\n"
               "  --trace-bin FILE   binary trace to analyze\n"
               "  --diff A B         diff two traces of the same workload\n"
               "  --profile FILE     report on an interval-sampled profile "
               "JSON\n"
               "  --feedback-out FILE\n"
               "                     with --profile: write the per-site "
               "feedback\n"
               "                     file for --heuristic=profile:FILE\n"
               "  --run LABEL        diff the run labeled LABEL from each side\n"
               "  --run-a LABEL      A-side run label (with --run-b; A and B\n"
               "  --run-b LABEL      may then be the same file)\n"
               "  --json             print the JSON report to stdout\n"
               "  --json-out FILE    also write the JSON report to FILE\n"
               "  --top N            keep the N hottest sites/pages/edges "
               "(default 10)\n"
               "  --version          print schema versions and exit\n"
               "  --help             this message\n");
}

void warn_truncated(const olden::analyze::TraceRun& run) {
  if (!run.truncated()) return;
  std::fprintf(stderr,
               "olden-analyze: warning: run '%s' dropped %llu events at "
               "the trace limit; analyses cover the retained prefix\n",
               run.label.c_str(),
               static_cast<unsigned long long>(run.events_dropped));
}

/// Analyze every run of one trace file, warning about truncated runs.
bool analyze_file(const std::string& path, std::size_t top_n,
                  olden::analyze::TraceFile* file,
                  std::vector<olden::analyze::RunReport>* reports,
                  std::vector<olden::analyze::DiffProfile>* profiles,
                  std::string* err) {
  if (!olden::analyze::analyze_trace_file(path, top_n, file, reports,
                                          profiles, err)) {
    return false;
  }
  for (const olden::analyze::TraceRun& run : file->runs) warn_truncated(run);
  return true;
}

/// Build the diff profile of every run of one trace file.
bool collect_profiles(const std::string& path,
                      std::vector<olden::analyze::DiffProfile>* out,
                      std::string* err) {
  olden::analyze::TraceFile file;
  std::vector<olden::analyze::RunReport> reports;
  return analyze_file(path, /*top_n=*/0, &file, &reports, out, err);
}

const olden::analyze::DiffProfile* find_run(
    const std::vector<olden::analyze::DiffProfile>& profiles,
    const std::string& path, const std::string& label) {
  for (const olden::analyze::DiffProfile& p : profiles) {
    if (p.label == label) return &p;
  }
  std::fprintf(stderr, "olden-analyze: %s has no run labeled '%s'\n",
               path.c_str(), label.c_str());
  std::fprintf(stderr, "  runs present:\n");
  for (const olden::analyze::DiffProfile& p : profiles) {
    std::fprintf(stderr, "    %s\n", p.label.c_str());
  }
  return nullptr;
}

int run_diff(const std::string& path_a, const std::string& path_b,
             const std::string& run_label, const std::string& run_a,
             const std::string& run_b, std::size_t top_n, bool json_stdout,
             const std::string& json_out) {
  std::vector<olden::analyze::DiffProfile> pa;
  std::vector<olden::analyze::DiffProfile> pb;
  std::string err;
  if (!collect_profiles(path_a, &pa, &err) ||
      !collect_profiles(path_b, &pb, &err)) {
    std::fprintf(stderr, "olden-analyze: %s\n", err.c_str());
    return 1;
  }

  std::vector<std::pair<const olden::analyze::DiffProfile*,
                        const olden::analyze::DiffProfile*>>
      pairs;
  if (!run_a.empty() || !run_b.empty()) {
    const auto* a = find_run(pa, path_a, run_a);
    const auto* b = find_run(pb, path_b, run_b);
    if (a == nullptr || b == nullptr) return 1;
    pairs.emplace_back(a, b);
  } else if (!run_label.empty()) {
    const auto* a = find_run(pa, path_a, run_label);
    const auto* b = find_run(pb, path_b, run_label);
    if (a == nullptr || b == nullptr) return 1;
    pairs.emplace_back(a, b);
  } else {
    if (pa.size() != pb.size()) {
      std::fprintf(stderr,
                   "olden-analyze: cannot pair runs: %s has %zu, %s has %zu "
                   "(use --run / --run-a / --run-b to select)\n",
                   path_a.c_str(), pa.size(), path_b.c_str(), pb.size());
      return 1;
    }
    for (std::size_t i = 0; i < pa.size(); ++i) {
      pairs.emplace_back(&pa[i], &pb[i]);
    }
  }

  std::vector<olden::analyze::DiffReport> reports;
  reports.reserve(pairs.size());
  for (const auto& [a, b] : pairs) {
    olden::analyze::DiffReport rep;
    if (!olden::analyze::diff_runs(*a, *b, top_n, &rep, &err)) {
      std::fprintf(stderr, "olden-analyze: %s\n", err.c_str());
      return 1;
    }
    rep.a.path = path_a;
    rep.b.path = path_b;
    reports.push_back(std::move(rep));
  }

  if (json_stdout || !json_out.empty()) {
    const std::string json = olden::analyze::json_diff(reports);
    if (json_stdout) std::fputs(json.c_str(), stdout);
    if (!json_out.empty() && !olden::write_file(json_out, json, &err)) {
      std::fprintf(stderr, "olden-analyze: %s\n", err.c_str());
      return 1;
    }
  }
  if (!json_stdout) {
    for (std::size_t r = 0; r < reports.size(); ++r) {
      if (r != 0) std::printf("\n");
      std::fputs(olden::analyze::human_diff(reports[r]).c_str(), stdout);
    }
  }
  return 0;
}

int run_profile(const std::string& path, std::size_t top_n,
                const std::string& feedback_out) {
  olden::profile::ProfileDoc doc;
  std::string err;
  if (!olden::profile::load_profile_file(path, &doc, &err)) {
    // The loader's messages already name the file.
    std::fprintf(stderr, "olden-analyze: %s\n", err.c_str());
    return 1;
  }
  std::fputs(olden::analyze::profile_human_report(doc, top_n).c_str(),
             stdout);
  if (!feedback_out.empty()) {
    if (!olden::write_file(feedback_out,
                           olden::analyze::feedback_from_profile(doc), &err)) {
      std::fprintf(stderr, "olden-analyze: %s\n", err.c_str());
      return 1;
    }
    std::printf("wrote feedback: %s\n", feedback_out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string diff_a;
  std::string diff_b;
  std::string run_label;
  std::string run_a;
  std::string run_b;
  bool diff_mode = false;
  std::string json_out;
  bool json_stdout = false;
  std::size_t top_n = 10;
  std::string profile_path;
  std::string feedback_out;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "olden-analyze: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(a, "--trace-bin") == 0) {
      trace_path = value("--trace-bin");
    } else if (std::strcmp(a, "--diff") == 0) {
      diff_mode = true;
      diff_a = value("--diff");
      diff_b = value("--diff");
    } else if (std::strcmp(a, "--profile") == 0) {
      profile_path = value("--profile");
    } else if (std::strcmp(a, "--feedback-out") == 0) {
      feedback_out = value("--feedback-out");
    } else if (std::strcmp(a, "--run") == 0) {
      run_label = value("--run");
    } else if (std::strcmp(a, "--run-a") == 0) {
      run_a = value("--run-a");
    } else if (std::strcmp(a, "--run-b") == 0) {
      run_b = value("--run-b");
    } else if (std::strcmp(a, "--json") == 0) {
      json_stdout = true;
    } else if (std::strcmp(a, "--json-out") == 0) {
      json_out = value("--json-out");
    } else if (std::strcmp(a, "--top") == 0) {
      const char* v = value("--top");
      std::uint64_t n = 0;
      if (!olden::parse_u64_strict(v, &n)) {
        std::fprintf(stderr,
                     "olden-analyze: --top: '%s' is not a non-negative "
                     "integer\n",
                     v);
        return 2;
      }
      top_n = static_cast<std::size_t>(n);
    } else if (std::strcmp(a, "--version") == 0) {
      std::printf(
          "olden-analyze: analysis schema v%d, diff schema v%d, binary "
          "trace format v%d, profile schema v%d\n",
          olden::analyze::kAnalysisSchemaVersion,
          olden::analyze::kDiffSchemaVersion,
          olden::trace::kBinaryTraceVersion,
          olden::profile::kProfileSchemaVersion);
      return 0;
    } else if (std::strcmp(a, "--help") == 0) {
      usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "olden-analyze: unknown argument '%s'\n", a);
      usage(stderr);
      return 2;
    }
  }
  if (!profile_path.empty()) {
    if (diff_mode || !trace_path.empty()) {
      std::fprintf(
          stderr,
          "olden-analyze: --profile is exclusive with --trace-bin/--diff\n");
      return 2;
    }
    if (!run_label.empty() || !run_a.empty() || !run_b.empty() ||
        json_stdout || !json_out.empty()) {
      std::fprintf(stderr,
                   "olden-analyze: --profile supports only --top and "
                   "--feedback-out\n");
      return 2;
    }
    return run_profile(profile_path, top_n, feedback_out);
  }
  if (!feedback_out.empty()) {
    std::fprintf(stderr, "olden-analyze: --feedback-out requires --profile\n");
    return 2;
  }
  if (diff_mode) {
    if (!trace_path.empty()) {
      std::fprintf(stderr,
                   "olden-analyze: --trace-bin and --diff are exclusive\n");
      return 2;
    }
    if (run_a.empty() != run_b.empty()) {
      std::fprintf(stderr,
                   "olden-analyze: --run-a and --run-b must be given "
                   "together\n");
      return 2;
    }
    if (!run_label.empty() && !run_a.empty()) {
      std::fprintf(stderr,
                   "olden-analyze: --run and --run-a/--run-b are "
                   "exclusive\n");
      return 2;
    }
    return run_diff(diff_a, diff_b, run_label, run_a, run_b, top_n,
                    json_stdout, json_out);
  }
  if (!run_label.empty() || !run_a.empty() || !run_b.empty()) {
    std::fprintf(stderr,
                 "olden-analyze: --run/--run-a/--run-b require --diff\n");
    return 2;
  }
  if (trace_path.empty()) {
    std::fprintf(stderr, "olden-analyze: --trace-bin is required\n");
    usage(stderr);
    return 2;
  }

  olden::analyze::TraceFile file;
  std::vector<olden::analyze::RunReport> reports;
  std::string err;
  if (!analyze_file(trace_path, top_n, &file, &reports, nullptr, &err)) {
    std::fprintf(stderr, "olden-analyze: %s\n", err.c_str());
    return 1;
  }

  if (json_stdout || !json_out.empty()) {
    const std::string json = olden::analyze::json_report(file, reports);
    if (json_stdout) std::fputs(json.c_str(), stdout);
    if (!json_out.empty() && !olden::write_file(json_out, json, &err)) {
      std::fprintf(stderr, "olden-analyze: %s\n", err.c_str());
      return 1;
    }
  }
  if (!json_stdout) {
    for (std::size_t r = 0; r < file.runs.size(); ++r) {
      if (r != 0) std::printf("\n");
      std::fputs(
          olden::analyze::human_report(file.runs[r], reports[r]).c_str(),
          stdout);
    }
  }
  return 0;
}
