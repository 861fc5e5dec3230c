// olden-analyze: offline trace analysis for Olden binary traces (v2).
//
//   olden-analyze --trace-bin FILE [--json] [--json-out FILE] [--top N]
//                 [--chrome-out FILE]
//
// Reads the binary trace a bench binary's --trace-bin flag streamed to
// disk and reports, per run: the critical path (total
// weight always equals the traced makespan; per-edge attribution over
// compute / migration / cache_stall / coherence / idle, and the heaviest
// edges), the hottest migration sites, and per-page heat with ping-pong
// (invalidate-then-refill) detection. Analysis streams the trace in
// bounded memory (see streaming.hpp): only ~18 packed bytes per event
// (peaking at ~43 during critical-path extraction) are retained.
// --chrome-out also renders the trace as Chrome trace_event JSON for
// Perfetto, in one more streaming pass (16 bytes kept per event).
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
// Exit codes: 0 success, 1 unreadable/unsupported trace (including v1
// logs, named explicitly), missing run labels, or a diff invariant
// violation, 2 usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "olden/analyze/diff.hpp"
#include "olden/analyze/report.hpp"
#include "olden/analyze/streaming.hpp"
#include "olden/support/io.hpp"

namespace {

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: olden-analyze --trace-bin FILE [options]\n"
               "       olden-analyze --diff A B [pairing] [options]\n"
               "  --trace-bin FILE   binary trace to analyze\n"
               "  --diff A B         diff two traces of the same workload\n"
               "  --run LABEL        diff the run labeled LABEL from each side\n"
               "  --run-a LABEL      A-side run label (with --run-b; A and B\n"
               "  --run-b LABEL      may then be the same file)\n"
               "  --json             print the JSON report to stdout\n"
               "  --json-out FILE    also write the JSON report to FILE\n"
               "  --chrome-out FILE  also render the trace as Chrome "
               "trace_event\n"
               "                     JSON (Perfetto / chrome://tracing)\n"
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
  std::string chrome_out;
  bool json_stdout = false;
  std::size_t top_n = 10;

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
    } else if (std::strcmp(a, "--chrome-out") == 0) {
      chrome_out = value("--chrome-out");
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
          "trace format v%d\n",
          olden::analyze::kAnalysisSchemaVersion,
          olden::analyze::kDiffSchemaVersion,
          olden::trace::kBinaryTraceVersion);
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
  if (diff_mode) {
    if (!trace_path.empty() || !chrome_out.empty()) {
      std::fprintf(stderr,
                   "olden-analyze: --diff excludes --trace-bin and "
                   "--chrome-out\n");
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
  if (!chrome_out.empty() &&
      !olden::analyze::render_chrome_trace(trace_path, chrome_out, &err)) {
    std::fprintf(stderr, "olden-analyze: %s\n", err.c_str());
    return 1;
  }
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
