#include "olden/bench/obs_cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "olden/profile/feedback.hpp"
#include "olden/support/io.hpp"

namespace olden::bench {

namespace {

[[noreturn]] void flag_error(const char* argv0, const char* what) {
  std::fprintf(stderr, "%s: %s\n", argv0 != nullptr ? argv0 : "olden-bench",
               what);
  std::exit(2);
}

}  // namespace

void ObsCli::parse(int* argc, char** argv,
                   std::initializer_list<const char*> passthrough) {
  // Every option has exactly one binding, its flag, so a value that does
  // not parse has nothing to fall back to: it is an error, never a
  // silent default.
  auto path = [&](const std::string& v, const char* flag) {
    if (v.empty()) {
      flag_error(argv[0], (std::string(flag) + ": empty value is not a path")
                              .c_str());
    }
    return v;
  };
  auto count = [&](const std::string& v, const char* flag) {
    std::uint64_t n = 0;
    if (!parse_u64_strict(v, &n)) {
      std::string what = flag;
      what += ": '" + v + "' is not a non-negative integer";
      flag_error(argv[0], what.c_str());
    }
    return n;
  };
  auto passes_through = [&](const char* arg) {
    if (std::strcmp(arg, "--help") == 0) return true;
    for (const char* prefix : passthrough) {
      if (std::strncmp(arg, prefix, std::strlen(prefix)) == 0) return true;
    }
    return false;
  };
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string v;
    if (flag_value(argv[i], "--trace-bin", &v)) {
      trace_bin_path_ = path(v, "--trace-bin");
    } else if (flag_value(argv[i], "--stats-json", &v)) {
      stats_path_ = path(v, "--stats-json");
    } else if (flag_value(argv[i], "--profile", &v)) {
      profile_path_ = path(v, "--profile");
    } else if (flag_value(argv[i], "--trace-limit", &v)) {
      obs_.set_event_limit(count(v, "--trace-limit"));
    } else if (flag_value(argv[i], "--faults", &v)) {
      // An empty spec, like "none", disables the plane.
      std::string err;
      if (!fault::parse_fault_spec(v, &fault_spec_, &err)) {
        // The parser's messages already carry a "faults: " prefix; strip it
        // so the flag name is not stuttered ("--faults: faults: ...").
        if (err.rfind("faults: ", 0) == 0) err = err.substr(8);
        flag_error(argv[0], ("--faults: " + err).c_str());
      }
    } else if (flag_value(argv[i], "--fault-seed", &v)) {
      fault_seed_ = count(v, "--fault-seed");
    } else if (std::strcmp(argv[i], "--breakdown") == 0) {
      breakdown_ = true;
    } else if (std::strcmp(argv[i], "--version") == 0) {
      std::printf("%s: stats schema v%d, binary trace format v%d\n",
                  argv[0] != nullptr ? argv[0] : "olden-bench",
                  trace::kStatsSchemaVersion, trace::kBinaryTraceVersion);
      std::exit(0);
    } else if (std::strncmp(argv[i], "--", 2) == 0 &&
               !passes_through(argv[i])) {
      std::fprintf(stderr,
                   "%s: unknown flag '%s'\n"
                   "observability flags:\n%s",
                   argv[0] != nullptr ? argv[0] : "olden-bench", argv[i],
                   usage());
      std::exit(2);
    } else {
      argv[kept++] = argv[i];
    }
  }
  *argc = kept;
  argv[kept] = nullptr;

  if (!profile_path_.empty()) obs_.enable_profile();
  active_ = breakdown_ || !trace_bin_path_.empty() || !stats_path_.empty() ||
            !profile_path_.empty();
  // The binary trace streams to disk as events fire, so no run is held in
  // memory.
  obs_.set_trace_enabled(!trace_bin_path_.empty());
  if (!trace_bin_path_.empty()) {
    sink_ = std::make_unique<trace::StreamingTraceSink>(trace_bin_path_);
    if (!sink_->ok()) {
      std::fprintf(stderr, "binary trace export failed: %s\n",
                   sink_->error().c_str());
      std::exit(1);
    }
    obs_.set_sink(sink_.get());
  }
}

void ObsCli::begin_run(std::string label,
                       std::map<std::string, std::string> meta) {
  if (active_) obs_.begin_run(std::move(label), std::move(meta));
}

bool ObsCli::finish() {
  if (!active_) return true;
  if (breakdown_) {
    for (const trace::RunRecord& run : obs_.runs()) {
      std::fputs("\n", stdout);
      std::fputs(trace::breakdown_table(run).c_str(), stdout);
    }
  }
  bool ok = true;
  std::string err;
  if (sink_ != nullptr) {
    if (sink_->finalize(&err)) {
      std::printf("wrote binary trace: %s (%llu events)\n",
                  trace_bin_path_.c_str(),
                  static_cast<unsigned long long>(sink_->events_written()));
    } else {
      std::fprintf(stderr, "binary trace export failed: %s\n", err.c_str());
      ok = false;
    }
  }
  if (!stats_path_.empty()) {
    if (trace::write_stats_json(obs_, stats_path_, &err)) {
      std::printf("wrote stats: %s (%zu runs)\n", stats_path_.c_str(),
                  obs_.runs().size());
    } else {
      std::fprintf(stderr, "stats export failed: %s\n", err.c_str());
      ok = false;
    }
  }
  if (!profile_path_.empty()) {
    if (write_file(profile_path_, profile::feedback_from_profile(obs_.runs()),
                   &err)) {
      std::printf("wrote profile feedback: %s (%zu runs)\n",
                  profile_path_.c_str(), obs_.runs().size());
    } else {
      std::fprintf(stderr, "profile feedback export failed: %s\n",
                   err.c_str());
      ok = false;
    }
  }
  return ok;
}

const char* ObsCli::usage() {
  return "  --trace-bin=FILE   stream the compact binary event log to disk "
         "as\n"
         "                     events fire (olden-analyze --chrome-out "
         "renders\n"
         "                     it for Perfetto)\n"
         "  --stats-json=FILE  write the structured stats document\n"
         "  --profile=FILE     grade every dereference site and write the\n"
         "                     feedback document --heuristic=profile:FILE\n"
         "                     reads (see docs/PROFILING.md)\n"
         "  --trace-limit=N    cap streamed trace events (default: no cap)\n"
         "  --breakdown        print per-processor cycle breakdowns\n"
         "  --faults=SPEC      inject wire faults, e.g. "
         "drop=0.05,dup=0.02,delay=0.1:800\n"
         "                     classes=fill:invalidate:ts_check restricts "
         "the injector\n"
         "                     to those message classes ('none' disables; "
         "see\n"
         "                     src/olden/fault/fault_spec.hpp)\n"
         "  --fault-seed=N     fault-plane RNG seed (default 1)\n"
         "  --version          print stats/trace schema versions and exit\n";
}

}  // namespace olden::bench
