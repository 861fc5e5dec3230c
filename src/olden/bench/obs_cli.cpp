#include "olden/bench/obs_cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace olden::bench {

namespace {

/// Matches "--NAME=value" exactly (so "--trace" never swallows
/// "--trace-bin"). Returns the value through `out`.
bool flag_value(const char* arg, const char* name, std::string* out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

void env_default(std::string* opt, const char* var) {
  if (!opt->empty()) return;
  const char* v = std::getenv(var);
  if (v != nullptr && v[0] != '\0') *opt = v;
}

/// Strict non-negative integer parse: every character must be a digit and
/// the value must fit in 64 bits. "abc", "-3", "1e6", "" all fail — a
/// malformed limit or seed should be a loud error, not a silent zero.
bool parse_u64_strict(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.size() > 20) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) return false;  // overflow
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

[[noreturn]] void flag_error(const char* argv0, const char* what) {
  std::fprintf(stderr, "%s: %s\n", argv0 != nullptr ? argv0 : "olden-bench",
               what);
  std::exit(2);
}

}  // namespace

void ObsCli::parse(int* argc, char** argv,
                   std::initializer_list<const char*> passthrough) {
  std::string limit_str;
  std::string profile_interval_str;
  std::string faults_str;
  std::string fault_seed_str;
  std::string adapt_interval_str;
  std::string adapt_hysteresis_str;
  bool breakdown_env =
      std::getenv("OLDEN_BREAKDOWN") != nullptr;
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
    if (flag_value(argv[i], "--trace", &v)) {
      trace_path_ = v;
    } else if (flag_value(argv[i], "--trace-bin", &v)) {
      trace_bin_path_ = v;
    } else if (flag_value(argv[i], "--trace-stream", &v)) {
      trace_stream_path_ = v;
    } else if (flag_value(argv[i], "--stats-json", &v)) {
      stats_path_ = v;
    } else if (flag_value(argv[i], "--profile", &v)) {
      profile_path_ = v;
    } else if (flag_value(argv[i], "--profile-interval", &v)) {
      profile_interval_str = v;
      if (profile_interval_str.empty()) {
        flag_error(argv[0],
                   "--profile-interval: empty value is not a positive integer");
      }
    } else if (flag_value(argv[i], "--trace-limit", &v)) {
      limit_str = v;
      if (limit_str.empty()) {
        flag_error(argv[0],
                   "--trace-limit: empty value is not a non-negative integer");
      }
    } else if (flag_value(argv[i], "--faults", &v)) {
      faults_str = v;
      if (faults_str.empty()) faults_str = "none";  // "--faults=" disables
    } else if (flag_value(argv[i], "--fault-seed", &v)) {
      fault_seed_str = v;
      if (fault_seed_str.empty()) {
        flag_error(argv[0],
                   "--fault-seed: empty value is not a non-negative integer");
      }
    } else if (flag_value(argv[i], "--adapt-interval", &v)) {
      adapt_interval_str = v;
      if (adapt_interval_str.empty()) {
        flag_error(argv[0],
                   "--adapt-interval: empty value is not a positive integer");
      }
    } else if (flag_value(argv[i], "--adapt-hysteresis", &v)) {
      adapt_hysteresis_str = v;
      if (adapt_hysteresis_str.empty()) {
        flag_error(argv[0],
                   "--adapt-hysteresis: empty value is not a positive integer");
      }
    } else if (std::strcmp(argv[i], "--breakdown") == 0) {
      breakdown_ = true;
    } else if (std::strcmp(argv[i], "--version") == 0) {
      std::printf(
          "%s: stats schema v%d, binary trace format v%d, profile schema "
          "v%d\n",
          argv[0] != nullptr ? argv[0] : "olden-bench",
          trace::kStatsSchemaVersion, trace::kBinaryTraceVersion,
          profile::kProfileSchemaVersion);
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

  env_default(&trace_path_, "OLDEN_TRACE");
  env_default(&trace_bin_path_, "OLDEN_TRACE_BIN");
  env_default(&trace_stream_path_, "OLDEN_TRACE_STREAM");
  env_default(&stats_path_, "OLDEN_STATS_JSON");
  env_default(&profile_path_, "OLDEN_PROFILE");
  env_default(&profile_interval_str, "OLDEN_PROFILE_INTERVAL");
  env_default(&limit_str, "OLDEN_TRACE_LIMIT");
  env_default(&faults_str, "OLDEN_FAULTS");
  env_default(&fault_seed_str, "OLDEN_FAULT_SEED");
  env_default(&adapt_interval_str, "OLDEN_ADAPT_INTERVAL");
  env_default(&adapt_hysteresis_str, "OLDEN_ADAPT_HYSTERESIS");
  if (!limit_str.empty()) {
    std::uint64_t limit = 0;
    if (!parse_u64_strict(limit_str, &limit)) {
      flag_error(argv[0], ("--trace-limit: '" + limit_str +
                           "' is not a non-negative integer")
                              .c_str());
    }
    obs_.set_event_limit(limit);
  }
  if (!fault_seed_str.empty() &&
      !parse_u64_strict(fault_seed_str, &fault_seed_)) {
    flag_error(argv[0], ("--fault-seed: '" + fault_seed_str +
                         "' is not a non-negative integer")
                            .c_str());
  }
  if (!adapt_interval_str.empty()) {
    if (!parse_u64_strict(adapt_interval_str, &adapt_interval_) ||
        adapt_interval_ == 0) {
      flag_error(argv[0], ("--adapt-interval: '" + adapt_interval_str +
                           "' is not a positive integer")
                              .c_str());
    }
    adapt_interval_set_ = true;
  }
  if (!adapt_hysteresis_str.empty()) {
    std::uint64_t h = 0;
    if (!parse_u64_strict(adapt_hysteresis_str, &h) || h == 0 ||
        h > 0xffffffffull) {
      flag_error(argv[0], ("--adapt-hysteresis: '" + adapt_hysteresis_str +
                           "' is not a positive integer")
                              .c_str());
    }
    adapt_hysteresis_ = static_cast<std::uint32_t>(h);
  }
  if (!faults_str.empty()) {
    std::string err;
    if (!fault::parse_fault_spec(faults_str, &fault_spec_, &err)) {
      // The parser's messages already carry a "faults: " prefix; strip it
      // so the flag name is not stuttered ("--faults: faults: ...").
      if (err.rfind("faults: ", 0) == 0) err = err.substr(8);
      flag_error(argv[0], ("--faults: " + err).c_str());
    }
  }
  if (!profile_interval_str.empty()) {
    std::uint64_t interval = 0;
    if (!parse_u64_strict(profile_interval_str, &interval) || interval == 0) {
      flag_error(argv[0], ("--profile-interval: '" + profile_interval_str +
                           "' is not a positive integer")
                              .c_str());
    }
    if (!profile_path_.empty()) obs_.enable_profile(interval);
  } else if (!profile_path_.empty()) {
    obs_.enable_profile();
  }
  breakdown_ = breakdown_ || breakdown_env;
  if (!trace_stream_path_.empty() &&
      (!trace_path_.empty() || !trace_bin_path_.empty())) {
    // The streamed events are not retained in memory, so neither in-memory
    // export could include them; refuse the combination instead of writing
    // an empty file.
    flag_error(argv[0],
               "--trace-stream cannot be combined with --trace/--trace-bin "
               "(streamed events are not retained in memory)");
  }
  active_ = breakdown_ || !trace_path_.empty() || !trace_bin_path_.empty() ||
            !trace_stream_path_.empty() || !stats_path_.empty() ||
            !profile_path_.empty();
  obs_.set_trace_enabled(!trace_path_.empty() || !trace_bin_path_.empty() ||
                         !trace_stream_path_.empty());
  if (!trace_stream_path_.empty()) {
    sink_ = std::make_unique<trace::StreamingTraceSink>(trace_stream_path_);
    if (!sink_->ok()) {
      std::fprintf(stderr, "streaming trace export failed: %s\n",
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
  if (!trace_path_.empty()) {
    if (trace::write_chrome_trace(obs_, trace_path_, &err)) {
      std::printf("wrote trace: %s (%llu events retained)\n",
                  trace_path_.c_str(),
                  static_cast<unsigned long long>(obs_.events_retained()));
    } else {
      std::fprintf(stderr, "trace export failed: %s\n", err.c_str());
      ok = false;
    }
  }
  if (!trace_bin_path_.empty()) {
    if (trace::write_binary_trace(obs_, trace_bin_path_, &err)) {
      std::printf("wrote binary trace: %s\n", trace_bin_path_.c_str());
    } else {
      std::fprintf(stderr, "binary trace export failed: %s\n", err.c_str());
      ok = false;
    }
  }
  if (sink_ != nullptr) {
    std::string serr;
    if (sink_->finalize(&serr)) {
      std::printf("wrote streaming trace: %s (%llu events)\n",
                  trace_stream_path_.c_str(),
                  static_cast<unsigned long long>(sink_->events_written()));
    } else {
      std::fprintf(stderr, "streaming trace export failed: %s\n",
                   serr.c_str());
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
    if (profile::write_profile_json(obs_, profile_path_, &err)) {
      std::printf("wrote profile: %s (%zu runs)\n", profile_path_.c_str(),
                  obs_.runs().size());
    } else {
      std::fprintf(stderr, "profile export failed: %s\n", err.c_str());
      ok = false;
    }
  }
  return ok;
}

const char* ObsCli::usage() {
  return "  --trace=FILE       write a Chrome trace_event JSON "
         "(Perfetto-loadable)\n"
         "  --trace-bin=FILE   write a compact binary event log\n"
         "  --trace-stream=FILE\n"
         "                     stream the binary event log to disk as events\n"
         "                     fire (bounded memory; excludes "
         "--trace/--trace-bin)\n"
         "  --stats-json=FILE  write the structured stats document\n"
         "  --profile=FILE     write the interval-sampled profile JSON\n"
         "                     (page/site heat; see docs/PROFILING.md)\n"
         "  --profile-interval=N\n"
         "                     profile sampling interval in virtual cycles\n"
         "                     (default 65536; must be positive)\n"
         "  --trace-limit=N    cap retained trace events (default 1000000)\n"
         "  --breakdown        print per-processor cycle breakdowns\n"
         "  --faults=SPEC      inject wire faults, e.g. "
         "drop=0.05,dup=0.02,delay=0.1:800\n"
         "                     classes=fill:invalidate:ts_check restricts "
         "the injector\n"
         "                     to those message classes ('none' disables; "
         "see\n"
         "                     src/olden/fault/fault_spec.hpp)\n"
         "  --fault-seed=N     fault-plane RNG seed (default 1)\n"
         "  --adapt-interval=N adaptive-scheme re-grading interval in "
         "virtual cycles\n"
         "                     (with --scheme=adaptive; must be positive)\n"
         "  --adapt-hysteresis=K\n"
         "                     consecutive flip votes required before a "
         "site flips\n"
         "                     (default 2; must be positive)\n"
         "  --version          print stats/trace schema versions and exit\n"
         "  (env: OLDEN_TRACE, OLDEN_TRACE_BIN, OLDEN_TRACE_STREAM, "
         "OLDEN_STATS_JSON, OLDEN_PROFILE, OLDEN_PROFILE_INTERVAL, "
         "OLDEN_TRACE_LIMIT, OLDEN_BREAKDOWN, OLDEN_FAULTS, "
         "OLDEN_FAULT_SEED, OLDEN_ADAPT_INTERVAL, OLDEN_ADAPT_HYSTERESIS)\n";
}

}  // namespace olden::bench
