// The uniform observability command-line surface every bench binary
// that runs an observed Machine shares:
//
//   --trace-bin=FILE     compact binary event log ("OLDNTRC2"), streamed to
//                        disk as events fire (olden-analyze --chrome-out
//                        renders it for Perfetto)
//   --stats-json=FILE    structured stats document (schema_version'd)
//   --profile=FILE       per-site feedback document (see docs/PROFILING.md)
//   --trace-limit=N      cap on streamed trace events (default: no cap)
//   --breakdown          print per-processor cycle-breakdown tables
//   --faults=SPEC        fault-injection plan (see fault_spec.hpp grammar)
//   --fault-seed=N       RNG seed for the fault plane (default 1)
//
// Malformed values (an empty path, a non-numeric --trace-limit /
// --fault-seed, an unparsable --faults spec) are rejected with a one-line
// message on stderr and exit code 2 — never silently coerced.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>

#include "olden/bench/benchmark.hpp"
#include "olden/fault/fault_spec.hpp"
#include "olden/trace/observer.hpp"

namespace olden::bench {

class ObsCli {
 public:
  /// Parse and remove the recognized flags from argv in place, so the
  /// binary's own parser sees only the rest.
  ///
  /// Any other "--" argument is rejected with a message on stderr and
  /// exit code 2, unless it starts with one of the `passthrough` prefixes
  /// (e.g. "--paper-size" for the table binaries). "--help" is always
  /// passed through so the binary can print its own usage, and
  /// "--version" prints the stats / trace schema versions and exits 0.
  void parse(int* argc, char** argv,
             std::initializer_list<const char*> passthrough = {});

  /// The observer to install via BenchConfig/RunConfig — null when no
  /// observability output was requested, which keeps every runtime hook a
  /// no-op.
  [[nodiscard]] trace::Observer* observer() {
    return active_ ? &obs_ : nullptr;
  }

  /// Fault plan for BenchConfig/RunConfig — null unless --faults
  /// requested an enabled spec, which keeps fault-free runs on the
  /// zero-cost path.
  [[nodiscard]] const fault::FaultSpec* faults() const {
    return fault_spec_.enabled ? &fault_spec_ : nullptr;
  }
  [[nodiscard]] std::uint64_t fault_seed() const { return fault_seed_; }

  /// The base a binary hands run_cells: recording into observer() under
  /// faults().
  [[nodiscard]] BenchConfig bench_config() {
    return {
        .observer = observer(), .faults = faults(), .fault_seed = fault_seed_};
  }

  /// Label the next Machine run (no-op when inactive).
  void begin_run(std::string label,
                 std::map<std::string, std::string> meta = {});

  /// Write every requested output file and print any breakdown tables.
  /// Reports what was written on stdout; returns false (after printing the
  /// error to stderr) if any write failed.
  bool finish();

  /// One-line-per-flag usage text for --help output.
  static const char* usage();

 private:
  trace::Observer obs_;
  std::unique_ptr<trace::StreamingTraceSink> sink_;
  bool active_ = false;
  bool breakdown_ = false;
  std::string trace_bin_path_;
  std::string stats_path_;
  std::string profile_path_;
  fault::FaultSpec fault_spec_;
  std::uint64_t fault_seed_ = 1;
};

}  // namespace olden::bench
