// Reader for the profile JSON documents profile_json() emits, used by
// `olden-analyze --profile`. A small recursive-descent JSON parser
// (objects, arrays, strings, unsigned integers, bools) maps the document
// onto plain structs; anything malformed — bad JSON, a missing field, a
// wrong type, an unknown profile_schema_version — is rejected with a
// descriptive error, never a crash (mirroring the adversarial posture of
// the binary-trace reader).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "olden/support/types.hpp"
#include "olden/trace/trace.hpp"

namespace olden::profile {

struct SiteRow {
  SiteId site = 0;
  std::string site_uid;  ///< "<benchmark>#<site>"; empty if unattributed
  std::string mechanism;  ///< "migrate" or "cache"
  std::uint64_t local_reads = 0;
  std::uint64_t local_writes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t write_throughs = 0;
  std::uint64_t migrations = 0;
  std::uint64_t accesses = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> timeline;
};

struct PageRow {
  std::uint64_t page = 0;
  std::uint64_t local_accesses = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t write_throughs = 0;
  std::uint64_t line_fills = 0;
  std::uint64_t lines_invalidated = 0;
  std::uint64_t timestamp_checks = 0;

  [[nodiscard]] std::uint64_t remote_accesses() const {
    return cache_hits + cache_misses + write_throughs;
  }
};

struct ProcRow {
  std::uint64_t proc = 0;
  std::uint64_t migrations_out = 0;
  std::uint64_t migrations_in = 0;
  std::uint64_t future_steals = 0;
};

struct IntervalRow {
  std::uint64_t interval = 0;
  std::uint64_t start_cycle = 0;
  std::uint64_t accesses = 0;
  std::uint64_t migrations = 0;
  std::uint64_t future_steals = 0;
  std::array<std::uint64_t, trace::kNumBuckets> cycles{};
};

struct ProfileRun {
  std::string label;
  std::string benchmark;
  std::string scheme;
  std::uint32_t nprocs = 0;
  bool sequential_baseline = false;
  std::uint64_t makespan_cycles = 0;
  std::uint64_t interval_cycles = 0;
  std::uint64_t total_accesses = 0;
  std::uint64_t total_migrations = 0;
  std::uint64_t total_future_steals = 0;
  std::vector<SiteRow> sites;
  std::vector<PageRow> pages;
  std::vector<ProcRow> procs;
  std::vector<IntervalRow> intervals;
};

struct ProfileDoc {
  int schema_version = 0;
  std::vector<ProfileRun> runs;
};

/// Parse a profile JSON document. Returns false with *err set on any
/// malformation; an unsupported profile_schema_version reports the version
/// it found and still fills doc->schema_version.
bool parse_profile_json(const std::string& text, ProfileDoc* doc,
                        std::string* err = nullptr);

/// parse_profile_json() for the contents of `path`. Every error message
/// names `path`.
bool load_profile_file(const std::string& path, ProfileDoc* doc,
                       std::string* err = nullptr);

}  // namespace olden::profile
