// Run-level analyses of a trace, and their human/JSON renderings.
//
// StreamingRunAnalyzer (streaming.hpp) computes them from the causal
// fields of binary log v2:
//   * hottest migration sites — departures grouped by dereference site,
//     with transit cycles recovered by matching each arrival to its
//     departure through the parent link,
//   * per-page heat and ping-pong detection — a page that is invalidated
//     on a processor and later refilled there ping-ponged; pages that
//     ping-pong while multiple processors fill them are flagged as
//     false-sharing suspects,
//   * the critical path (see critical_path.hpp).
#pragma once

#include <array>
#include <string>
#include <vector>

#include "olden/analyze/critical_path.hpp"
#include "olden/analyze/trace_reader.hpp"
#include "olden/support/stats.hpp"

namespace olden::analyze {

/// Schema version of the JSON document json_report() emits.
inline constexpr int kAnalysisSchemaVersion = 1;

struct SiteStats {
  SiteId site = trace::kNoSite;
  std::uint64_t departs = 0;         ///< migration departures at this site
  std::uint64_t arrives_matched = 0; ///< arrivals whose depart was retained
  std::uint64_t transit_cycles = 0;  ///< summed transit of matched arrivals
};

struct PageStats {
  std::uint64_t page = 0;
  std::uint64_t heat = 0;         ///< cached accesses (hits + misses)
  std::uint64_t fills = 0;        ///< cache_line_fill events
  std::uint64_t invalidates = 0;  ///< line_invalidate events dropping lines
  /// invalidate-then-refill round trips (summed over processors).
  std::uint64_t ping_pongs = 0;
  std::uint32_t sharers = 0;  ///< distinct processors that filled the page
  bool false_sharing_suspect = false;
};

/// Index into a per-class retransmit array for a retransmit event's arg0:
/// the message class is encoded in the upper 32 bits as class + 1 (see
/// fault_plane.cpp); kNumMsgClasses means "unknown" (pre-encoding traces).
/// Shared by the run report and the diff profile so both decode
/// identically.
[[nodiscard]] inline std::size_t retransmit_class_index(std::uint64_t arg0) {
  const std::uint64_t cls = arg0 >> 32;
  return cls >= 1 && cls <= kNumMsgClasses ? static_cast<std::size_t>(cls - 1)
                                           : kNumMsgClasses;
}

/// Fault-plane activity recovered from the trace (src/olden/fault/).
/// All zero for a fault-free run.
struct FaultSummary {
  std::uint64_t drops = 0;           ///< fault_drop events
  std::uint64_t delays = 0;          ///< fault_delay events
  std::uint64_t duplicates = 0;      ///< fault_duplicate events
  std::uint64_t retransmits = 0;     ///< retransmit events
  std::uint64_t dup_suppressed = 0;  ///< dup_suppressed events
  std::uint64_t hiccups = 0;         ///< hiccup events
  std::uint64_t hiccup_cycles = 0;   ///< summed injected stall cycles
  /// Retransmits split by the message class encoded in arg0's upper bits
  /// (see fault_plane.cpp). Index kNumMsgClasses counts events from
  /// traces predating the encoding ("unknown").
  std::array<std::uint64_t, kNumMsgClasses + 1> retransmits_by_class{};

  /// Count one retransmit event, attributing its encoded class.
  void count_retransmit(std::uint64_t arg0) {
    ++retransmits;
    ++retransmits_by_class[retransmit_class_index(arg0)];
  }

  /// Class label for an index into retransmits_by_class.
  [[nodiscard]] static const char* class_label(std::size_t i) {
    return i < kNumMsgClasses ? to_string(static_cast<MsgClass>(i))
                              : "unknown";
  }

  [[nodiscard]] bool any() const {
    return drops + delays + duplicates + retransmits + dup_suppressed +
               hiccups >
           0;
  }
};

struct RunReport {
  CriticalPath path;
  std::vector<SiteStats> hot_sites;  ///< sorted by departs, then site
  std::vector<PageStats> hot_pages;  ///< sorted by heat, then page
  std::uint64_t pages_tracked = 0;
  std::uint64_t ping_pong_total = 0;
  FaultSummary faults;
};

/// Human-readable report for one run.
[[nodiscard]] std::string human_report(const TraceRun& run,
                                       const RunReport& rep);

/// Schema-versioned JSON for a whole trace file (one entry per run).
[[nodiscard]] std::string json_report(const TraceFile& file,
                                      const std::vector<RunReport>& reports);

}  // namespace olden::analyze
