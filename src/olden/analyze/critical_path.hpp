// The critical path of one traced run, over its causal event DAG.
//
// The DAG's nodes are the run's retained events plus a synthetic SOURCE
// (t = 0) and SINK (t = makespan). Every edge is "tight": its weight is
// exactly dst.time - src.time. Edges come from three places:
//
//   * per-processor order: consecutive events on the same processor
//     (sorted by (time, id)),
//   * causality: each event's recorded parent link, skipped when the
//     parent was dropped at the trace limit or timestamps would make the
//     edge negative (per-processor streams are not globally monotone:
//     arrivals are stamped with message delivery time while flush events
//     use the processor clock),
//   * boundaries: SOURCE -> first event on each processor, last event on
//     each processor -> SINK.
//
// Because every edge is tight, *any* SOURCE -> SINK path telescopes to
// exactly the makespan — the acceptance invariant "critical-path weight
// equals the traced makespan" holds by construction. What distinguishes
// the critical path is its attribution: each edge is classified into the
// runtime's CycleBucket vocabulary (compute / migration / cache_stall /
// coherence / idle) from its type and endpoint kinds, and the extractor
// (StreamingRunAnalyzer, streaming.hpp) picks the path that minimizes
// idle-attributed cycles — the chain of work that actually kept the
// makespan from shrinking.
#pragma once

#include <cstdint>
#include <vector>

#include "olden/trace/trace.hpp"

namespace olden::analyze {

/// Endpoint kinds of the synthetic SOURCE and SINK nodes, chosen above
/// every EventKind value so they cannot collide.
inline constexpr std::uint8_t kSourceNode = 0xFE;
inline constexpr std::uint8_t kSinkNode = 0xFF;

/// An endpoint kind's name: the EventKind's, or SOURCE / SINK.
[[nodiscard]] inline const char* node_kind_name(std::uint8_t kind) {
  if (kind == kSourceNode) return "SOURCE";
  if (kind == kSinkNode) return "SINK";
  return trace::to_string(static_cast<trace::EventKind>(kind));
}

/// How many of the path's heaviest edges a CriticalPath keeps.
inline constexpr std::size_t kHeaviestEdges = 5;

/// One of the path's heaviest edges, as human_report prints it.
struct HeavyEdge {
  Cycles weight = 0;
  trace::CycleBucket bucket = trace::CycleBucket::kCompute;
  std::uint8_t src_kind = kSourceNode;  ///< EventKind of the tail, or SOURCE
  std::uint8_t dst_kind = kSinkNode;    ///< EventKind of the head, or SINK
  ProcId proc = 0;  ///< head event's processor (unused for SINK)
  Cycles time = 0;  ///< head event's time (unused for SINK)
};

struct CriticalPath {
  /// Total path weight; equals the run's makespan whenever the run has at
  /// least one event (and the makespan alone when it has none).
  Cycles total_cycles = 0;
  /// Per-bucket attribution; sums to total_cycles.
  trace::BucketCycles attribution{};
  /// Number of edges on the chosen path.
  std::uint64_t edges = 0;
  /// The kHeaviestEdges heaviest edges, heaviest first; edges of equal
  /// weight keep their SOURCE -> SINK order.
  std::vector<HeavyEdge> heaviest;
};

}  // namespace olden::analyze
