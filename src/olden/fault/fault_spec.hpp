// FaultSpec: the declarative description of a fault schedule.
//
// A spec is pure data — probabilities and protocol knobs. The
// FaultPlane (fault_plane.hpp) combines a spec with a seed to produce a
// deterministic stream of injected faults: the same (spec, seed) pair
// reproduces the same drops, duplicates, delays and hiccups byte-for-byte
// on every run (see docs/ROBUSTNESS.md for the determinism argument).
//
// Specs are written on the command line as a comma-separated key=value
// list (the `--faults=` flag every bench binary accepts):
//
//   drop=P            per-attempt drop probability, P in [0,1]
//   dup=P             per-attempt duplicate probability
//   delay=P:CYCLES    with probability P add uniform [1,CYCLES] wire latency
//   hiccup=P:CYCLES   per-arrival probability of stalling the receiving
//                     processor for CYCLES extra cycles
//   timeout=CYCLES    ack timeout before the first retransmit
//   retries=N         retransmit cap; exceeding it trips the watchdog
//   classes=A:B:...   restrict injection to the named message classes
//                     (migration, return_stub, future_resolve, fill,
//                     invalidate, ts_check); default is every class
//
// e.g. --faults=drop=0.1,dup=0.05,delay=0.2:300,hiccup=0.01:500
//      --faults=drop=0.2,classes=fill:invalidate:ts_check
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "olden/support/stats.hpp"
#include "olden/support/types.hpp"

namespace olden::fault {

struct FaultSpec {
  /// Master switch. parse_fault_spec sets it for any non-empty spec; a
  /// null/disabled spec leaves the wire perfectly reliable and the
  /// machine cycle-for-cycle identical to a build without the fault plane.
  bool enabled = false;

  // --- injector ----------------------------------------------------------
  double drop = 0.0;        ///< per-transmission-attempt drop probability
  double dup = 0.0;         ///< per-data-attempt duplicate probability
  double delay = 0.0;       ///< per-attempt extra-latency probability
  Cycles delay_cycles = 0;  ///< max extra wire cycles (uniform in [1, max])

  double hiccup = 0.0;       ///< per-arrival receiver-stall probability
  Cycles hiccup_cycles = 0;  ///< stall length per hiccup

  // --- reliable-delivery protocol ----------------------------------------
  /// Cycles a sender waits for an ack before the first retransmit. Doubles
  /// per retry (capped at 32x). The default clears the slowest round trip
  /// in the cost model (migration_wire + recv + return path) with margin.
  Cycles ack_timeout = 8000;
  /// Retransmit attempts per message before the watchdog declares the
  /// machine stuck.
  std::uint32_t max_retries = 24;

  // --- class selection -----------------------------------------------------
  /// Bitmask over MsgClass: the injector only draws faults for messages
  /// whose class bit is set (excluded classes still ride the wire, they
  /// just never lose). Default: every class. Purely a function of the
  /// spec, so determinism per (spec, seed) is unaffected.
  static constexpr std::uint32_t kAllClasses = (1u << kNumMsgClasses) - 1;
  std::uint32_t class_mask = kAllClasses;

  [[nodiscard]] bool class_enabled(MsgClass c) const {
    return ((class_mask >> static_cast<unsigned>(c)) & 1u) != 0;
  }
};

/// Parse the `--faults=` grammar above into `out`. Returns true on
/// success; on failure returns false and describes the problem in `err`
/// (one line, no trailing newline). "none", "off" and the empty string
/// parse to a disabled spec.
bool parse_fault_spec(std::string_view text, FaultSpec* out, std::string* err);

}  // namespace olden::fault
