// FaultPlane: deterministic fault injection plus the reliable-delivery
// protocol that lets the Olden runtime run correctly through it, decided
// for each message when the message is sent.
//
// Every inter-processor message the runtime sends (migrations, return
// stubs, remote future resolutions, line fills, push invalidations and
// bilateral timestamp checks) asks the plane, as it leaves, what the wire
// does to it. The plane plays the protocol out on the spot. Each
// transmission attempt draws drop, duplicate and delay fates. Each copy
// that lands draws a receiver hiccup and is answered: a fill or timestamp
// check by a reply carrying the data, anything else by an
// acknowledgement. Answers draw their own drop and delay fates, and
// replies duplicate too. The sender retransmits on the ack timeout, with
// capped exponential backoff, until an answer lands. What comes back is
// the virtual time the loss cost:
//  * one_way(): how much later than on a lossless wire the payload lands.
//    The machine adds it to the payload's arrival time, so the wire still
//    carries the one heap event it carries with no plane.
//  * round_trip(): how much later than on a lossless wire the answer
//    lands. The sender is blocked meanwhile; it pays the inline charges it
//    pays with no plane and the extra wait goes to its kRetry bucket.
// Retransmit marshalling is charged to the sender's kRetry bucket and a
// hiccup to the receiver's kIdle bucket. Lossless acks and replies are
// free. With nothing injected both extras are zero and nothing is
// charged: the event stream is the no-plane stream, event for event.
//
// Determinism: all fault randomness comes from one olden::Rng seeded with
// RunConfig::fault_seed, drawn in a fixed order per message, and messages
// are sent in simulation order. The same (spec, seed) therefore
// reproduces the same faults, and the same binary trace, on every run.
// Because the benchmarks' data values never depend on timing, checksums
// under any fault schedule equal the fault-free checksums (the soak test
// enforces this).
//
// Liveness: a message that exhausts its retransmit budget trips the
// watchdog. Messages are sent from inside coroutines, whose promise
// terminates the process on an exception, so the plane only records the
// diagnostic; Machine::drain() throws it as WatchdogError between events.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "olden/fault/fault_spec.hpp"
#include "olden/runtime/machine.hpp"
#include "olden/support/rng.hpp"
#include "olden/support/types.hpp"
#include "olden/trace/trace.hpp"

namespace olden::fault {

/// What the watchdog saw when it declared the machine stuck.
struct WatchdogDiagnostic {
  std::string reason;            ///< "retry-cap-exceeded"
  Cycles sim_time = 0;           ///< virtual time the last timeout expired
  std::uint64_t msg_id = 0;      ///< the stuck message
  ProcId src = 0;                ///< its sender
  ProcId dst = 0;                ///< its destination
  std::uint32_t retries = 0;     ///< retransmissions already attempted
  /// Message class of the stuck payload: "migration" | "return_stub" |
  /// "future_resolve" | "fill" | "invalidate" | "ts_check".
  const char* msg_class = "";
};

/// Thrown (never OLDEN_REQUIRE-aborted) so harnesses and tests can catch
/// non-quiescence and inspect the diagnostic.
class WatchdogError : public std::runtime_error {
 public:
  explicit WatchdogError(WatchdogDiagnostic diag);
  [[nodiscard]] const WatchdogDiagnostic& diagnostic() const { return diag_; }

 private:
  WatchdogDiagnostic diag_;
};

class FaultPlane {
 public:
  FaultPlane(const FaultSpec& spec, std::uint64_t seed);

  FaultPlane(const FaultPlane&) = delete;
  FaultPlane& operator=(const FaultPlane&) = delete;

  /// A payload message (migration, return stub or future resolution)
  /// leaving `src` with lossless transit `wire`; `payload.time` is its
  /// lossless arrival. Returns how many cycles later its first copy lands.
  Cycles one_way(Machine& m, ProcId src, Cycles wire,
                 const Machine::Event& payload);

  /// A round trip of class `cls` (fill, timestamp check or push
  /// invalidation) from `src` to `dst`, sent now on `src`'s clock by
  /// thread `t`, which blocks until it is answered. Returns how many
  /// cycles later than on a lossless wire the first answer lands.
  Cycles round_trip(Machine& m, MsgClass cls, ProcId src, ProcId dst,
                    const ThreadState& t);

  /// Throws WatchdogError if a message ran out of retransmissions.
  void check_watchdog() const {
    if (trip_) throw WatchdogError(*trip_);
  }

 private:
  /// One message as the plane plays it out.
  struct Message {
    MsgClass cls = MsgClass::kMigration;
    ProcId src = 0;
    ProcId dst = 0;
    Cycles send = 0;  ///< departure time on src's clock
    Cycles wire = 0;  ///< lossless one-way transit
    // Causal attribution for the trace events about this message.
    ThreadId thread = trace::kNoThread;
    std::uint64_t chain = trace::kNoChain;
    std::uint64_t parent = trace::kNoEvent;
  };
  /// How much later than on a lossless wire the first copy of a message
  /// landed, and the first answer to it got back to the sender.
  struct Outcome {
    Cycles late_delivery = 0;
    Cycles late_answer = 0;
  };

  /// Fault trace events encode the message class in arg0's upper bits —
  /// `(class + 1) << 32 | low` — so analyzers can split retry storms by
  /// class; 0 up top means "unknown" (traces from before the encoding).
  static std::uint64_t class_arg(MsgClass cls, std::uint64_t low) {
    return ((static_cast<std::uint64_t>(cls) + 1) << 32) |
           (low & 0xffffffffu);
  }

  /// Play `msg` out: attempts, copies, answers and retransmits, with
  /// their stats, charges and trace events.
  Outcome exchange(Machine& m, const Message& msg);
  /// One transmission of `msg`'s class from `from` to `to` at `t` with
  /// lossless transit `wire`. Writes the landing time of each surviving
  /// copy to `landed` and returns how many there are (0 to 2). `data` is
  /// a payload, request or reply: it may duplicate, and each landing
  /// copy may hiccup its receiver. Otherwise it is an ack, which only
  /// drops or straggles. Classes outside spec_.class_mask draw nothing
  /// (and consume no randomness): a perfect wire.
  int transmit(Machine& m, const Message& msg, std::uint64_t id, ProcId from,
               ProcId to, Cycles t, Cycles wire, bool data, Cycles landed[2]);
  void note(Machine& m, trace::EventKind k, Cycles time, ProcId proc,
            const Message& msg, std::uint64_t a0, std::uint64_t a1);

  FaultSpec spec_;
  Rng rng_;
  std::uint64_t next_msg_id_ = 0;
  /// Landing times of the current message's copies (scratch, reused).
  std::vector<Cycles> landed_;
  /// The first retry-cap trip, thrown by check_watchdog().
  std::optional<WatchdogDiagnostic> trip_;
};

}  // namespace olden::fault
