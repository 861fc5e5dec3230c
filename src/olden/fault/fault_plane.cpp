#include "olden/fault/fault_plane.hpp"

#include <algorithm>
#include <limits>

namespace olden::fault {

using trace::CycleBucket;
using trace::EventKind;

namespace {

constexpr Cycles kNever = std::numeric_limits<Cycles>::max();

std::string describe(const WatchdogDiagnostic& d) {
  std::string s = "watchdog: ";
  s += d.reason;
  s += " at t=";
  s += std::to_string(d.sim_time);
  s += ": msg #";
  s += std::to_string(d.msg_id);
  s += " proc ";
  s += std::to_string(d.src);
  s += " -> ";
  s += std::to_string(d.dst);
  s += " (";
  s += std::to_string(d.retries);
  s += " retransmissions); class ";
  s += d.msg_class;
  return s;
}

}  // namespace

WatchdogError::WatchdogError(WatchdogDiagnostic diag)
    : std::runtime_error(describe(diag)), diag_(std::move(diag)) {}

FaultPlane::FaultPlane(const FaultSpec& spec, std::uint64_t seed)
    : spec_(spec), rng_(seed) {}

void FaultPlane::note(Machine& m, EventKind k, Cycles time, ProcId proc,
                      const Message& msg, std::uint64_t a0, std::uint64_t a1) {
  if (m.obs_ == nullptr) return;
  m.obs_->event(k, time, proc, msg.thread, trace::kNoSite, a0, a1, msg.chain,
                msg.parent);
}

Cycles FaultPlane::one_way(Machine& m, ProcId src, Cycles wire,
                           const Machine::Event& payload) {
  Message msg;
  switch (payload.kind) {
    case Machine::MsgKind::kMigrationArrive:
      msg.cls = MsgClass::kMigration;
      break;
    case Machine::MsgKind::kReturnArrive:
      msg.cls = MsgClass::kReturnStub;
      break;
    case Machine::MsgKind::kResolveFuture:
      msg.cls = MsgClass::kFutureResolve;
      break;
  }
  msg.src = src;
  msg.dst = payload.target;
  msg.send = payload.time - wire;
  msg.wire = wire;
  if (payload.thread != nullptr) {
    msg.thread = payload.thread->id;
    msg.chain = payload.thread->obs_chain;
    msg.parent = payload.thread->obs_depart_event;
  } else if (payload.cell != nullptr) {
    msg.parent = payload.cell->obs_resolve_event;
  }
  return exchange(m, msg).late_delivery;
}

Cycles FaultPlane::round_trip(Machine& m, MsgClass cls, ProcId src,
                              ProcId dst, const ThreadState& t) {
  Message msg;
  msg.cls = cls;
  msg.src = src;
  msg.dst = dst;
  msg.send = m.proc_clock(src);
  msg.wire = m.cfg_.costs.coherence_wire;
  msg.thread = t.id;
  msg.chain = t.obs_chain;
  msg.parent = t.obs_last_event;
  return exchange(m, msg).late_answer;
}

FaultPlane::Outcome FaultPlane::exchange(Machine& m, const Message& msg) {
  const auto c = static_cast<std::size_t>(msg.cls);
  // Fills and timestamp checks are answered by a reply carrying the data,
  // and the home, which keeps no state, serves every request copy that
  // lands. Everything else is acknowledged, duplicates included.
  const bool reply =
      msg.cls == MsgClass::kFill || msg.cls == MsgClass::kTsCheck;
  const Cycles back_wire = reply ? msg.wire : m.cfg_.costs.ack_wire;
  const std::uint64_t id = ++next_msg_id_;
  ++m.stats_.fault_messages;
  ++m.stats_.class_sent[c];
  if (reply) ++m.stats_.coherence_requests;

  landed_.clear();
  std::uint64_t replies_landed = 0;
  Cycles answered = kNever;
  Cycles t = msg.send;
  Cycles backoff = spec_.ack_timeout;
  std::uint32_t retries = 0;
  for (;;) {
    Cycles copies[2];
    const int n =
        transmit(m, msg, id, msg.src, msg.dst, t, msg.wire, true, copies);
    for (int i = 0; i < n; ++i) {
      landed_.push_back(copies[i]);
      if (reply) {
        ++m.stats_.fault_messages;
        ++m.stats_.class_sent[c];
      } else {
        ++m.stats_.acks_sent;
      }
      Cycles back[2];
      const int nb = transmit(m, msg, id, msg.dst, msg.src, copies[i],
                              back_wire, reply, back);
      for (int j = 0; j < nb; ++j) answered = std::min(answered, back[j]);
      if (reply) replies_landed += static_cast<std::uint64_t>(nb);
    }
    const Cycles timer = t + backoff;
    if (answered <= timer) break;
    if (retries == spec_.max_retries) {
      if (!trip_) {
        trip_ = WatchdogDiagnostic{.reason = "retry-cap-exceeded",
                                   .sim_time = timer,
                                   .msg_id = id,
                                   .src = msg.src,
                                   .dst = msg.dst,
                                   .retries = retries,
                                   .msg_class = to_string(msg.cls)};
      }
      // drain() throws before the run goes on; until then the message
      // counts as answered on time.
      answered = msg.send + msg.wire + back_wire;
      break;
    }
    t = timer;
    backoff = std::min<Cycles>(backoff * 2, spec_.ack_timeout * 32);
    ++retries;
    ++m.stats_.retransmissions;
    ++m.stats_.class_retries[c];
    m.charge_to(msg.src, m.cfg_.costs.retransmit_send, CycleBucket::kRetry);
    note(m, EventKind::kRetransmit, t, msg.src, msg,
         class_arg(msg.cls, msg.dst), retries);
  }

  // The receiver accepts the first copy to land and recognizes every
  // other as a replay; the sender uses the first reply and ignores the
  // rest.
  const auto first = std::min_element(landed_.begin(), landed_.end());
  for (auto it = landed_.begin(); it != landed_.end(); ++it) {
    if (it == first) continue;
    ++m.stats_.duplicates_suppressed;
    note(m, EventKind::kDupSuppressed, *it, msg.dst, msg,
         class_arg(msg.cls, msg.src), id);
  }
  if (replies_landed > 1) m.stats_.replies_ignored += replies_landed - 1;
  const Cycles lossless = msg.send + msg.wire;
  return {.late_delivery = first == landed_.end() ? 0 : *first - lossless,
          .late_answer = answered - lossless - back_wire};
}

int FaultPlane::transmit(Machine& m, const Message& msg, std::uint64_t id,
                         ProcId from, ProcId to, Cycles t, Cycles wire,
                         bool data, Cycles landed[2]) {
  if (!spec_.class_enabled(msg.cls)) {
    // Excluded class: a perfect wire, and no randomness consumed, so the
    // fault schedule of the enabled classes is independent of this one.
    landed[0] = t + wire;
    return 1;
  }
  const auto c = static_cast<std::size_t>(msg.cls);
  const std::uint64_t a0 = class_arg(msg.cls, to);
  const auto straggle = [&]() -> Cycles {
    if (spec_.delay <= 0.0 || rng_.next_double() >= spec_.delay) return 0;
    const Cycles extra = 1 + rng_.next_below(spec_.delay_cycles);
    ++m.stats_.fault_delays;
    ++m.stats_.class_delays[c];
    note(m, EventKind::kFaultDelay, t, from, msg, a0, extra);
    return extra;
  };
  int n = 0;
  if (spec_.drop > 0.0 && rng_.next_double() < spec_.drop) {
    ++m.stats_.fault_drops;
    ++m.stats_.class_drops[c];
    note(m, EventKind::kFaultDrop, t, from, msg, a0, id);
  } else {
    landed[n++] = t + wire + straggle();
  }
  if (!data) return n;
  if (spec_.dup > 0.0 && rng_.next_double() < spec_.dup) {
    ++m.stats_.fault_duplicates;
    ++m.stats_.class_dups[c];
    note(m, EventKind::kFaultDuplicate, t, from, msg, a0, id);
    landed[n++] = t + wire + straggle();
  }
  // A transient receiver slowdown can hit on any arrival, replay or not.
  for (int i = 0; i < n && spec_.hiccup > 0.0; ++i) {
    if (rng_.next_double() >= spec_.hiccup) continue;
    ++m.stats_.hiccups_injected;
    m.stats_.hiccup_cycles += spec_.hiccup_cycles;
    m.charge_to(to, spec_.hiccup_cycles, CycleBucket::kIdle);
    note(m, EventKind::kHiccup, landed[i], to, msg, spec_.hiccup_cycles, 0);
  }
  return n;
}

}  // namespace olden::fault
