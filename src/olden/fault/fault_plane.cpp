#include "olden/fault/fault_plane.hpp"

#include <algorithm>

namespace olden::fault {

using trace::CycleBucket;
using trace::EventKind;

namespace {

std::string describe(const WatchdogDiagnostic& d) {
  std::string s = "watchdog: " + d.reason + " at t=" +
                  std::to_string(d.sim_time) + ": " + d.payload + " msg #" +
                  std::to_string(d.msg_id) + " proc " +
                  std::to_string(d.src) + " -> " + std::to_string(d.dst) +
                  " (channel seq " + std::to_string(d.chan_seq) + ", " +
                  std::to_string(d.retries) + " retransmissions), " +
                  std::to_string(d.pending_messages) +
                  " message(s) still unacknowledged";
  if (d.msg_class[0] != '\0') {
    s += "; class ";
    s += d.msg_class;
  }
  if (!d.channels.empty()) {
    s += "; unacked per channel:";
    for (const auto& c : d.channels) {
      s += ' ';
      s += std::to_string(c.src);
      s += "->";
      s += std::to_string(c.dst);
      s += ':';
      s += std::to_string(c.unacked);
    }
  }
  return s;
}

}  // namespace

WatchdogError::WatchdogError(WatchdogDiagnostic diag)
    : std::runtime_error(describe(diag)), diag_(std::move(diag)) {}

FaultPlane::FaultPlane(const FaultSpec& spec, std::uint64_t seed)
    : spec_(spec), rng_(seed) {}

bool FaultPlane::DedupWindow::accept(std::uint64_t seq) {
  if (seq <= contig) return false;
  // `ahead` never holds contig + 1 (the loop below drains it), so only a
  // later seq needs a tree node; the next one in order just moves the mark.
  if (seq != contig + 1) return ahead.insert(seq).second;
  ++contig;
  while (!ahead.empty() && *ahead.begin() == contig + 1) {
    ahead.erase(ahead.begin());
    ++contig;
  }
  return true;
}

const char* FaultPlane::payload_name(Machine::MsgKind k) {
  switch (k) {
    case Machine::MsgKind::kMigrationArrive: return "migration";
    case Machine::MsgKind::kReturnArrive: return "return_stub";
    case Machine::MsgKind::kResolveFuture: return "future_resolve";
    case Machine::MsgKind::kFillRequest: return "fill_request";
    case Machine::MsgKind::kFillReply: return "fill_reply";
    case Machine::MsgKind::kInvalidatePush: return "invalidate_push";
    case Machine::MsgKind::kTsCheckRequest: return "ts_check_request";
    case Machine::MsgKind::kTsCheckReply: return "ts_check_reply";
    default: return "?";
  }
}

MsgClass FaultPlane::class_of(Machine::MsgKind k) {
  switch (k) {
    case Machine::MsgKind::kReturnArrive: return MsgClass::kReturnStub;
    case Machine::MsgKind::kResolveFuture: return MsgClass::kFutureResolve;
    case Machine::MsgKind::kFillRequest:
    case Machine::MsgKind::kFillReply: return MsgClass::kFill;
    case Machine::MsgKind::kInvalidatePush: return MsgClass::kInvalidate;
    case Machine::MsgKind::kTsCheckRequest:
    case Machine::MsgKind::kTsCheckReply: return MsgClass::kTsCheck;
    case Machine::MsgKind::kMigrationArrive:
    default: return MsgClass::kMigration;
  }
}

double FaultPlane::drop_probability(Cycles now) const {
  double p = spec_.drop;
  if (spec_.burst_period > 0 && now % spec_.burst_period < spec_.burst_len) {
    p *= spec_.burst_factor;
  }
  return std::min(p, 1.0);
}

void FaultPlane::note(Machine& m, EventKind k, Cycles time, ProcId proc,
                      const Pending* p, std::uint64_t a0, std::uint64_t a1) {
  if (m.obs_ == nullptr) return;
  m.obs_->event(k, time, proc, p != nullptr ? p->thread_id : trace::kNoThread,
                trace::kNoSite, a0, a1,
                p != nullptr ? p->chain : trace::kNoChain,
                p != nullptr ? p->parent : trace::kNoEvent);
}

const FaultPlane::Pending* FaultPlane::find_in_flight(std::uint64_t id) const {
  if (auto it = pending_.find(id); it != pending_.end()) return &it->second;
  if (auto it = rr_pending_.find(id); it != rr_pending_.end()) {
    return &it->second;
  }
  if (auto it = reply_pending_.find(id); it != reply_pending_.end()) {
    return &it->second;
  }
  return nullptr;
}

void FaultPlane::dec_reply_copies(std::uint64_t id) {
  auto it = reply_pending_.find(id);
  if (it == reply_pending_.end()) return;
  if (it->second.copies_in_flight <= 1) {
    reply_pending_.erase(it);
  } else {
    --it->second.copies_in_flight;
  }
}

std::vector<WatchdogDiagnostic::ChannelLoad> FaultPlane::channel_loads()
    const {
  std::map<std::uint64_t, std::uint64_t> counts;
  for (const auto* table : {&pending_, &rr_pending_, &reply_pending_}) {
    for (const auto& [id, p] : *table) ++counts[chan_key(p.src, p.dst)];
  }
  std::vector<WatchdogDiagnostic::ChannelLoad> out;
  out.reserve(counts.size());
  for (const auto& [key, n] : counts) {
    out.push_back({static_cast<ProcId>(key >> 32),
                   static_cast<ProcId>(key & 0xffffffffu), n});
  }
  return out;
}

void FaultPlane::throw_watchdog(std::string reason, Cycles now,
                                std::uint64_t id, const Pending& p) const {
  WatchdogDiagnostic d;
  d.reason = std::move(reason);
  d.sim_time = now;
  d.msg_id = id;
  d.src = p.src;
  d.dst = p.dst;
  d.chan_seq = p.chan_seq;
  d.retries = p.retries;
  d.payload = payload_name(p.payload.kind);
  d.msg_class = to_string(class_of(p.payload.kind));
  d.pending_messages = pending_messages();
  d.channels = channel_loads();
  throw WatchdogError(std::move(d));
}

void FaultPlane::check_progress(const Machine& m, std::uint64_t applied) const {
  if (applied <= kProgressBudget) return;
  // Name the most-retried in-flight message — the likeliest culprit —
  // considering both retransmitting tables (ack/retransmit payloads and
  // coherence requests; replies never retry and cannot wedge on their own).
  const Pending* worst = nullptr;
  std::uint64_t worst_id = 0;
  Cycles now = 0;
  for (ProcId p = 0; p < m.nprocs(); ++p) now = std::max(now, m.proc_clock(p));
  for (const auto* table : {&pending_, &rr_pending_}) {
    for (const auto& [id, p] : *table) {
      if (worst == nullptr || p.retries > worst->retries) {
        worst = &p;
        worst_id = id;
      }
    }
  }
  if (worst != nullptr) {
    throw_watchdog("no-thread-progress", now, worst_id, *worst);
  }
  WatchdogDiagnostic d;
  d.reason = "no-thread-progress";
  d.sim_time = now;
  d.payload = "?";
  d.pending_messages = 0;
  throw WatchdogError(std::move(d));
}

void FaultPlane::send(Machine& m, ProcId src, Cycles wire,
                      const Machine::Event& payload) {
  const std::uint64_t id = ++next_msg_id_;
  Pending& p = pending_[id];
  p.payload = payload;
  p.src = src;
  p.dst = payload.target;
  p.wire = wire;
  p.chan_seq = ++chan_next_seq_[chan_key(src, payload.target)];
  p.backoff = spec_.ack_timeout;
  if (payload.thread != nullptr) {
    p.thread_id = payload.thread->id;
    p.chain = payload.thread->obs_chain;
    p.parent = payload.thread->obs_depart_event;
  } else if (payload.cell != nullptr) {
    p.parent = payload.cell->obs_resolve_event;
  }
  // A payload carrying its own send-side event (invalidation pushes) gets
  // that as the causal parent instead of the thread's departure.
  if (payload.obs_parent != trace::kNoEvent) p.parent = payload.obs_parent;
  ++m.stats_.fault_messages;
  ++m.stats_.class_sent[static_cast<std::size_t>(class_of(payload.kind))];
  const Cycles send_time = payload.time - wire;
  transmit(m, id, p, send_time);
  m.schedule(Machine::Event{.time = send_time + p.backoff,
                            .seq = m.next_seq_++,
                            .kind = Machine::MsgKind::kRetryTimer,
                            .target = src,
                            .src = src,
                            .msg_id = id});
}

void FaultPlane::send_request(Machine& m, ProcId src, Cycles wire,
                              const Machine::Event& payload) {
  const std::uint64_t id = ++next_msg_id_;
  Pending& p = rr_pending_[id];
  p.payload = payload;
  p.src = src;
  p.dst = payload.target;
  p.wire = wire;
  p.chan_seq = ++chan_next_seq_[chan_key(src, payload.target)];
  p.backoff = spec_.ack_timeout;
  if (payload.thread != nullptr) {
    p.thread_id = payload.thread->id;
    p.chain = payload.thread->obs_chain;
  }
  p.parent = payload.obs_parent;
  ++m.stats_.fault_messages;
  ++m.stats_.coherence_requests;
  ++m.stats_.class_sent[static_cast<std::size_t>(class_of(payload.kind))];
  const Cycles send_time = payload.time - wire;
  transmit(m, id, p, send_time);
  // Ack-free: the reply retires the request (consume_reply). Until then
  // the request retransmits on the same timer machinery as PR 3 payloads.
  m.schedule(Machine::Event{.time = send_time + p.backoff,
                            .seq = m.next_seq_++,
                            .kind = Machine::MsgKind::kRetryTimer,
                            .target = src,
                            .src = src,
                            .msg_id = id});
}

void FaultPlane::send_reply(Machine& m, ProcId src, Cycles wire,
                            const Machine::Event& payload) {
  const std::uint64_t id = ++next_msg_id_;
  Pending p;
  p.payload = payload;
  p.src = src;
  p.dst = payload.target;
  p.wire = wire;
  p.chan_seq = ++chan_next_seq_[chan_key(src, payload.target)];
  if (payload.thread != nullptr) {
    p.thread_id = payload.thread->id;
    p.chain = payload.thread->obs_chain;
  }
  p.parent = payload.obs_parent;
  ++m.stats_.fault_messages;
  ++m.stats_.class_sent[static_cast<std::size_t>(class_of(payload.kind))];
  // Reply marshalling is ack-sized work on the home processor.
  m.charge_to(src, m.cfg_.costs.ack_send, CycleBucket::kRetry);
  const Cycles send_time = payload.time - wire;
  const int copies = transmit(m, id, p, send_time);
  if (copies > 0) {
    // No retry timer: a lost reply is regenerated when the requester's
    // retransmitted request is re-serviced. Track only the copies still
    // on the wire so delivery can find the payload.
    p.copies_in_flight = static_cast<std::uint32_t>(copies);
    reply_pending_[id] = p;
  }
}

bool FaultPlane::consume_reply(std::uint64_t request_id) {
  return rr_pending_.erase(request_id) > 0;
}

Cycles FaultPlane::draw_delay(Machine& m, const Pending& p, Cycles now) {
  if (spec_.delay <= 0.0 || rng_.next_double() >= spec_.delay) return 0;
  const MsgClass cls = class_of(p.payload.kind);
  const Cycles extra = 1 + rng_.next_below(spec_.delay_cycles);
  ++m.stats_.fault_delays;
  ++m.stats_.class_delays[static_cast<std::size_t>(cls)];
  note(m, EventKind::kFaultDelay, now, p.src, &p, class_arg(cls, p.dst),
       extra);
  return extra;
}

int FaultPlane::transmit(Machine& m, std::uint64_t id, Pending& p,
                         Cycles now) {
  const MsgClass cls = class_of(p.payload.kind);
  if (!spec_.class_enabled(cls)) {
    // Excluded class: a perfect wire, and no randomness consumed, so the
    // fault schedule of the enabled classes is independent of this one.
    m.schedule(Machine::Event{.time = now + p.wire,
                              .seq = m.next_seq_++,
                              .kind = Machine::MsgKind::kWireDeliver,
                              .target = p.dst,
                              .src = p.src,
                              .msg_id = id,
                              .chan_seq = p.chan_seq,
                              .payload_kind = p.payload.kind});
    return 1;
  }
  int copies = 0;
  const double pd = drop_probability(now);
  if (pd > 0.0 && rng_.next_double() < pd) {
    ++m.stats_.fault_drops;
    ++m.stats_.class_drops[static_cast<std::size_t>(cls)];
    note(m, EventKind::kFaultDrop, now, p.src, &p, class_arg(cls, p.dst),
         p.chan_seq);
  } else {
    const Cycles extra = draw_delay(m, p, now);
    m.schedule(Machine::Event{.time = now + p.wire + extra,
                              .seq = m.next_seq_++,
                              .kind = Machine::MsgKind::kWireDeliver,
                              .target = p.dst,
                              .src = p.src,
                              .msg_id = id,
                              .chan_seq = p.chan_seq,
                              .payload_kind = p.payload.kind});
    ++copies;
  }
  if (spec_.dup > 0.0 && rng_.next_double() < spec_.dup) {
    ++m.stats_.fault_duplicates;
    ++m.stats_.class_dups[static_cast<std::size_t>(cls)];
    note(m, EventKind::kFaultDuplicate, now, p.src, &p, class_arg(cls, p.dst),
         p.chan_seq);
    const Cycles extra = draw_delay(m, p, now);
    m.schedule(Machine::Event{.time = now + p.wire + extra,
                              .seq = m.next_seq_++,
                              .kind = Machine::MsgKind::kWireDeliver,
                              .target = p.dst,
                              .src = p.src,
                              .msg_id = id,
                              .chan_seq = p.chan_seq,
                              .payload_kind = p.payload.kind});
    ++copies;
  }
  return copies;
}

void FaultPlane::send_ack(Machine& m, MsgClass cls, ProcId data_src,
                          ProcId data_dst, std::uint64_t msg_id,
                          std::uint64_t chan_seq, Cycles now) {
  ++m.stats_.acks_sent;
  m.charge_to(data_dst, m.cfg_.costs.ack_send, CycleBucket::kRetry);
  if (!spec_.class_enabled(cls)) {
    m.schedule(Machine::Event{.time = now + m.cfg_.costs.ack_wire,
                              .seq = m.next_seq_++,
                              .kind = Machine::MsgKind::kAckDeliver,
                              .target = data_src,
                              .src = data_dst,
                              .msg_id = msg_id,
                              .chan_seq = chan_seq});
    return;
  }
  const double pd = drop_probability(now);
  if (pd > 0.0 && rng_.next_double() < pd) {
    ++m.stats_.fault_drops;
    ++m.stats_.class_drops[static_cast<std::size_t>(cls)];
    note(m, EventKind::kFaultDrop, now, data_dst, find_in_flight(msg_id),
         class_arg(cls, data_src), chan_seq);
    return;
  }
  Cycles extra = 0;
  if (spec_.delay > 0.0 && rng_.next_double() < spec_.delay) {
    extra = 1 + rng_.next_below(spec_.delay_cycles);
    ++m.stats_.fault_delays;
    ++m.stats_.class_delays[static_cast<std::size_t>(cls)];
  }
  m.schedule(Machine::Event{.time = now + m.cfg_.costs.ack_wire + extra,
                            .seq = m.next_seq_++,
                            .kind = Machine::MsgKind::kAckDeliver,
                            .target = data_src,
                            .src = data_dst,
                            .msg_id = msg_id,
                            .chan_seq = chan_seq});
}

void FaultPlane::on_wire_deliver(Machine& m, const Machine::Event& e) {
  const Machine::MsgKind pk = e.payload_kind;
  const MsgClass cls = class_of(pk);
  const bool is_request = pk == Machine::MsgKind::kFillRequest ||
                          pk == Machine::MsgKind::kTsCheckRequest;
  const bool is_reply = pk == Machine::MsgKind::kFillReply ||
                        pk == Machine::MsgKind::kTsCheckReply;
  const Pending* attribution = find_in_flight(e.msg_id);
  // A transient receiver slowdown can hit on any arrival, duplicate or not.
  if (spec_.class_enabled(cls) && spec_.hiccup > 0.0 &&
      rng_.next_double() < spec_.hiccup) {
    ++m.stats_.hiccups_injected;
    m.stats_.hiccup_cycles += spec_.hiccup_cycles;
    m.charge_to(e.target, spec_.hiccup_cycles, CycleBucket::kIdle);
    note(m, EventKind::kHiccup, e.time, e.target, attribution,
         spec_.hiccup_cycles, 0);
  }
  DedupWindow& win = dedup_[chan_key(e.src, e.target)];
  if (!win.accept(e.chan_seq)) {
    // Replay: an injected duplicate, a retransmit racing its own ack, or a
    // retransmitted request whose reply got lost.
    ++m.stats_.duplicates_suppressed;
    note(m, EventKind::kDupSuppressed, e.time, e.target, attribution,
         class_arg(cls, e.src), e.chan_seq);
    if (is_request) {
      // Still unanswered at the requester (the reply was dropped, or is
      // still in flight): re-service it. The coherence handlers are
      // stateless at the home, so a surplus reply is harmless — the
      // requester discards it via the consume_reply tombstone.
      auto it = rr_pending_.find(e.msg_id);
      if (it != rr_pending_.end()) {
        Machine::Event payload = it->second.payload;
        payload.time = e.time;
        payload.seq = e.seq;
        payload.msg_id = e.msg_id;
        m.apply(payload);
      }
    } else if (is_reply) {
      dec_reply_copies(e.msg_id);
    } else {
      // Re-ack so the sender can stop retransmitting.
      send_ack(m, cls, e.src, e.target, e.msg_id, e.chan_seq, e.time);
    }
    return;
  }
  if (is_request) {
    // First acceptance of this channel seq: the request cannot have been
    // answered yet (every copy shares one seq, and replies only exist once
    // a copy has been serviced).
    auto it = rr_pending_.find(e.msg_id);
    OLDEN_REQUIRE(it != rr_pending_.end(),
                  "accepted a coherence request already retired");
    Machine::Event payload = it->second.payload;
    payload.time = e.time;
    payload.seq = e.seq;
    payload.msg_id = e.msg_id;  // the reply answers this id
    m.apply(payload);
    return;
  }
  if (is_reply) {
    auto it = reply_pending_.find(e.msg_id);
    OLDEN_REQUIRE(it != reply_pending_.end(),
                  "accepted a coherence reply with no sender state");
    Machine::Event payload = it->second.payload;
    payload.time = e.time;
    payload.seq = e.seq;
    dec_reply_copies(e.msg_id);
    m.apply(payload);
    return;
  }
  // First acceptance: the pending entry must still exist — it is erased
  // only once an ack arrives, and acks are only sent for arrivals.
  auto pit = pending_.find(e.msg_id);
  OLDEN_REQUIRE(pit != pending_.end(),
                "accepted a message with no sender state");
  Machine::Event payload = pit->second.payload;
  payload.time = e.time;  // the payload lands when the surviving copy does
  payload.seq = e.seq;
  send_ack(m, cls, e.src, e.target, e.msg_id, e.chan_seq, e.time);
  m.apply(payload);
}

void FaultPlane::on_ack_deliver(Machine& m, const Machine::Event& e) {
  m.charge_to(e.target, m.cfg_.costs.ack_recv, CycleBucket::kRetry);
  auto it = pending_.find(e.msg_id);
  if (it == pending_.end()) return;  // duplicate acks are no-ops
  const Pending& p = it->second;
  if (p.payload.kind == Machine::MsgKind::kInvalidatePush) {
    // The sharer's ack closes the line-invalidation push; record it so
    // invalidation storms are attributable push by push.
    note(m, EventKind::kInvalidateAck, e.time, p.src, &p, p.payload.parg0,
         p.dst);
  }
  pending_.erase(it);
}

void FaultPlane::on_retry_timer(Machine& m, const Machine::Event& e) {
  auto it = pending_.find(e.msg_id);
  if (it == pending_.end()) {
    it = rr_pending_.find(e.msg_id);
    if (it == rr_pending_.end()) return;  // acked/answered: a tombstone
  }
  Pending& p = it->second;
  const MsgClass cls = class_of(p.payload.kind);
  if (p.retries >= spec_.max_retries) {
    throw_watchdog("retry-cap-exceeded", e.time, e.msg_id, p);
  }
  ++p.retries;
  ++m.stats_.retransmissions;
  ++m.stats_.class_retries[static_cast<std::size_t>(cls)];
  m.charge_to(p.src, m.cfg_.costs.retransmit_send, CycleBucket::kRetry);
  note(m, EventKind::kRetransmit, e.time, p.src, &p, class_arg(cls, p.dst),
       p.retries);
  transmit(m, e.msg_id, p, e.time);
  p.backoff = std::min<Cycles>(p.backoff * 2, spec_.ack_timeout * 32);
  m.schedule(Machine::Event{.time = e.time + p.backoff,
                            .seq = m.next_seq_++,
                            .kind = Machine::MsgKind::kRetryTimer,
                            .target = p.src,
                            .src = p.src,
                            .msg_id = e.msg_id});
}

}  // namespace olden::fault
