#include "olden/analyze/streaming.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "olden/analyze/classify.hpp"

namespace olden::analyze {

namespace {

using trace::CycleBucket;
using trace::EventKind;
using trace::TraceEvent;

constexpr Cycles kInf = std::numeric_limits<Cycles>::max();
/// pred sentinel for "reached straight from SOURCE".
constexpr std::uint64_t kFromSource = ~std::uint64_t{0};
/// last_on_proc sentinel for "no event on this processor yet".
constexpr std::uint64_t kNone = ~std::uint64_t{0};
/// parent_ sentinel: no parent, or parent dropped at the trace limit.
constexpr std::uint64_t kNoParent = ~std::uint64_t{0};

static_assert(trace::kNumEventKinds < 0x80,
              "kind must fit 7 bits next to the arg0-sign bit");
static_assert(kMaxProcs <= 0x100, "proc must fit a byte");

}  // namespace

StreamingRunAnalyzer::StreamingRunAnalyzer(const TraceRun& header,
                                           std::size_t top_n)
    : label_(header.label),
      run_truncated_(header.truncated()),
      nprocs_(header.nprocs),
      makespan_(header.makespan),
      expected_events_(header.num_events),
      top_n_(top_n) {
  time_.reserve(expected_events_);
  kindbits_.reserve(expected_events_);
  proc_.reserve(expected_events_);
  parent_.reserve(expected_events_);
}

void StreamingRunAnalyzer::enable_diff_profile() {
  diff_ = true;
  site_.reserve(expected_events_);
  page_.reserve(expected_events_);
}

bool StreamingRunAnalyzer::set_error(const std::string& msg) {
  if (err_.empty()) err_ = msg;
  return false;
}

bool StreamingRunAnalyzer::add(const TraceEvent& e) {
  if (!err_.empty()) return false;
  const std::uint64_t i = count_;
  if (e.id != i) {
    return set_error("event record " + std::to_string(i) + " carries id " +
                     std::to_string(e.id) +
                     " (the analyzer requires the runtime's dense per-run "
                     "ids)");
  }
  if (e.proc >= nprocs_) {
    return set_error("event " + std::to_string(i) + " on processor " +
                     std::to_string(e.proc) + " of a " +
                     std::to_string(nprocs_) + "-processor run");
  }
  std::uint64_t parent = kNoParent;
  if (e.parent != trace::kNoEvent && e.parent < expected_events_) {
    if (e.parent >= i) {
      return set_error("event " + std::to_string(i) +
                       " carries a forward parent link " +
                       std::to_string(e.parent) +
                       " (the analyzer requires emission-order traces)");
    }
    parent = e.parent;
  }

  time_.push_back(e.time);
  kindbits_.push_back(static_cast<std::uint8_t>(e.kind) |
                      (e.arg0 > 0 ? std::uint8_t{0x80} : std::uint8_t{0}));
  proc_.push_back(static_cast<std::uint8_t>(e.proc));
  parent_.push_back(parent);
  if (diff_) {
    site_.push_back(e.site);
    page_.push_back(classify::page_of(e.kind, e.arg0));
    // First sighting of a chain in file order carries its spawn
    // signature.
    if (e.chain != trace::kNoChain && chains_seen_.insert(e.chain).second) {
      ++chains_;
      ++chain_counts_[{static_cast<std::uint8_t>(e.kind), e.site}];
    }
  }

  // --- report aggregation, fed one event at a time ------------------------
  switch (e.kind) {
    case EventKind::kMigrationDepart: {
      depart_site_.emplace(i, e.site);
      SiteStats& s = sites_[e.site];
      s.site = e.site;
      ++s.departs;
      break;
    }
    case EventKind::kMigrationArrive: {
      if (e.parent == trace::kNoEvent) break;
      const auto it = depart_site_.find(e.parent);
      if (it == depart_site_.end()) break;  // dropped, or not a depart
      SiteStats& s = sites_[it->second];
      s.site = it->second;
      ++s.arrives_matched;
      s.transit_cycles += e.arg1;
      break;
    }
    case EventKind::kCacheHit:
    case EventKind::kCacheMiss: {
      PageAcc& a = pages_[e.arg0];
      a.stats.page = e.arg0;
      ++a.stats.heat;
      break;
    }
    case EventKind::kCacheLineFill: {
      PageAcc& a = pages_[e.arg0];
      a.stats.page = e.arg0;
      ++a.stats.fills;
      a.sharers.insert(e.proc);
      if (a.invalidated_on.erase(e.proc) > 0) ++a.stats.ping_pongs;
      break;
    }
    case EventKind::kLineInvalidate:
    case EventKind::kTimestampCheck: {
      if (e.arg1 == 0) break;  // nothing was actually dropped
      PageAcc& a = pages_[e.arg0];
      a.stats.page = e.arg0;
      ++a.stats.invalidates;
      a.invalidated_on.insert(e.proc);
      break;
    }
    case EventKind::kFaultDrop:
      ++faults_.drops;
      break;
    case EventKind::kFaultDelay:
      ++faults_.delays;
      break;
    case EventKind::kFaultDuplicate:
      ++faults_.duplicates;
      break;
    case EventKind::kRetransmit:
      faults_.count_retransmit(e.arg0);
      break;
    case EventKind::kDupSuppressed:
      ++faults_.dup_suppressed;
      break;
    case EventKind::kHiccup:
      ++faults_.hiccups;
      faults_.hiccup_cycles += e.arg0;
      break;
    default:
      break;
  }

  ++count_;
  return true;
}

void StreamingRunAnalyzer::extract_critical_path(CriticalPath* path,
                                                 DiffProfile* profile) const {
  path->attribution.fill(0);
  const std::uint64_t n = count_;

  // Topological order: events by (time, id). Parent links point at
  // earlier-emitted (smaller-id) events, so this sorts every edge source
  // before its destination and yields each per-processor chain in order.
  // `order` starts in id order, so a stable sort by time keeps ties by id;
  // as a merge sort it also rides the runs a trace emits already in order.
  std::vector<std::uint64_t> order(n);
  std::iota(order.begin(), order.end(), std::uint64_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint64_t a, std::uint64_t b) {
                     return time_[a] < time_[b];
                   });

  std::vector<Cycles> cost(n, kInf);
  std::vector<std::uint64_t> pred(n, kFromSource);
  std::vector<std::uint8_t> bucket(n, 0);
  std::vector<std::uint64_t> last_on_proc(nprocs_, kNone);

  // Min-idle DP: each destination evaluates its incoming candidates in
  // source order — SOURCE first, then (time, id), chain before causal on
  // a shared source — improving on strict `<` only, which needs no
  // adjacency lists.
  struct Cand {
    std::uint64_t src = kFromSource;  ///< kFromSource = synthetic SOURCE
    CycleBucket bucket = CycleBucket::kCompute;
    bool valid = false;
  };
  for (const std::uint64_t idx : order) {
    const EventKind dst_kind = static_cast<EventKind>(kindbits_[idx] & 0x7F);
    const bool dst_arg0_pos = (kindbits_[idx] & 0x80) != 0;

    // Every event has a chain candidate — its processor's previous event,
    // or SOURCE — so each cost is final and finite once `order` passes it.
    Cand chain;
    Cand causal;
    chain.valid = true;
    const std::uint64_t prev = last_on_proc[proc_[idx]];
    if (prev == kNone) {
      // Processor 0 runs the root from t = 0; every other processor is
      // idle until something reaches it.
      chain.bucket = proc_[idx] == 0
                         ? classify::dst_bucket(dst_kind, dst_arg0_pos)
                         : CycleBucket::kIdle;
    } else {
      chain.src = prev;
      chain.bucket = classify::chain_bucket(
          static_cast<EventKind>(kindbits_[prev] & 0x7F), dst_kind,
          dst_arg0_pos);
    }
    last_on_proc[proc_[idx]] = idx;
    const std::uint64_t par = parent_[idx];
    // Skipped when the edge would be negative (arrivals are stamped with
    // delivery time).
    if (par != kNoParent && time_[par] <= time_[idx]) {
      causal.src = par;
      causal.bucket = classify::causal_bucket(
          static_cast<EventKind>(kindbits_[par] & 0x7F), dst_kind,
          dst_arg0_pos);
      causal.valid = true;
    }

    Cycles best = kInf;
    std::uint64_t best_pred = kFromSource;
    CycleBucket best_bucket = CycleBucket::kCompute;
    auto consider = [&](const Cand& c) {
      if (!c.valid) return;
      const Cycles ts = c.src == kFromSource ? 0 : time_[c.src];
      const Cycles base = c.src == kFromSource ? 0 : cost[c.src];
      const Cycles add =
          c.bucket == CycleBucket::kIdle ? time_[idx] - ts : 0;
      const Cycles cand = base + add;
      if (cand < best) {
        best = cand;
        best_pred = c.src;
        best_bucket = c.bucket;
      }
    };
    const bool chain_first = [&] {
      if (!causal.valid) return true;             // order irrelevant
      if (chain.src == kFromSource) return true;  // SOURCE relaxes first
      if (chain.src == causal.src) return true;   // chain edge pushed first
      if (time_[chain.src] != time_[causal.src]) {
        return time_[chain.src] < time_[causal.src];
      }
      return chain.src < causal.src;
    }();
    if (chain_first) {
      consider(chain);
      consider(causal);
    } else {
      consider(causal);
      consider(chain);
    }
    cost[idx] = best;
    pred[idx] = best_pred;
    bucket[idx] = static_cast<std::uint8_t>(best_bucket);
  }

  // Close the DP at SINK: candidates are the per-processor last events in
  // the same (time, id) relaxation order; when nothing was traced the
  // whole run is one SOURCE -> SINK idle edge.
  std::vector<std::uint64_t> lasts;
  for (ProcId p = 0; p < nprocs_; ++p) {
    if (last_on_proc[p] != kNone) lasts.push_back(last_on_proc[p]);
  }
  std::sort(lasts.begin(), lasts.end(),
            [&](std::uint64_t a, std::uint64_t b) {
              if (time_[a] != time_[b]) return time_[a] < time_[b];
              return a < b;
            });
  Cycles sink_cost = kInf;
  std::uint64_t sink_pred = kFromSource;
  if (lasts.empty()) {
    sink_cost = makespan_;  // SOURCE -> SINK, idle, weight = makespan
  } else {
    for (const std::uint64_t src : lasts) {
      if (makespan_ < time_[src]) continue;  // negative edge: skipped
      const Cycles cand = cost[src] + (makespan_ - time_[src]);
      if (cand < sink_cost) {
        sink_cost = cand;
        sink_pred = src;
      }
    }
    if (sink_cost == kInf) return;  // every SINK edge would be negative
  }

  // Walk SINK -> SOURCE accumulating attribution; edge weights are tight,
  // so each is just the time gap to the predecessor. In diff mode the same
  // walk charges each edge's cycles to the profile's site / page / edge
  // partitions (zero-weight edges skipped: they cannot carry a delta).
  const auto src_kind_of = [&](std::uint64_t src) {
    return src == kFromSource
               ? kSourceNode
               : static_cast<std::uint8_t>(kindbits_[src] & 0x7F);
  };
  // The walk meets edges in SINK -> SOURCE order, so each new edge comes
  // before every kept one on the path and ranks ahead of equal weights.
  std::vector<HeavyEdge>& heavy = path->heaviest;
  const auto keep_if_heavy = [&](const HeavyEdge& e) {
    if (heavy.size() == kHeaviestEdges && e.weight < heavy.back().weight) {
      return;
    }
    heavy.insert(std::find_if(heavy.begin(), heavy.end(),
                              [&](const HeavyEdge& k) {
                                return k.weight <= e.weight;
                              }),
                 e);
    if (heavy.size() > kHeaviestEdges) heavy.pop_back();
  };
  const Cycles sink_w =
      makespan_ - (sink_pred == kFromSource ? 0 : time_[sink_pred]);
  path->attribution[static_cast<std::size_t>(CycleBucket::kIdle)] += sink_w;
  path->total_cycles += sink_w;
  ++path->edges;
  keep_if_heavy(
      {sink_w, CycleBucket::kIdle, src_kind_of(sink_pred), kSinkNode, 0, 0});
  if (profile != nullptr && sink_w > 0) {
    EdgeKey key;
    key.src_kind = src_kind_of(sink_pred);
    key.dst_kind = EdgeKey::kSinkKind;
    key.bucket = static_cast<std::uint8_t>(CycleBucket::kIdle);
    key.site = trace::kNoSite;
    profile->site_cycles[trace::kNoSite] += sink_w;
    profile->page_cycles[classify::kNoPage] += sink_w;
    profile->edge_cycles[key] += sink_w;
  }
  std::uint64_t cur = sink_pred;
  while (cur != kFromSource) {
    const std::uint64_t p = pred[cur];
    const Cycles ts = p == kFromSource ? 0 : time_[p];
    const Cycles w = time_[cur] - ts;
    path->attribution[bucket[cur]] += w;
    path->total_cycles += w;
    ++path->edges;
    keep_if_heavy({w, static_cast<CycleBucket>(bucket[cur]), src_kind_of(p),
                   static_cast<std::uint8_t>(kindbits_[cur] & 0x7F),
                   proc_[cur], time_[cur]});
    if (profile != nullptr && w > 0) {
      EdgeKey key;
      key.src_kind = src_kind_of(p);
      key.dst_kind = static_cast<std::uint8_t>(kindbits_[cur] & 0x7F);
      key.bucket = bucket[cur];
      key.site = site_[cur];
      profile->site_cycles[site_[cur]] += w;
      profile->page_cycles[page_[cur]] += w;
      profile->edge_cycles[key] += w;
    }
    cur = p;
  }
}

bool StreamingRunAnalyzer::finish(RunReport* out, std::string* err) {
  return finish_impl(out, nullptr, err);
}

bool StreamingRunAnalyzer::finish_diff(RunReport* out, DiffProfile* profile,
                                       std::string* err) {
  *profile = DiffProfile{};
  if (!diff_) {
    if (err != nullptr) {
      *err = "finish_diff requires enable_diff_profile() before add()";
    }
    return false;
  }
  if (!finish_impl(out, profile, err)) return false;
  profile->label = label_;
  profile->nprocs = nprocs_;
  profile->makespan = makespan_;
  profile->events = count_;
  profile->truncated = run_truncated_;
  profile->buckets = out->path.attribution;
  profile->chain_counts = chain_counts_;
  profile->chains = chains_;
  profile->retries_by_class = faults_.retransmits_by_class;
  return true;
}

bool StreamingRunAnalyzer::finish_impl(RunReport* out, DiffProfile* profile,
                                       std::string* err) {
  if (err_.empty() && count_ != expected_events_) {
    set_error("run event stream ended at " + std::to_string(count_) + " of " +
              std::to_string(expected_events_) + " events");
  }
  if (!err_.empty()) {
    if (err != nullptr) *err = err_;
    return false;
  }
  RunReport rep;
  extract_critical_path(&rep.path, profile);

  // --- rank sites and pages ----------------------------------------------
  for (const auto& [site, s] : sites_) rep.hot_sites.push_back(s);
  std::stable_sort(rep.hot_sites.begin(), rep.hot_sites.end(),
                   [](const SiteStats& a, const SiteStats& b) {
                     return a.departs > b.departs;
                   });
  if (rep.hot_sites.size() > top_n_) rep.hot_sites.resize(top_n_);

  rep.pages_tracked = pages_.size();
  for (auto& [page, a] : pages_) {
    a.stats.sharers = static_cast<std::uint32_t>(a.sharers.size());
    a.stats.false_sharing_suspect =
        a.stats.ping_pongs > 0 && a.stats.sharers >= 2;
    rep.ping_pong_total += a.stats.ping_pongs;
    rep.hot_pages.push_back(a.stats);
  }
  std::stable_sort(rep.hot_pages.begin(), rep.hot_pages.end(),
                   [](const PageStats& a, const PageStats& b) {
                     return a.heat > b.heat;
                   });
  if (rep.hot_pages.size() > top_n_) rep.hot_pages.resize(top_n_);

  rep.faults = faults_;
  *out = std::move(rep);
  return true;
}

bool analyze_trace_file(const std::string& path, std::size_t top_n,
                        TraceFile* file, std::vector<RunReport>* reports,
                        std::vector<DiffProfile>* profiles, std::string* err) {
  TraceStream ts;
  if (!ts.open(path, err)) return false;
  file->version = ts.version();
  std::vector<TraceEvent> batch;
  constexpr std::size_t kBatch = 1 << 16;
  TraceRun run;
  while (ts.next_run(&run, err)) {
    StreamingRunAnalyzer an(run, top_n);
    if (profiles != nullptr) an.enable_diff_profile();
    while (ts.next_events(&batch, kBatch, err)) {
      for (const TraceEvent& e : batch) {
        if (!an.add(e)) break;
      }
      if (!an.error().empty()) break;
    }
    if (!err->empty()) return false;
    RunReport rep;
    DiffProfile profile;
    const bool ok = profiles != nullptr ? an.finish_diff(&rep, &profile, err)
                                        : an.finish(&rep, err);
    if (!ok) {
      *err = path + ": run '" + run.label + "': " + *err;
      return false;
    }
    reports->push_back(std::move(rep));
    if (profiles != nullptr) profiles->push_back(std::move(profile));
    file->runs.push_back(run);
  }
  return err->empty();
}

}  // namespace olden::analyze
