// Health: simulates the Columbian health care system (Table 1, [29]).
//
// A four-way tree of villages; each village hosts a hospital with waiting,
// assessment and treatment lists of patients. Per timestep the tree is
// traversed; patients are generated at leaf villages, assessed, and either
// treated locally or passed up to the parent hospital — so patient records
// cross processor boundaries when subtree roots change owners.
//
// Heuristic behaviour (§5): the four-way recursion combines to
// 1-(1-.7)^4 = 99.2% — migrate the tree traversal; the patient-list walks
// are single-update 70% loops — cache the list items. "The heuristic,
// according to its design, chooses migration for the tree traversal, and
// caching to access remote items in the lists." Since fewer than ~2% of
// patients arrive from a remote processor, the local-knowledge coherence
// scheme wins despite its coarse invalidation (Appendix A).
//
// All simulation randomness is integer LCG state stored in the villages,
// so the checksum is exact across machine sizes and schemes.
#include <vector>

#include "olden/bench/benchmark.hpp"
#include "olden/runtime/api.hpp"

namespace olden::bench {
namespace {

struct SimParams {
  int levels = 6;  // (4^6 - 1) / 3 = 1365 villages
  int steps = 60;
};

struct Patient {
  std::int32_t id;
  std::int32_t ticks;        ///< time spent in the current list
  std::int32_t hops;         ///< hospitals visited
  std::int64_t total_time;   ///< lifetime so far
};

struct Cell {
  GPtr<Patient> pat;
  GPtr<Cell> next;
};

struct Village {
  GPtr<Village> child[4];
  std::int32_t level = 0;     ///< leaf = 0
  std::int32_t vid = 0;
  std::uint32_t seed = 0;     ///< per-village LCG state
  std::int32_t personnel = 0; ///< free treatment slots
  GPtr<Cell> waiting;
  GPtr<Cell> assess;
  GPtr<Cell> inside;
  std::int64_t treated = 0;
  std::int64_t wait_total = 0;
};

enum Site : SiteId {
  kChild,       // v->child[i] (tree traversal: migrate)
  kVillageFld,  // v's scalar fields (same variable: migrate class)
  kListHead,    // v->waiting / assess / inside heads
  kCellNext,    // c = c->next (list walk: cache)
  kCellPat,     // c->pat
  kPatFld,      // p-> fields  (the remote cacheable reads)
  kInit,        // builder stores
  kNumSites
};

constexpr Cycles kWorkPerVillage = 400;
constexpr Cycles kWorkPerPatient = 90;
constexpr std::int32_t kAssessTicks = 3;
constexpr std::int32_t kTreatTicks = 4;

std::uint32_t lcg_next(std::uint32_t& s) {
  s = s * 1664525u + 1013904223u;
  return s;
}

// ---------------------------------------------------------------------------
// Simulated implementation
// ---------------------------------------------------------------------------

Task<GPtr<Village>> build(Machine& m, int level, std::int32_t& next_id,
                          ProcId lo, ProcId hi) {
  auto v = m.alloc<Village>(lo);
  const std::int32_t vid = next_id++;
  co_await wr(v, &Village::level, std::int32_t{level}, kInit);
  co_await wr(v, &Village::vid, vid, kInit);
  co_await wr(v, &Village::seed,
              static_cast<std::uint32_t>(vid) * 2654435761u + 12345u, kInit);
  co_await wr(v, &Village::personnel, std::int32_t{level == 0 ? 2 : 4},
              kInit);
  if (level > 0) {
    Village tmp{};  // member_offset needs a live member pointer per slot
    for (int i = 0; i < 4; ++i) {
      const ProcId span = static_cast<ProcId>(hi - lo);
      const ProcId clo = lo + static_cast<ProcId>(span * i / 4);
      const ProcId chi =
          i == 3 ? hi : lo + static_cast<ProcId>(span * (i + 1) / 4);
      auto c = co_await build(m, level - 1, next_id, clo,
                              chi > clo ? chi : clo + 1);
      // child[i]: write via raw element address (arrays inside structs).
      const auto base = v.addr().plus(
          static_cast<std::uint32_t>(reinterpret_cast<const char*>(&tmp.child[i]) -
                                     reinterpret_cast<const char*>(&tmp)));
      co_await detail::WriteAwaiter<GPtr<Village>>{base, kInit, c};
    }
  }
  co_return v;
}

detail::ReadAwaiter<GPtr<Village>> rd_child(GPtr<Village> v, int i,
                                            SiteId site) {
  static const Village probe{};
  const auto off = static_cast<std::uint32_t>(
      reinterpret_cast<const char*>(&probe.child[i]) -
      reinterpret_cast<const char*>(&probe));
  return {v.addr().plus(off), site};
}

/// Pop every cell of a list; returns the head and clears the village's
/// list (the caller re-threads cells as it processes them).
Task<GPtr<Cell>> take_list(Machine& m, GPtr<Village> v,
                           GPtr<Cell> Village::* head) {
  auto h = co_await rd(v, head, kListHead);
  co_await wr(v, head, GPtr<Cell>{}, kListHead);
  (void)m;
  co_return h;
}

Task<int> push_list(Machine& m, GPtr<Village> v, GPtr<Cell> Village::* head,
                    GPtr<Cell> cell) {
  auto h = co_await rd(v, head, kListHead);
  co_await wr(cell, &Cell::next, h, kCellNext);
  co_await wr(v, head, cell, kListHead);
  (void)m;
  co_return 0;
}

/// One village, one timestep. Returns a list of cells to pass up.
Task<GPtr<Cell>> sim(Machine& m, GPtr<Village> v) {
  if (!v) co_return GPtr<Cell>{};
  const auto level = co_await rd(v, &Village::level, kVillageFld);

  // Children first, in parallel.
  std::vector<Future<GPtr<Cell>>> fs;
  if (level > 0) {
    for (int i = 0; i < 4; ++i) {
      const auto c = co_await rd_child(v, i, kChild);
      if (c) fs.push_back(co_await futurecall(sim(m, c)));
    }
  }
  m.work(kWorkPerVillage);

  // Treatment: advance patients inside the hospital; discharge when done.
  {
    GPtr<Cell> c = co_await take_list(m, v, &Village::inside);
    while (c) {
      const auto next = co_await rd(c, &Cell::next, kCellNext);
      const auto p = co_await rd(c, &Cell::pat, kCellPat);
      auto ticks = co_await rd(p, &Patient::ticks, kPatFld);
      auto total = co_await rd(p, &Patient::total_time, kPatFld);
      co_await wr(p, &Patient::total_time, total + 1, kPatFld);
      m.work(kWorkPerPatient);
      if (++ticks >= kTreatTicks) {
        // Discharged.
        auto treated = co_await rd(v, &Village::treated, kVillageFld);
        co_await wr(v, &Village::treated, treated + 1, kVillageFld);
        auto wt = co_await rd(v, &Village::wait_total, kVillageFld);
        co_await wr(v, &Village::wait_total,
                    wt + co_await rd(p, &Patient::total_time, kPatFld),
                    kVillageFld);
        auto pers = co_await rd(v, &Village::personnel, kVillageFld);
        co_await wr(v, &Village::personnel, pers + 1, kVillageFld);
      } else {
        co_await wr(p, &Patient::ticks, ticks, kPatFld);
        co_await push_list(m, v, &Village::inside, c);
      }
      c = next;
    }
  }

  // Assessment: after kAssessTicks, 25% of patients go up and give back
  // their treatment slot; the rest are treated here.
  GPtr<Cell> up;
  {
    GPtr<Cell> c = co_await take_list(m, v, &Village::assess);
    while (c) {
      const auto next = co_await rd(c, &Cell::next, kCellNext);
      const auto p = co_await rd(c, &Cell::pat, kCellPat);
      auto ticks = co_await rd(p, &Patient::ticks, kPatFld);
      auto total = co_await rd(p, &Patient::total_time, kPatFld);
      co_await wr(p, &Patient::total_time, total + 1, kPatFld);
      m.work(kWorkPerPatient);
      if (++ticks >= kAssessTicks) {
        auto seed = co_await rd(v, &Village::seed, kVillageFld);
        const bool refer = (lcg_next(seed) >> 16) % 4 == 0;
        co_await wr(v, &Village::seed, seed, kVillageFld);
        co_await wr(p, &Patient::ticks, std::int32_t{0}, kPatFld);
        if (refer) {
          auto hops = co_await rd(p, &Patient::hops, kPatFld);
          co_await wr(p, &Patient::hops, hops + 1, kPatFld);
          co_await wr(c, &Cell::next, up, kCellNext);
          up = c;
          auto pers = co_await rd(v, &Village::personnel, kVillageFld);
          co_await wr(v, &Village::personnel, pers + 1, kVillageFld);
        } else {
          co_await push_list(m, v, &Village::inside, c);
        }
      } else {
        co_await wr(p, &Patient::ticks, ticks, kPatFld);
        co_await push_list(m, v, &Village::assess, c);
      }
      c = next;
    }
  }

  // Waiting room -> assessment while personnel are free.
  {
    GPtr<Cell> c = co_await take_list(m, v, &Village::waiting);
    while (c) {
      const auto next = co_await rd(c, &Cell::next, kCellNext);
      const auto p = co_await rd(c, &Cell::pat, kCellPat);
      auto pers = co_await rd(v, &Village::personnel, kVillageFld);
      // Waiting patients are examined but their records are not touched —
      // most shared patient data is read-only across migrations, which is
      // what the global-knowledge coherence scheme exploits (Table 3).
      const auto total = co_await rd(p, &Patient::total_time, kPatFld);
      (void)total;
      m.work(kWorkPerPatient);
      if (pers > 0) {
        co_await wr(v, &Village::personnel, pers - 1, kVillageFld);
        co_await wr(p, &Patient::ticks, std::int32_t{0}, kPatFld);
        co_await push_list(m, v, &Village::assess, c);
      } else {
        co_await push_list(m, v, &Village::waiting, c);
      }
      c = next;
    }
  }

  // Leaf villages generate new patients with probability 1/3.
  if (level == 0) {
    auto seed = co_await rd(v, &Village::seed, kVillageFld);
    const bool born = (lcg_next(seed) >> 16) % 3 == 0;
    co_await wr(v, &Village::seed, seed, kVillageFld);
    if (born) {
      const auto vid = co_await rd(v, &Village::vid, kVillageFld);
      auto p = m.alloc<Patient>(v.proc());
      co_await wr(p, &Patient::id, vid, kInit);
      co_await wr(p, &Patient::ticks, std::int32_t{0}, kInit);
      co_await wr(p, &Patient::hops, std::int32_t{0}, kInit);
      co_await wr(p, &Patient::total_time, std::int64_t{0}, kInit);
      auto cell = m.alloc<Cell>(v.proc());
      co_await wr(cell, &Cell::pat, p, kInit);
      co_await push_list(m, v, &Village::waiting, cell);
    }
  }

  // Collect patients referred up by the children; their records live on
  // the children's processors — these are the cached remote reads.
  for (auto& f : fs) {
    GPtr<Cell> c = co_await touch(f);
    while (c) {
      const auto next = co_await rd(c, &Cell::next, kCellNext);
      const auto p = co_await rd(c, &Cell::pat, kCellPat);
      const auto hops = co_await rd(p, &Patient::hops, kPatFld);
      (void)hops;
      m.work(kWorkPerPatient);
      // Re-cell on this village's processor; the patient record stays put.
      auto nc = m.alloc<Cell>(v.proc());
      co_await wr(nc, &Cell::pat, p, kInit);
      co_await push_list(m, v, &Village::waiting, nc);
      c = next;
    }
  }
  co_return up;
}

struct Totals {
  std::int64_t treated = 0;
  std::int64_t wait = 0;
  std::int64_t backlog = 0;
};

Task<Totals> collect(Machine& m, GPtr<Village> v) {
  Totals t;
  if (!v) co_return t;
  const auto level = co_await rd(v, &Village::level, kVillageFld);
  if (level > 0) {
    for (int i = 0; i < 4; ++i) {
      const auto c = co_await rd_child(v, i, kChild);
      const Totals ct = co_await collect(m, c);
      t.treated += ct.treated;
      t.wait += ct.wait;
      t.backlog += ct.backlog;
    }
  }
  t.treated += co_await rd(v, &Village::treated, kVillageFld);
  t.wait += co_await rd(v, &Village::wait_total, kVillageFld);
  for (auto head : {&Village::waiting, &Village::assess, &Village::inside}) {
    GPtr<Cell> c = co_await rd(v, head, kListHead);
    while (c) {
      ++t.backlog;
      c = co_await rd(c, &Cell::next, kCellNext);
    }
  }
  co_return t;
}

struct RootOut {
  Totals totals;
  Cycles build_end = 0;
};

Task<RootOut> root(Machine& m, const SimParams& sp) {
  RootOut out;
  std::int32_t next_id = 0;
  auto top = co_await build(m, sp.levels - 1, next_id, 0, m.nprocs());
  out.build_end = m.now_max();
  for (int s = 0; s < sp.steps; ++s) {
    GPtr<Cell> up = co_await sim(m, top);
    // The root hospital admits everything referred to it.
    while (up) {
      const auto next = co_await rd(up, &Cell::next, kCellNext);
      co_await push_list(m, top, &Village::waiting, up);
      up = next;
    }
  }
  out.totals = co_await collect(m, top);
  co_return out;
}

// ---------------------------------------------------------------------------
// Host reference: the same simulation on plain data structures.
// ---------------------------------------------------------------------------

struct RefVillage {
  std::vector<int> child;
  int level = 0;
  int vid = 0;
  std::uint32_t seed = 0;
  int personnel = 0;
  std::vector<int> waiting, assess, inside;  // patient indices
  std::int64_t treated = 0, wait_total = 0;
};

struct RefPatient {
  int ticks = 0, hops = 0;
  std::int64_t total = 0;
};

struct RefSim {
  std::vector<RefVillage> vs;
  std::vector<RefPatient> ps;

  int build(int level, int& next_id) {
    const int idx = static_cast<int>(vs.size());
    vs.emplace_back();
    const int vid = next_id++;
    vs[idx].level = level;
    vs[idx].vid = vid;
    vs[idx].seed = static_cast<std::uint32_t>(vid) * 2654435761u + 12345u;
    vs[idx].personnel = level == 0 ? 2 : 4;
    if (level > 0) {
      for (int i = 0; i < 4; ++i) {
        const int c = build(level - 1, next_id);
        vs[idx].child.push_back(c);
      }
    }
    return idx;
  }

  std::vector<int> sim(int vi) {
    RefVillage& v = vs[vi];
    std::vector<std::vector<int>> child_up;
    if (v.level > 0) {
      for (int c : v.child) child_up.push_back(sim(c));
    }
    // inside
    {
      auto list = std::move(v.inside);
      v.inside.clear();
      // The simulated version walks a LIFO-threaded list: replicate its
      // order exactly (push_list prepends, take walks head to tail).
      for (int pi : list) {
        RefPatient& p = ps[static_cast<std::size_t>(pi)];
        p.total += 1;
        if (++p.ticks >= kTreatTicks) {
          v.treated += 1;
          v.wait_total += p.total;
          v.personnel += 1;
        } else {
          v.inside.insert(v.inside.begin(), pi);
        }
      }
    }
    std::vector<int> up;
    {
      auto list = std::move(v.assess);
      v.assess.clear();
      for (int pi : list) {
        RefPatient& p = ps[static_cast<std::size_t>(pi)];
        p.total += 1;
        if (++p.ticks >= kAssessTicks) {
          const bool refer = (lcg_next(v.seed) >> 16) % 4 == 0;
          p.ticks = 0;
          if (refer) {
            p.hops += 1;
            up.insert(up.begin(), pi);
            v.personnel += 1;
          } else {
            v.inside.insert(v.inside.begin(), pi);
          }
        } else {
          v.assess.insert(v.assess.begin(), pi);
        }
      }
    }
    {
      auto list = std::move(v.waiting);
      v.waiting.clear();
      for (int pi : list) {
        RefPatient& p = ps[static_cast<std::size_t>(pi)];
        (void)p;
        if (v.personnel > 0) {
          v.personnel -= 1;
          p.ticks = 0;
          v.assess.insert(v.assess.begin(), pi);
        } else {
          v.waiting.insert(v.waiting.begin(), pi);
        }
      }
    }
    if (v.level == 0) {
      const bool born = (lcg_next(v.seed) >> 16) % 3 == 0;
      if (born) {
        const int pi = static_cast<int>(ps.size());
        ps.emplace_back();
        v.waiting.insert(v.waiting.begin(), pi);
      }
    }
    for (auto& cu : child_up) {
      for (int pi : cu) v.waiting.insert(v.waiting.begin(), pi);
    }
    return up;
  }
};

// ---------------------------------------------------------------------------

SimParams params_for(const BenchConfig& cfg) {
  SimParams sp;
  if (cfg.tiny) {
    sp.levels = 4;
    sp.steps = 15;
    return sp;
  }
  if (!cfg.paper_size) sp.steps = 60;
  else sp.steps = 120;
  return sp;
}

class Health final : public Benchmark {
 public:
  std::string name() const override { return "Health"; }
  std::string description() const override {
    return "Simulates the Columbian health care system";
  }
  std::string problem_size(bool) const override { return "1365 villages"; }
  bool whole_program_timing() const override { return true; }
  std::string heuristic_choice() const override { return "M+C"; }
  std::size_t num_sites() const override { return kNumSites; }

  ir::Program ir_program() const override {
    using namespace ir;
    Program p;
    p.structs = {
        {"village", {{"child", std::nullopt}, {"waiting", std::nullopt},
                     {"assess", std::nullopt}, {"inside", std::nullopt}}},
        {"cell", {{"next", std::nullopt}, {"pat", std::nullopt}}},
    };
    Procedure s;
    s.name = "sim";
    s.params = {"v"};
    s.rec_loop_id = 0;
    If br;
    for (int i = 0; i < 4; ++i) {
      Call c;
      c.callee = "sim";
      c.args = {{"v", {{"village", "child"}}}};
      c.future = true;
      br.else_branch.push_back(c);
    }
    br.else_branch.push_back(deref("v", kChild));
    br.else_branch.push_back(deref("v", kVillageFld));
    br.else_branch.push_back(deref("v", kListHead));
    // Patient-list walks: three structurally identical loops; one stands
    // for all (same sites).
    While lw;
    lw.loop_id = 1;
    lw.body.push_back(assign("pp", "c", {{"cell", "pat"}}, SiteId{kCellPat}));
    lw.body.push_back(deref("pp", kPatFld));
    lw.body.push_back(assign("c", "c", {{"cell", "next"}}, SiteId{kCellNext}));
    br.else_branch.push_back(std::move(lw));
    s.body.push_back(std::move(br));
    p.procs.push_back(std::move(s));
    return p;
  }

  std::vector<std::pair<SiteId, Mechanism>> site_overrides() const override {
    return {{kInit, Mechanism::kMigrate}};
  }

  BenchResult run(const BenchConfig& cfg) const override {
    const SimParams sp = params_for(cfg);
    BenchResult res;
    Machine m({.nprocs = cfg.nprocs,
               .scheme = cfg.scheme,
               .costs = {.sequential_baseline = cfg.sequential_baseline},
               .observer = cfg.observer,
               .faults = cfg.faults,
               .fault_seed = cfg.fault_seed});
    m.set_site_mechanisms(site_table(cfg, &res.heuristic_report));
    const RootOut out = run_program(m, root(m, sp));
    std::uint64_t cs = mix_checksum(0, static_cast<std::uint64_t>(out.totals.treated));
    cs = mix_checksum(cs, static_cast<std::uint64_t>(out.totals.wait));
    cs = mix_checksum(cs, static_cast<std::uint64_t>(out.totals.backlog));
    res.checksum = cs;
    res.build_cycles = out.build_end;
    res.total_cycles = m.makespan();
    res.kernel_cycles = res.total_cycles - res.build_cycles;
    res.stats = m.stats();
    return res;
  }

  std::uint64_t reference_checksum(const BenchConfig& cfg) const override {
    const SimParams sp = params_for(cfg);
    RefSim sim;
    int next_id = 0;
    const int top = sim.build(sp.levels - 1, next_id);
    for (int s = 0; s < sp.steps; ++s) {
      auto up = sim.sim(top);
      for (int pi : up) {
        sim.vs[static_cast<std::size_t>(top)].waiting.insert(
            sim.vs[static_cast<std::size_t>(top)].waiting.begin(), pi);
      }
    }
    std::int64_t treated = 0, wait = 0, backlog = 0;
    for (const RefVillage& v : sim.vs) {
      treated += v.treated;
      wait += v.wait_total;
      backlog += static_cast<std::int64_t>(v.waiting.size() +
                                           v.assess.size() + v.inside.size());
    }
    std::uint64_t cs = mix_checksum(0, static_cast<std::uint64_t>(treated));
    cs = mix_checksum(cs, static_cast<std::uint64_t>(wait));
    cs = mix_checksum(cs, static_cast<std::uint64_t>(backlog));
    return cs;
  }
};

}  // namespace

const Benchmark& health_benchmark() {
  static const Health b;
  return b;
}

}  // namespace olden::bench
