// TSP: an estimate of the best hamiltonian circuit (Table 1, [24]).
//
// Karp-style divide and conquer: cities live in a balanced binary space
// partition tree (median splits, alternating axes); small subtrees are
// toured trivially; the merge phase stitches two subtours (and the
// subtree root) into one cycle. Unlike TreeAdd/Power the merge is
// non-trivial: it walks sequentially through whole subtours, which costs
// a migration per participating processor — exactly why the paper reports
// 15.8x at 32 rather than TreeAdd's 23x, and why caching would *increase*
// communication ("a large amount of data is accessed on each processor
// during the subtree walk").
//
// TSP is one of the three benchmarks with explicit path-affinity hints:
// tree links and tour links are hinted high (subtrees are co-located), so
// every dereference migrates: the "M" row.
#include <algorithm>
#include <cmath>
#include <vector>

#include "olden/bench/benchmark.hpp"
#include "olden/runtime/api.hpp"
#include "olden/support/rng.hpp"

namespace olden::bench {
namespace {

/// Merge walks are cheap pointer chases; the conquer's nearest-insertion
/// evaluations carry the real arithmetic — that balance (quadratic leaves,
/// linear merges) is what lets TSP reach the paper's ~16x despite its
/// sequential merges.
constexpr Cycles kWorkPerMergeStep = 12;
constexpr Cycles kWorkPerInsertEval = 40;
constexpr int kConquerLimit = 64;

struct City {
  double x, y;
  GPtr<City> left, right;  // space-partition tree
  GPtr<City> next, prev;   // tour cycle
};

enum Site : SiteId {
  kLeft,
  kRight,
  kCoord,    // x / y reads during merge walks
  kNext,     // tour walk
  kPrev,
  kLinkNext, // tour link writes
  kLinkPrev,
  kInit,
  kNumSites
};

/// Host-side input: points plus the balanced KD ordering. points[perm[m]]
/// is the root of [lo,hi), built by recursive median splits.
struct Input {
  struct Pt {
    double x, y;
  };
  std::vector<Pt> pts;
  std::vector<int> perm;

  Input(int n, std::uint64_t seed) {
    Rng rng(seed);
    pts.resize(static_cast<std::size_t>(n));
    for (auto& p : pts) {
      p.x = rng.next_double();
      p.y = rng.next_double();
    }
    perm.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
    sort_range(0, n, /*axis=*/0);
  }

  void sort_range(int lo, int hi, int axis) {
    if (hi - lo <= 1) return;
    auto cmp = [&](int a, int b) {
      const Pt& pa = pts[static_cast<std::size_t>(a)];
      const Pt& pb = pts[static_cast<std::size_t>(b)];
      const double ka = axis == 0 ? pa.x : pa.y;
      const double kb = axis == 0 ? pb.x : pb.y;
      if (ka != kb) return ka < kb;
      return a < b;
    };
    const int mid = lo + (hi - lo) / 2;
    std::nth_element(perm.begin() + lo, perm.begin() + mid, perm.begin() + hi,
                     cmp);
    sort_range(lo, mid, 1 - axis);
    sort_range(mid + 1, hi, 1 - axis);
  }
};

double sq_dist(double ax, double ay, double bx, double by) {
  const double dx = ax - bx;
  const double dy = ay - by;
  return dx * dx + dy * dy;
}

double dist(double ax, double ay, double bx, double by) {
  return std::sqrt(sq_dist(ax, ay, bx, by));
}

/// Nearest-insertion tour over the given coordinates: the O(m^2) conquer
/// step that makes leaf regions the dominant (and perfectly parallel)
/// work, as in Karp's algorithm. Returns the visiting order.
std::vector<int> insertion_order(const std::vector<double>& xs,
                                 const std::vector<double>& ys,
                                 std::uint64_t* evals) {
  const int m = static_cast<int>(xs.size());
  std::vector<int> cycle;
  cycle.reserve(static_cast<std::size_t>(m));
  cycle.push_back(0);
  if (m > 1) cycle.push_back(1);
  for (int k = 2; k < m; ++k) {
    double best = 1e30;
    std::size_t best_pos = 0;
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      const int a = cycle[i];
      const int b = cycle[(i + 1) % cycle.size()];
      const double delta = dist(xs[a], ys[a], xs[k], ys[k]) +
                           dist(xs[k], ys[k], xs[b], ys[b]) -
                           dist(xs[a], ys[a], xs[b], ys[b]);
      if (evals != nullptr) ++*evals;
      if (delta < best) {
        best = delta;
        best_pos = i;
      }
    }
    cycle.insert(cycle.begin() + static_cast<std::ptrdiff_t>(best_pos) + 1, k);
  }
  return cycle;
}

// ---------------------------------------------------------------------------
// Simulated implementation
// ---------------------------------------------------------------------------

Task<GPtr<City>> build(Machine& m, const Input& in, int lo, int hi, ProcId plo,
                       ProcId phi) {
  if (lo >= hi) co_return GPtr<City>{};
  const int mid = lo + (hi - lo) / 2;
  const auto& pt = in.pts[static_cast<std::size_t>(
      in.perm[static_cast<std::size_t>(mid)])];
  auto c = m.alloc<City>(plo);
  co_await wr(c, &City::x, pt.x, kInit);
  co_await wr(c, &City::y, pt.y, kInit);
  const auto [lr, rr] = split_procs(plo, phi);
  GPtr<City> l, r;
  if (mid > lo) {
    auto fl = co_await futurecall(build(m, in, lo, mid, lr.lo, lr.hi));
    r = co_await build(m, in, mid + 1, hi, rr.lo, rr.hi);
    l = co_await touch(fl);
  } else {
    r = co_await build(m, in, mid + 1, hi, rr.lo, rr.hi);
  }
  co_await wr(c, &City::left, l, kInit);
  co_await wr(c, &City::right, r, kInit);
  co_return c;
}

/// Collect a small subtree's cities (inorder) into `out`.
Task<int> gather(Machine& m, GPtr<City> t, std::vector<GPtr<City>>& out) {
  if (!t) co_return 0;
  const auto l = co_await rd(t, &City::left, kLeft);
  const auto r = co_await rd(t, &City::right, kRight);
  co_await gather(m, l, out);
  out.push_back(t);
  co_await gather(m, r, out);
  co_return 0;
}

Task<int> link(Machine& m, GPtr<City> a, GPtr<City> b) {
  co_await wr(a, &City::next, b, kLinkNext);
  co_await wr(b, &City::prev, a, kLinkPrev);
  (void)m;
  co_return 0;
}

/// Conquer: nearest-insertion tour of a <=kConquerLimit-city subtree —
/// O(m^2) local work once the thread has migrated to the subtree.
Task<GPtr<City>> conquer(Machine& m, GPtr<City> t) {
  std::vector<GPtr<City>> cs;
  co_await gather(m, t, cs);
  std::vector<double> xs(cs.size()), ys(cs.size());
  for (std::size_t i = 0; i < cs.size(); ++i) {
    xs[i] = co_await rd(cs[i], &City::x, kCoord);
    ys[i] = co_await rd(cs[i], &City::y, kCoord);
  }
  std::uint64_t evals = 0;
  const std::vector<int> cycle = insertion_order(xs, ys, &evals);
  m.work(evals * kWorkPerInsertEval);
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    co_await link(m, cs[static_cast<std::size_t>(cycle[i])],
                  cs[static_cast<std::size_t>(cycle[(i + 1) % cycle.size()])]);
    m.work(kWorkPerMergeStep);
  }
  co_return cs.front();
}

/// Walk tour `a` once and return the city nearest to (x, y).
Task<GPtr<City>> nearest_on_tour(Machine& m, GPtr<City> a, double x,
                                 double y) {
  GPtr<City> best = a;
  double best_d = 1e30;
  GPtr<City> p = a;
  do {
    const double px = co_await rd(p, &City::x, kCoord);
    const double py = co_await rd(p, &City::y, kCoord);
    const double d = sq_dist(px, py, x, y);
    if (d < best_d) {
      best_d = d;
      best = p;
    }
    m.work(kWorkPerMergeStep);
    p = co_await rd(p, &City::next, kNext);
  } while (p != a);
  co_return best;
}

/// Centroid of a tour (one sequential walk).
struct Centroid {
  double x = 0, y = 0;
};
Task<Centroid> centroid(Machine& m, GPtr<City> a) {
  Centroid c;
  int n = 0;
  GPtr<City> p = a;
  do {
    c.x += co_await rd(p, &City::x, kCoord);
    c.y += co_await rd(p, &City::y, kCoord);
    ++n;
    m.work(kWorkPerMergeStep / 2);
    p = co_await rd(p, &City::next, kNext);
  } while (p != a);
  c.x /= n;
  c.y /= n;
  co_return c;
}

/// Stitch tours A and B and splice city t in: find pa in A nearest to B's
/// centroid, pb in B nearest to pa, then rewire
///   pa -> t -> pb ... B-cycle ... -> succ_B(pb) continues as succ_A(pa).
Task<GPtr<City>> merge(Machine& m, GPtr<City> a, GPtr<City> b, GPtr<City> t) {
  const Centroid cb = co_await centroid(m, b);
  const GPtr<City> pa = co_await nearest_on_tour(m, a, cb.x, cb.y);
  const double pax = co_await rd(pa, &City::x, kCoord);
  const double pay = co_await rd(pa, &City::y, kCoord);
  const GPtr<City> pb = co_await nearest_on_tour(m, b, pax, pay);
  const GPtr<City> an = co_await rd(pa, &City::next, kNext);
  const GPtr<City> bn = co_await rd(pb, &City::next, kNext);
  co_await link(m, pa, t);
  co_await link(m, t, bn);
  co_await link(m, pb, an);
  co_return pa;
}

Task<GPtr<City>> tsp(Machine& m, GPtr<City> t, int sz) {
  if (sz <= kConquerLimit) co_return co_await conquer(m, t);
  const auto l = co_await rd(t, &City::left, kLeft);
  const auto r = co_await rd(t, &City::right, kRight);
  const int lsz = (sz - 1) / 2;
  const int rsz = sz - 1 - lsz;
  auto fl = co_await futurecall(tsp(m, l, lsz));
  const GPtr<City> rt = co_await tsp(m, r, rsz);
  const GPtr<City> lt = co_await touch(fl);
  co_return co_await merge(m, lt, rt, t);
}

Task<double> tour_length([[maybe_unused]] Machine& m, GPtr<City> a) {
  double len = 0;
  std::uint64_t n = 0;
  GPtr<City> p = a;
  do {
    const double px = co_await rd(p, &City::x, kCoord);
    const double py = co_await rd(p, &City::y, kCoord);
    const GPtr<City> q = co_await rd(p, &City::next, kNext);
    const double qx = co_await rd(q, &City::x, kCoord);
    const double qy = co_await rd(q, &City::y, kCoord);
    len += std::sqrt(sq_dist(px, py, qx, qy));
    ++n;
    p = q;
  } while (p != a);
  co_return len + static_cast<double>(n);  // n folded in: cycle must cover all
}

struct RootOut {
  double len = 0;
  Cycles build_end = 0;
};

Task<RootOut> root(Machine& m, const Input& in, int n) {
  RootOut out;
  auto t = co_await build(m, in, 0, n, 0, m.nprocs());
  out.build_end = m.now_max();
  auto tour = co_await tsp(m, t, n);
  out.len = co_await tour_length(m, tour);
  co_return out;
}

// ---------------------------------------------------------------------------
// Host reference: identical algorithm on plain structs.
// ---------------------------------------------------------------------------

struct RefCity {
  double x, y;
  int left = -1, right = -1, next = -1, prev = -1;
};

struct Ref {
  std::vector<RefCity> cs;

  int build(const Input& in, int lo, int hi) {
    if (lo >= hi) return -1;
    const int mid = lo + (hi - lo) / 2;
    const int idx = static_cast<int>(cs.size());
    cs.push_back({});
    const auto& pt = in.pts[static_cast<std::size_t>(
        in.perm[static_cast<std::size_t>(mid)])];
    cs[static_cast<std::size_t>(idx)].x = pt.x;
    cs[static_cast<std::size_t>(idx)].y = pt.y;
    // Allocation order must match the simulated build (future on the
    // left, right evaluated first in program order does not matter for
    // ids: the simulated build allocates this node, then left's subtree
    // via the futurecall body (which runs inline first), then right's).
    const int l = build(in, lo, mid);
    const int r = build(in, mid + 1, hi);
    cs[static_cast<std::size_t>(idx)].left = l;
    cs[static_cast<std::size_t>(idx)].right = r;
    return idx;
  }

  void gather(int t, std::vector<int>& out) {
    if (t < 0) return;
    gather(cs[static_cast<std::size_t>(t)].left, out);
    out.push_back(t);
    gather(cs[static_cast<std::size_t>(t)].right, out);
  }
  void link(int a, int b) {
    cs[static_cast<std::size_t>(a)].next = b;
    cs[static_cast<std::size_t>(b)].prev = a;
  }
  int conquer(int t) {
    std::vector<int> v;
    gather(t, v);
    std::vector<double> xs(v.size()), ys(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
      xs[i] = cs[static_cast<std::size_t>(v[i])].x;
      ys[i] = cs[static_cast<std::size_t>(v[i])].y;
    }
    const std::vector<int> cycle = insertion_order(xs, ys, nullptr);
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      link(v[static_cast<std::size_t>(cycle[i])],
           v[static_cast<std::size_t>(cycle[(i + 1) % cycle.size()])]);
    }
    return v.front();
  }
  int nearest(int a, double x, double y) {
    int best = a;
    double bd = 1e30;
    int p = a;
    do {
      const double d =
          sq_dist(cs[static_cast<std::size_t>(p)].x,
                  cs[static_cast<std::size_t>(p)].y, x, y);
      if (d < bd) {
        bd = d;
        best = p;
      }
      p = cs[static_cast<std::size_t>(p)].next;
    } while (p != a);
    return best;
  }
  int merge(int a, int b, int t) {
    double cx = 0, cy = 0;
    int n = 0, p = b;
    do {
      cx += cs[static_cast<std::size_t>(p)].x;
      cy += cs[static_cast<std::size_t>(p)].y;
      ++n;
      p = cs[static_cast<std::size_t>(p)].next;
    } while (p != b);
    cx /= n;
    cy /= n;
    const int pa = nearest(a, cx, cy);
    const int pb = nearest(b, cs[static_cast<std::size_t>(pa)].x,
                           cs[static_cast<std::size_t>(pa)].y);
    const int an = cs[static_cast<std::size_t>(pa)].next;
    const int bn = cs[static_cast<std::size_t>(pb)].next;
    link(pa, t);
    link(t, bn);
    link(pb, an);
    return pa;
  }
  int tsp(int t, int sz) {
    if (sz <= kConquerLimit) return conquer(t);
    const int l = cs[static_cast<std::size_t>(t)].left;
    const int r = cs[static_cast<std::size_t>(t)].right;
    const int lsz = (sz - 1) / 2;
    const int lt = tsp(l, lsz);
    const int rt = tsp(r, sz - 1 - lsz);
    return merge(lt, rt, t);
  }
  double length(int a) {
    double len = 0;
    std::uint64_t n = 0;
    int p = a;
    do {
      const int q = cs[static_cast<std::size_t>(p)].next;
      len += std::sqrt(sq_dist(cs[static_cast<std::size_t>(p)].x,
                               cs[static_cast<std::size_t>(p)].y,
                               cs[static_cast<std::size_t>(q)].x,
                               cs[static_cast<std::size_t>(q)].y));
      ++n;
      p = q;
    } while (p != a);
    return len + static_cast<double>(n);
  }
};

int cities_for(const BenchConfig& cfg) {
  if (cfg.tiny) return 512;
  return cfg.paper_size ? 32768 : 16384;
}

class Tsp final : public Benchmark {
 public:
  std::string name() const override { return "TSP"; }
  std::string description() const override {
    return "Computes an estimate of the best hamiltonian circuit";
  }
  std::string problem_size(bool paper) const override {
    return paper ? "32K cities" : "16K cities";
  }
  bool whole_program_timing() const override { return false; }
  std::string heuristic_choice() const override { return "M"; }
  std::size_t num_sites() const override { return kNumSites; }

  ir::Program ir_program() const override {
    using namespace ir;
    Program p;
    // Explicit hints (the paper names TSP among the three): subtrees and
    // subtours are co-located by construction.
    p.structs = {{"city",
                  {{"left", 0.95}, {"right", 0.95}, {"next", 0.95},
                   {"prev", 0.95}, {"x", std::nullopt}, {"y", std::nullopt}}}};

    Procedure walk;  // tour walks (centroid / nearest / length)
    walk.name = "tour_walk";
    walk.params = {"p"};
    While w;
    w.loop_id = 1;
    w.body.push_back(deref("p", kCoord));
    w.body.push_back(assign("p", "p", {{"city", "next"}}, SiteId{kNext}));
    walk.body.push_back(std::move(w));
    p.procs.push_back(std::move(walk));

    Procedure t;
    t.name = "tsp";
    t.params = {"t"};
    t.rec_loop_id = 0;
    If br;
    Call cl;
    cl.callee = "tsp";
    cl.args = {{"t", {{"city", "left"}}}};
    cl.future = true;
    Call cr;
    cr.callee = "tsp";
    cr.args = {{"t", {{"city", "right"}}}};
    br.else_branch.push_back(deref("t", kLeft));
    br.else_branch.push_back(deref("t", kRight));
    br.else_branch.push_back(cl);
    br.else_branch.push_back(cr);
    Call mw;
    mw.callee = "tour_walk";
    mw.args = {{"t", {{"city", "left"}}}};
    br.else_branch.push_back(mw);
    t.body.push_back(std::move(br));
    p.procs.push_back(std::move(t));
    return p;
  }

  std::vector<std::pair<SiteId, Mechanism>> site_overrides() const override {
    // Tour link writes happen at merge boundaries; the thread is already
    // at the data (hinted-high affinity), treat as the compiler treats
    // initializing stores.
    return {{kInit, Mechanism::kMigrate},
            {kLinkNext, Mechanism::kMigrate},
            {kLinkPrev, Mechanism::kMigrate},
            {kPrev, Mechanism::kMigrate}};
  }

  BenchResult run(const BenchConfig& cfg) const override {
    const int n = cities_for(cfg);
    const Input in(n, cfg.seed);
    BenchResult res;
    Machine m({.nprocs = cfg.nprocs,
               .scheme = cfg.scheme,
               .costs = {.sequential_baseline = cfg.sequential_baseline},
               .observer = cfg.observer,
               .faults = cfg.faults,
               .fault_seed = cfg.fault_seed});
    m.set_site_mechanisms(site_table(cfg, &res.heuristic_report));
    const RootOut out = run_program(m, root(m, in, n));
    res.checksum = quantize(out.len, 1e6);
    res.build_cycles = out.build_end;
    res.total_cycles = m.makespan();
    res.kernel_cycles = res.total_cycles - res.build_cycles;
    res.stats = m.stats();
    return res;
  }

  std::uint64_t reference_checksum(const BenchConfig& cfg) const override {
    const int n = cities_for(cfg);
    const Input in(n, cfg.seed);
    Ref ref;
    const int t = ref.build(in, 0, n);
    const int tour = ref.tsp(t, n);
    return quantize(ref.length(tour), 1e6);
  }
};

}  // namespace

const Benchmark& tsp_benchmark() {
  static const Tsp b;
  return b;
}

}  // namespace olden::bench
