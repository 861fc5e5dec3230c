// Voronoi: Voronoi diagram of a point set (Table 1, [19]).
//
// The classic Guibas-Stolfi divide-and-conquer Delaunay construction on a
// quad-edge subdivision (the Voronoi diagram is its dual; Olden's version
// likewise builds the Delaunay structure). Points are sorted by x and
// distributed blocked, so each half of the recursion is co-located; the
// subproblems run in parallel (futurecalls); the merge phase walks the
// convex hulls of the two sub-diagrams "alternating between them in an
// irregular fashion".
//
// Heuristic behaviour (§5): the merge's hull walks are unpredictable, so
// the computation pins on the processor owning one subresult and *caches*
// the other — the paper notes this heuristic choice beats migrate-only
// dramatically (8.76x vs 0.47x at 32) yet is still not optimal;
// bench/ablation_voronoi explores that gap.
//
// Quad-edges live in the distributed heap as blocks of four 8-byte
// quarter-edge records; an edge reference is the block's global address
// with the rotation in the low two bits, so Rot/Sym are pure arithmetic
// exactly as in the paper's 32-bit encoded pointers.
#include <algorithm>
#include <cmath>
#include <vector>

#include "olden/bench/benchmark.hpp"
#include "olden/runtime/api.hpp"
#include "olden/support/rng.hpp"

namespace olden::bench {
namespace {

constexpr Cycles kWorkPerPredicate = 80;
constexpr Cycles kWorkPerEdgeOp = 50;

struct Pt {
  double x, y;
};

/// One quarter-edge: its onext reference and origin point index (or -1
/// for the dual/face quarters, -2 once deleted).
struct QRec {
  std::uint32_t next;
  std::int32_t org;
};

enum Site : SiteId {
  kPtMigrate,  // first touch of a subproblem's range: migrates the body
  kPt,         // point coordinate reads during the merge (cache)
  kNext,       // onext reads/writes (cache)
  kOrg,        // origin reads/writes (cache)
  kInit,
  kNumSites
};

int points_for(const BenchConfig& cfg) {
  if (cfg.tiny) return 1024;
  return cfg.paper_size ? 65536 : 16384;
}

// --- edge-reference arithmetic (shared by both implementations) ----------

using ERef = std::uint32_t;  // block base | rotation
constexpr ERef kNoEdge = 0;

constexpr ERef rot(ERef e) { return (e & ~3u) | ((e + 1) & 3u); }
constexpr ERef invrot(ERef e) { return (e & ~3u) | ((e + 3) & 3u); }
constexpr ERef esym(ERef e) { return e ^ 2u; }

bool ccw(const Pt& a, const Pt& b, const Pt& c) {
  return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x) > 0;
}

/// d strictly inside the circumcircle of ccw triangle (a, b, c).
bool in_circle(const Pt& a, const Pt& b, const Pt& c, const Pt& d) {
  const double adx = a.x - d.x, ady = a.y - d.y;
  const double bdx = b.x - d.x, bdy = b.y - d.y;
  const double cdx = c.x - d.x, cdy = c.y - d.y;
  const double ad2 = adx * adx + ady * ady;
  const double bd2 = bdx * bdx + bdy * bdy;
  const double cd2 = cdx * cdx + cdy * cdy;
  const double det = adx * (bdy * cd2 - bd2 * cdy) -
                     ady * (bdx * cd2 - bd2 * cdx) +
                     ad2 * (bdx * cdy - bdy * cdx);
  return det > 0;
}

std::vector<Pt> make_points(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Pt> pts(static_cast<std::size_t>(n));
  for (auto& p : pts) {
    p.x = rng.next_double();
    p.y = rng.next_double();
  }
  std::sort(pts.begin(), pts.end(), [](const Pt& a, const Pt& b) {
    if (a.x != b.x) return a.x < b.x;
    return a.y < b.y;
  });
  return pts;
}

// ---------------------------------------------------------------------------
// Host reference implementation (plain arrays).
// ---------------------------------------------------------------------------

struct HostSubdivision {
  const std::vector<Pt>& pts;
  std::vector<QRec> recs;  // 4 per edge block

  explicit HostSubdivision(const std::vector<Pt>& p) : pts(p) {
    recs.reserve(p.size() * 16);
  }

  // ERef encoding on host: (block_index * 4 + rot) + 4, so ERef 0 is
  // never a real edge and the base keeps its low two bits clear.
  QRec& rec(ERef e) { return recs[e - 4]; }
  const QRec& rec(ERef e) const { return recs[e - 4]; }
  std::uint32_t onext(ERef e) { return rec(e).next; }
  std::int32_t org(ERef e) { return rec(e).org; }
  std::int32_t dest(ERef e) { return rec(esym(e)).org; }
  ERef oprev(ERef e) { return rot(onext(rot(e))); }
  ERef lnext(ERef e) { return rot(onext(invrot(e))); }
  ERef rprev(ERef e) { return onext(esym(e)); }
  const Pt& org_pt(ERef e) { return pts[static_cast<std::size_t>(org(e))]; }
  const Pt& dest_pt(ERef e) { return pts[static_cast<std::size_t>(dest(e))]; }

  ERef make_edge(std::int32_t o, std::int32_t d) {
    const ERef e = static_cast<ERef>(recs.size()) + 4;
    recs.push_back(QRec{e, o});           // e
    recs.push_back(QRec{invrot(e), -1});  // rot(e)
    recs.push_back(QRec{esym(e), d});     // sym(e)
    recs.push_back(QRec{rot(e), -1});     // invrot(e)
    return e;
  }

  void splice(ERef a, ERef b) {
    const ERef alpha = rot(onext(a));
    const ERef beta = rot(onext(b));
    const ERef an = onext(a);
    const ERef bn = onext(b);
    rec(a).next = bn;
    rec(b).next = an;
    const ERef alphan = onext(alpha);
    const ERef betan = onext(beta);
    rec(alpha).next = betan;
    rec(beta).next = alphan;
  }

  ERef connect(ERef a, ERef b) {
    const ERef e = make_edge(dest(a), org(b));
    splice(e, lnext(a));
    splice(esym(e), b);
    return e;
  }

  void delete_edge(ERef e) {
    splice(e, oprev(e));
    splice(esym(e), oprev(esym(e)));
    rec(e).org = -2;
    rec(esym(e)).org = -2;
  }

  bool right_of(const Pt& p, ERef e) { return ccw(p, dest_pt(e), org_pt(e)); }
  bool left_of(const Pt& p, ERef e) { return ccw(p, org_pt(e), dest_pt(e)); }

  struct LR {
    ERef le, re;
  };

  LR delaunay(int lo, int hi) {  // [lo, hi)
    const int n = hi - lo;
    if (n == 2) {
      const ERef a = make_edge(lo, lo + 1);
      return {a, esym(a)};
    }
    if (n == 3) {
      const ERef a = make_edge(lo, lo + 1);
      const ERef b = make_edge(lo + 1, lo + 2);
      splice(esym(a), b);
      const Pt& p1 = pts[static_cast<std::size_t>(lo)];
      const Pt& p2 = pts[static_cast<std::size_t>(lo + 1)];
      const Pt& p3 = pts[static_cast<std::size_t>(lo + 2)];
      if (ccw(p1, p2, p3)) {
        connect(b, a);
        return {a, esym(b)};
      }
      if (ccw(p1, p3, p2)) {
        const ERef c = connect(b, a);
        return {esym(c), c};
      }
      return {a, esym(b)};  // collinear
    }
    const int mid = lo + n / 2;
    LR left = delaunay(lo, mid);
    LR right = delaunay(mid, hi);
    ERef ldo = left.le, ldi = left.re;
    ERef rdi = right.le, rdo = right.re;
    // Lower common tangent.
    for (;;) {
      if (left_of(org_pt(rdi), ldi)) {
        ldi = lnext(ldi);
      } else if (right_of(org_pt(ldi), rdi)) {
        rdi = rprev(rdi);
      } else {
        break;
      }
    }
    ERef basel = connect(esym(rdi), ldi);
    if (org(ldi) == org(ldo)) ldo = esym(basel);
    if (org(rdi) == org(rdo)) rdo = basel;
    // Merge loop.
    for (;;) {
      ERef lcand = onext(esym(basel));
      if (right_of(dest_pt(lcand), basel)) {
        while (in_circle(dest_pt(basel), org_pt(basel), dest_pt(lcand),
                         dest_pt(onext(lcand)))) {
          const ERef t = onext(lcand);
          delete_edge(lcand);
          lcand = t;
        }
      }
      ERef rcand = oprev(basel);
      if (right_of(dest_pt(rcand), basel)) {
        while (in_circle(dest_pt(basel), org_pt(basel), dest_pt(rcand),
                         dest_pt(oprev(rcand)))) {
          const ERef t = oprev(rcand);
          delete_edge(rcand);
          rcand = t;
        }
      }
      const bool lvalid = right_of(dest_pt(lcand), basel);
      const bool rvalid = right_of(dest_pt(rcand), basel);
      if (!lvalid && !rvalid) break;
      if (!lvalid || (rvalid && in_circle(dest_pt(lcand), org_pt(lcand),
                                          org_pt(rcand), dest_pt(rcand)))) {
        basel = connect(rcand, esym(basel));
      } else {
        basel = connect(esym(basel), esym(lcand));
      }
    }
    return {ldo, rdo};
  }

  /// (live edge count, commutative hash of endpoint pairs).
  std::pair<std::uint64_t, std::uint64_t> census() const {
    std::uint64_t count = 0;
    std::uint64_t hash = 0;
    for (std::size_t blk = 0; blk + 3 < recs.size(); blk += 4) {
      const QRec& e0 = recs[blk];
      const QRec& e2 = recs[blk + 2];
      if (e0.org < 0 || e2.org < 0) continue;
      ++count;
      const std::uint64_t a = static_cast<std::uint32_t>(
          e0.org < e2.org ? e0.org : e2.org);
      const std::uint64_t b = static_cast<std::uint32_t>(
          e0.org < e2.org ? e2.org : e0.org);
      hash += (a * 2654435761ULL) ^ (b * 0x9e3779b97f4a7c15ULL);
    }
    return {count, hash};
  }
};

// ---------------------------------------------------------------------------
// Simulated implementation: same algorithm, quad-edges in the distributed
// heap, subproblems futurecalled and migrated to their point ranges.
// ---------------------------------------------------------------------------

class SimSubdivision {
 public:
  SimSubdivision(Machine& m, const std::vector<GPtr<Pt>>& addr)
      : m_(m), addr_(addr) {}

  Machine& m_;
  const std::vector<GPtr<Pt>>& addr_;  // point index -> heap address
  std::vector<GPtr<QRec>> blocks_;     // every allocated 4-record block

  Task<Pt> point(std::int32_t i, SiteId site) {
    co_return co_await rd_obj(addr_[static_cast<std::size_t>(i)], site);
  }

  // An ERef is the global byte address of the block (32-byte, 8-aligned —
  // low two bits free) with the rotation in the low bits.
  static GPtr<QRec> rec_of(ERef e) {
    return GPtr<QRec>(GlobalAddr((e & ~3u) + (e & 3u) * sizeof(QRec)));
  }

  Task<std::uint32_t> onext(ERef e) {
    co_return co_await rd(rec_of(e), &QRec::next, kNext);
  }
  Task<int> set_onext(ERef e, ERef v) {
    co_await wr(rec_of(e), &QRec::next, v, kNext);
    co_return 0;
  }
  Task<std::int32_t> org(ERef e) {
    co_return co_await rd(rec_of(e), &QRec::org, kOrg);
  }
  Task<std::int32_t> dest(ERef e) { co_return co_await org(esym(e)); }
  Task<ERef> oprev(ERef e) { co_return rot(co_await onext(rot(e))); }
  Task<ERef> lnext(ERef e) { co_return rot(co_await onext(invrot(e))); }
  Task<ERef> rprev(ERef e) { co_return co_await onext(esym(e)); }
  Task<Pt> org_pt(ERef e) { co_return co_await point(co_await org(e), kPt); }
  Task<Pt> dest_pt(ERef e) { co_return co_await point(co_await dest(e), kPt); }

  Task<ERef> make_edge(std::int32_t o, std::int32_t d) {
    auto blk = m_.alloc_array<QRec>(m_.cur_proc(), 4);
    blocks_.push_back(blk);
    const ERef e = blk.addr().raw();
    OLDEN_REQUIRE((e & 7u) == 0, "edge block must be 8-aligned");
    co_await wr(rec_of(e), &QRec::next, e, kInit);
    co_await wr(rec_of(e), &QRec::org, o, kInit);
    co_await wr(rec_of(rot(e)), &QRec::next, invrot(e), kInit);
    co_await wr(rec_of(rot(e)), &QRec::org, std::int32_t{-1}, kInit);
    co_await wr(rec_of(esym(e)), &QRec::next, esym(e), kInit);
    co_await wr(rec_of(esym(e)), &QRec::org, d, kInit);
    co_await wr(rec_of(invrot(e)), &QRec::next, rot(e), kInit);
    co_await wr(rec_of(invrot(e)), &QRec::org, std::int32_t{-1}, kInit);
    m_.work(kWorkPerEdgeOp);
    co_return e;
  }

  Task<int> splice(ERef a, ERef b) {
    const ERef an = co_await onext(a);
    const ERef bn = co_await onext(b);
    const ERef alpha = rot(an);
    const ERef beta = rot(bn);
    const ERef alphan = co_await onext(alpha);
    const ERef betan = co_await onext(beta);
    co_await set_onext(a, bn);
    co_await set_onext(b, an);
    co_await set_onext(alpha, betan);
    co_await set_onext(beta, alphan);
    m_.work(kWorkPerEdgeOp);
    co_return 0;
  }

  Task<ERef> connect(ERef a, ERef b) {
    const ERef e =
        co_await make_edge(co_await dest(a), co_await org(b));
    co_await splice(e, co_await lnext(a));
    co_await splice(esym(e), b);
    co_return e;
  }

  Task<int> delete_edge(ERef e) {
    co_await splice(e, co_await oprev(e));
    co_await splice(esym(e), co_await oprev(esym(e)));
    co_await wr(rec_of(e), &QRec::org, std::int32_t{-2}, kOrg);
    co_await wr(rec_of(esym(e)), &QRec::org, std::int32_t{-2}, kOrg);
    co_return 0;
  }

  Task<bool> right_of(Pt p, ERef e) {
    const Pt d = co_await dest_pt(e);
    const Pt o = co_await org_pt(e);
    m_.work(kWorkPerPredicate);
    co_return ccw(p, d, o);
  }
  Task<bool> left_of(Pt p, ERef e) {
    const Pt o = co_await org_pt(e);
    const Pt d = co_await dest_pt(e);
    m_.work(kWorkPerPredicate);
    co_return ccw(p, o, d);
  }

  struct LR {
    ERef le, re;
  };

  Task<LR> delaunay(int lo, int hi, ProcId plo, ProcId phi) {
    // Migrate this subproblem's thread to the processor owning its range
    // (in the Olden original this is the dereference of the point-tree
    // node, hinted high-affinity).
    co_await rd(addr_[static_cast<std::size_t>(lo)], &Pt::x, kPtMigrate);
    const int n = hi - lo;
    if (n == 2) {
      const ERef a = co_await make_edge(lo, lo + 1);
      co_return LR{a, esym(a)};
    }
    if (n == 3) {
      const ERef a = co_await make_edge(lo, lo + 1);
      const ERef b = co_await make_edge(lo + 1, lo + 2);
      co_await splice(esym(a), b);
      const Pt p1 = co_await point(lo, kPt);
      const Pt p2 = co_await point(lo + 1, kPt);
      const Pt p3 = co_await point(lo + 2, kPt);
      m_.work(kWorkPerPredicate);
      if (ccw(p1, p2, p3)) {
        co_await connect(b, a);
        co_return LR{a, esym(b)};
      }
      if (ccw(p1, p3, p2)) {
        const ERef c = co_await connect(b, a);
        co_return LR{esym(c), c};
      }
      co_return LR{a, esym(b)};
    }
    const int mid = lo + n / 2;
    const ProcId pmid = static_cast<ProcId>((plo + phi + 1) / 2);
    LR left{}, right{};
    if (n >= 8) {
      // The parent sits at the low end of its range, so the upper half is
      // the remote one: futurecall it (its body migrates away at its
      // first point dereference, leaving this continuation stealable) and
      // compute the local half inline.
      auto fr = co_await futurecall(delaunay(mid, hi, pmid, phi));
      left = co_await delaunay(lo, mid, plo, pmid);
      right = co_await touch(fr);
    } else {
      left = co_await delaunay(lo, mid, plo, pmid);
      right = co_await delaunay(mid, hi, pmid, phi);
    }
    ERef ldo = left.le, ldi = left.re;
    ERef rdi = right.le, rdo = right.re;
    for (;;) {
      if (co_await left_of(co_await org_pt(rdi), ldi)) {
        ldi = co_await lnext(ldi);
      } else if (co_await right_of(co_await org_pt(ldi), rdi)) {
        rdi = co_await rprev(rdi);
      } else {
        break;
      }
    }
    ERef basel = co_await connect(esym(rdi), ldi);
    if (co_await org(ldi) == co_await org(ldo)) ldo = esym(basel);
    if (co_await org(rdi) == co_await org(rdo)) rdo = basel;
    for (;;) {
      ERef lcand = co_await onext(esym(basel));
      if (co_await right_of(co_await dest_pt(lcand), basel)) {
        for (;;) {
          const Pt bd = co_await dest_pt(basel);
          const Pt bo = co_await org_pt(basel);
          const Pt ld = co_await dest_pt(lcand);
          const Pt lnd = co_await dest_pt(co_await onext(lcand));
          m_.work(kWorkPerPredicate);
          if (!in_circle(bd, bo, ld, lnd)) break;
          const ERef t = co_await onext(lcand);
          co_await delete_edge(lcand);
          lcand = t;
        }
      }
      ERef rcand = co_await oprev(basel);
      if (co_await right_of(co_await dest_pt(rcand), basel)) {
        for (;;) {
          const Pt bd = co_await dest_pt(basel);
          const Pt bo = co_await org_pt(basel);
          const Pt rd2 = co_await dest_pt(rcand);
          const Pt rpd = co_await dest_pt(co_await oprev(rcand));
          m_.work(kWorkPerPredicate);
          if (!in_circle(bd, bo, rd2, rpd)) break;
          const ERef t = co_await oprev(rcand);
          co_await delete_edge(rcand);
          rcand = t;
        }
      }
      const bool lvalid = co_await right_of(co_await dest_pt(lcand), basel);
      const bool rvalid = co_await right_of(co_await dest_pt(rcand), basel);
      if (!lvalid && !rvalid) break;
      if (!lvalid ||
          (rvalid && in_circle(co_await dest_pt(lcand), co_await org_pt(lcand),
                               co_await org_pt(rcand),
                               co_await dest_pt(rcand)))) {
        basel = co_await connect(rcand, esym(basel));
      } else {
        basel = co_await connect(esym(basel), esym(lcand));
      }
      m_.work(kWorkPerPredicate);
    }
    co_return LR{ldo, rdo};
  }

  Task<std::pair<std::uint64_t, std::uint64_t>> census() {
    std::uint64_t count = 0;
    std::uint64_t hash = 0;
    for (const auto& blk : blocks_) {
      const ERef e = blk.addr().raw();
      const auto o = co_await rd(rec_of(e), &QRec::org, kOrg);
      const auto d = co_await rd(rec_of(esym(e)), &QRec::org, kOrg);
      if (o < 0 || d < 0) continue;
      ++count;
      const std::uint64_t a = static_cast<std::uint32_t>(o < d ? o : d);
      const std::uint64_t b = static_cast<std::uint32_t>(o < d ? d : o);
      hash += (a * 2654435761ULL) ^ (b * 0x9e3779b97f4a7c15ULL);
    }
    co_return std::pair{count, hash};
  }
};

struct RootOut {
  std::uint64_t checksum = 0;
  std::uint64_t edges = 0;
  Cycles build_end = 0;
};

/// The <proc, local> address encoding cannot make one array span
/// processors, so points live in per-processor slabs (blocked by sorted x,
/// which co-locates each recursion range) with a host-side index table —
/// the stand-in for Olden's distributed point tree.
Task<RootOut> voronoi_root(Machine& m, const std::vector<Pt>& pts,
                           RootOut& out) {
  const int n = static_cast<int>(pts.size());
  std::vector<GPtr<Pt>> addr(static_cast<std::size_t>(n));
  {
    int i = 0;
    while (i < n) {
      const ProcId owner = block_owner(static_cast<std::uint64_t>(i),
                                       static_cast<std::uint64_t>(n),
                                       m.nprocs());
      int j = i;
      while (j < n && block_owner(static_cast<std::uint64_t>(j),
                                  static_cast<std::uint64_t>(n),
                                  m.nprocs()) == owner) {
        ++j;
      }
      auto slab = m.alloc_array<Pt>(owner, static_cast<std::uint32_t>(j - i));
      for (int k = i; k < j; ++k) {
        addr[static_cast<std::size_t>(k)] =
            slab.at(static_cast<std::uint32_t>(k - i));
        co_await wr(addr[static_cast<std::size_t>(k)], &Pt::x,
                    pts[static_cast<std::size_t>(k)].x, kInit);
        co_await wr(addr[static_cast<std::size_t>(k)], &Pt::y,
                    pts[static_cast<std::size_t>(k)].y, kInit);
      }
      i = j;
    }
  }
  out.build_end = m.now_max();
  SimSubdivision sub(m, addr);
  co_await sub.delaunay(0, n, 0, m.nprocs());
  const auto [count, hash] = co_await sub.census();
  out.edges = count;
  out.checksum = mix_checksum(count, hash);
  co_return out;
}

class Voronoi final : public Benchmark {
 public:
  std::string name() const override { return "Voronoi"; }
  std::string description() const override {
    return "Computes the Voronoi Diagram of a set of points";
  }
  std::string problem_size(bool paper) const override {
    return paper ? "64K points" : "16K points";
  }
  bool whole_program_timing() const override { return false; }
  std::string heuristic_choice() const override { return "M+C"; }
  std::size_t num_sites() const override { return kNumSites; }

  ir::Program ir_program() const override {
    using namespace ir;
    Program p;
    // The merge walks subresult hulls unpredictably: low-affinity edge
    // links. The recursion itself descends a high-affinity point tree.
    p.structs = {{"edge", {{"onext", 0.50}, {"org", 0.50}}},
                 {"ptree", {{"left", 0.95}, {"right", 0.95}}}};

    Procedure mw;  // merge hull walk
    mw.name = "merge_walk";
    mw.params = {"e"};
    While w;
    w.loop_id = 1;
    w.body.push_back(deref("e", kPt));
    w.body.push_back(assign("e", "e", {{"edge", "onext"}}, SiteId{kNext}));
    w.body.push_back(deref("e", kOrg));
    mw.body.push_back(std::move(w));
    p.procs.push_back(std::move(mw));

    Procedure dl;
    dl.name = "delaunay";
    dl.params = {"t"};
    dl.rec_loop_id = 0;
    If br;
    Call cl;
    cl.callee = "delaunay";
    cl.args = {{"t", {{"ptree", "left"}}}};
    cl.future = true;
    Call cr;
    cr.callee = "delaunay";
    cr.args = {{"t", {{"ptree", "right"}}}};
    br.else_branch.push_back(deref("t", kPtMigrate));
    br.else_branch.push_back(cl);
    br.else_branch.push_back(cr);
    Call mwc;
    mwc.callee = "merge_walk";
    mwc.args = {{"t", {{"ptree", "left"}}}};
    br.else_branch.push_back(mwc);
    dl.body.push_back(std::move(br));
    p.procs.push_back(std::move(dl));
    return p;
  }

  std::vector<std::pair<SiteId, Mechanism>> site_overrides() const override {
    return {{kInit, Mechanism::kMigrate}};
  }

  BenchResult run(const BenchConfig& cfg) const override {
    const auto pts = make_points(points_for(cfg), cfg.seed);
    BenchResult res;
    Machine m({.nprocs = cfg.nprocs,
               .scheme = cfg.scheme,
               .costs = {.sequential_baseline = cfg.sequential_baseline},
               .observer = cfg.observer,
               .faults = cfg.faults,
               .fault_seed = cfg.fault_seed});
    m.set_site_mechanisms(site_table(cfg, &res.heuristic_report));
    RootOut out;
    run_program(m, voronoi_root(m, pts, out));
    res.checksum = out.checksum;
    res.build_cycles = out.build_end;
    res.total_cycles = m.makespan();
    res.kernel_cycles = res.total_cycles - res.build_cycles;
    res.stats = m.stats();
    return res;
  }

  std::uint64_t reference_checksum(const BenchConfig& cfg) const override {
    const auto pts = make_points(points_for(cfg), cfg.seed);
    HostSubdivision hs(pts);
    hs.delaunay(0, static_cast<int>(pts.size()));
    const auto [count, hash] = hs.census();
    return mix_checksum(count, hash);
  }
};

}  // namespace

const Benchmark& voronoi_benchmark() {
  static const Voronoi b;
  return b;
}

}  // namespace olden::bench
