// Barnes-Hut: hierarchical N-body simulation (Table 1, [5]).
//
// Three phases per timestep, as in §5: (1) build the octree over the
// bodies — sequential, and an increasing fraction of the runtime as
// processors are added (the paper factors it out to quote 19x at 32);
// (2) compute accelerations by walking the tree per body with the opening
// criterion; (3) advance positions.
//
// Heuristic behaviour (§5): migration moves each body's computation to the
// processor that owns the body; the tree walk starts from the same root on
// every iteration of the parallel body loop, so the pass-2 bottleneck rule
// *forces caching for the tree even though it has high locality* — the
// paper's marquee example of the rule. Remote tree-cell reads are the
// dominant cacheable stream (Table 3's 55.6% remote reads).
#include <cmath>
#include <vector>

#include "olden/bench/benchmark.hpp"
#include "olden/runtime/api.hpp"
#include "olden/support/rng.hpp"

namespace olden::bench {
namespace {

constexpr double kTheta = 0.7;
constexpr double kDt = 0.025;
constexpr double kEps2 = 1e-4;
constexpr Cycles kWorkPerInteraction = 250;
constexpr Cycles kWorkPerBody = 300;

struct Vec3 {
  double x, y, z;
};

struct Body {
  Vec3 pos, vel, acc;  // read/written as whole 24-byte objects
  double mass;
  GPtr<Body> next;
};

/// Geometry and centre-of-mass are grouped so tree walks move them as
/// single block transfers (one cache access each) instead of four scalars.
struct Cell {
  struct Geom {
    double cx, cy, cz, half;
  } g;
  struct Com {
    double mx, my, mz, mass;
  } com;
  std::int32_t leaf;  // 1 => holds exactly `body`
  GPtr<Body> body;
  GPtr<Cell> child[8];
};

struct Seg {
  GPtr<Body> head;
  std::int32_t count;
  GPtr<Seg> next;
};

enum Site : SiteId {
  kBodyFld,    // b-> fields in the per-body loops (migrate)
  kBodyBuild,  // body reads on the sequential build thread (cache: the
               // builder must not bounce to every body's processor)
  kBodyNext,   // b = b->next
  kCellFld,   // c-> fields during tree walks (cached: bottleneck rule)
  kCellKid,   // c->child[i]
  kCellWr,    // tree construction / summarize writes (cache write-through)
  kSegFld,
  kSegNext,
  kInit,
  kNumSites
};

int bodies_for(const BenchConfig& cfg) {
  if (cfg.tiny) return 512;
  return cfg.paper_size ? 8192 : 4096;
}
constexpr int kSteps = 2;

// --- shared spec ---------------------------------------------------------

struct Spec {
  struct B {
    double px, py, pz, vx, vy, vz, mass;
  };
  std::vector<B> bodies;

  Spec(int n, std::uint64_t seed) {
    Rng rng(seed);
    bodies.resize(static_cast<std::size_t>(n));
    for (auto& b : bodies) {
      // Uniform in the unit cube with small random velocities.
      b.px = rng.next_double();
      b.py = rng.next_double();
      b.pz = rng.next_double();
      b.vx = 0.1 * (rng.next_double() - 0.5);
      b.vy = 0.1 * (rng.next_double() - 0.5);
      b.vz = 0.1 * (rng.next_double() - 0.5);
      b.mass = 1.0 / n;
    }
  }
};

int octant_of(double x, double y, double z, double cx, double cy, double cz) {
  return (x >= cx ? 1 : 0) | (y >= cy ? 2 : 0) | (z >= cz ? 4 : 0);
}

// ---------------------------------------------------------------------------
// Simulated implementation
// ---------------------------------------------------------------------------

detail::ReadAwaiter<GPtr<Cell>> rd_kid(GPtr<Cell> c, int q, SiteId site) {
  static const Cell probe{};
  const auto off = static_cast<std::uint32_t>(
      reinterpret_cast<const char*>(&probe.child[q]) -
      reinterpret_cast<const char*>(&probe));
  return {c.addr().plus(off), site};
}

Task<int> wr_kid(GPtr<Cell> c, int q, GPtr<Cell> v, SiteId site) {
  static const Cell probe{};
  const auto off = static_cast<std::uint32_t>(
      reinterpret_cast<const char*>(&probe.child[q]) -
      reinterpret_cast<const char*>(&probe));
  co_await detail::WriteAwaiter<GPtr<Cell>>{c.addr().plus(off), site, v};
  co_return 0;
}

/// Cells are allocated round-robin so cache-fill traffic spreads. The
/// whole record is initialized with one block write.
struct CellAlloc {
  Machine& m;
  ProcId next = 0;
  Task<GPtr<Cell>> make(double cx, double cy, double cz, double half) {
    auto c = m.alloc<Cell>(next);
    next = static_cast<ProcId>((next + 1) % m.nprocs());
    Cell init{};
    init.g = Cell::Geom{cx, cy, cz, half};
    co_await wr_obj(c, init, kCellWr);
    co_return c;
  }
};

Task<int> insert(Machine& m, CellAlloc& ca, GPtr<Cell> c, GPtr<Body> b,
                 double bx, double by, double bz) {
  const auto leaf = co_await rd(c, &Cell::leaf, kCellFld);
  const auto [cx, cy, cz, half] = co_await rd(c, &Cell::g, kCellFld);
  if (leaf) {
    // Split: push the resident body down, then insert b.
    const auto old = co_await rd(c, &Cell::body, kCellFld);
    co_await wr(c, &Cell::leaf, std::int32_t{0}, kCellWr);
    co_await wr(c, &Cell::body, GPtr<Body>{}, kCellWr);
    const Vec3 op = co_await rd(old, &Body::pos, kBodyBuild);
    const double ox = op.x, oy = op.y, oz = op.z;
    const int oq = octant_of(ox, oy, oz, cx, cy, cz);
    const double q2 = half / 2;
    auto oc = co_await ca.make(cx + (oq & 1 ? q2 : -q2),
                               cy + (oq & 2 ? q2 : -q2),
                               cz + (oq & 4 ? q2 : -q2), q2);
    co_await wr(oc, &Cell::leaf, std::int32_t{1}, kCellWr);
    co_await wr(oc, &Cell::body, old, kCellWr);
    co_await wr_kid(c, oq, oc, kCellWr);
  }
  const int q = octant_of(bx, by, bz, cx, cy, cz);
  const auto kid = co_await rd_kid(c, q, kCellKid);
  if (!kid) {
    const double q2 = half / 2;
    auto nc = co_await ca.make(cx + (q & 1 ? q2 : -q2),
                               cy + (q & 2 ? q2 : -q2),
                               cz + (q & 4 ? q2 : -q2), q2);
    co_await wr(nc, &Cell::leaf, std::int32_t{1}, kCellWr);
    co_await wr(nc, &Cell::body, b, kCellWr);
    co_await wr_kid(c, q, nc, kCellWr);
    co_return 0;
  }
  const auto kid_leaf = co_await rd(kid, &Cell::leaf, kCellFld);
  if (kid_leaf) {
    co_await insert(m, ca, kid, b, bx, by, bz);
  } else {
    co_await insert(m, ca, kid, b, bx, by, bz);
  }
  co_return 0;
}

struct Summary {
  double mx = 0, my = 0, mz = 0, mass = 0;
};

Task<Summary> summarize(Machine& m, GPtr<Cell> c) {
  Summary s;
  if (!c) co_return s;
  const auto leaf = co_await rd(c, &Cell::leaf, kCellFld);
  if (leaf) {
    const auto b = co_await rd(c, &Cell::body, kCellFld);
    const double mass = co_await rd(b, &Body::mass, kBodyBuild);
    const Vec3 bp = co_await rd(b, &Body::pos, kBodyBuild);
    s.mx = mass * bp.x;
    s.my = mass * bp.y;
    s.mz = mass * bp.z;
    s.mass = mass;
  } else {
    for (int q = 0; q < 8; ++q) {
      const auto kid = co_await rd_kid(c, q, kCellKid);
      if (!kid) continue;
      const Summary ks = co_await summarize(m, kid);
      s.mx += ks.mx;
      s.my += ks.my;
      s.mz += ks.mz;
      s.mass += ks.mass;
    }
  }
  Cell::Com com{};
  com.mx = s.mass > 0 ? s.mx / s.mass : 0.0;
  com.my = s.mass > 0 ? s.my / s.mass : 0.0;
  com.mz = s.mass > 0 ? s.mz / s.mass : 0.0;
  com.mass = s.mass;
  co_await wr(c, &Cell::com, com, kCellWr);
  co_return s;
}

struct Accel {
  double x = 0, y = 0, z = 0;
};

Task<Accel> walk(Machine& m, GPtr<Cell> c, GPtr<Body> self, double bx,
                 double by, double bz) {
  Accel a;
  if (!c) co_return a;
  const auto leaf = co_await rd(c, &Cell::leaf, kCellFld);
  if (leaf) {
    const auto ob = co_await rd(c, &Cell::body, kCellFld);
    if (ob == self) co_return a;
    const auto [mx, my, mz, mass] = co_await rd(c, &Cell::com, kCellFld);
    const double dx = mx - bx, dy = my - by, dz = mz - bz;
    const double d2 = dx * dx + dy * dy + dz * dz + kEps2;
    const double inv = 1.0 / (d2 * std::sqrt(d2));
    a.x = mass * dx * inv;
    a.y = mass * dy * inv;
    a.z = mass * dz * inv;
    m.work(kWorkPerInteraction);
    co_return a;
  }
  const double half = (co_await rd(c, &Cell::g, kCellFld)).half;
  const auto [mx, my, mz, mass] = co_await rd(c, &Cell::com, kCellFld);
  const double dx = mx - bx, dy = my - by, dz = mz - bz;
  const double d2 = dx * dx + dy * dy + dz * dz + kEps2;
  if ((2 * half) * (2 * half) < kTheta * kTheta * d2) {
    const double inv = 1.0 / (d2 * std::sqrt(d2));
    a.x = mass * dx * inv;
    a.y = mass * dy * inv;
    a.z = mass * dz * inv;
    m.work(kWorkPerInteraction);
    co_return a;
  }
  for (int q = 0; q < 8; ++q) {
    const auto kid = co_await rd_kid(c, q, kCellKid);
    if (!kid) continue;
    const Accel ka = co_await walk(m, kid, self, bx, by, bz);
    a.x += ka.x;
    a.y += ka.y;
    a.z += ka.z;
  }
  co_return a;
}

Task<int> force_body(Machine& m, GPtr<Body> b, GPtr<Cell> root) {
  const Vec3 p = co_await rd(b, &Body::pos, kBodyFld);
  const Accel a = co_await walk(m, root, b, p.x, p.y, p.z);
  co_await wr(b, &Body::acc, Vec3{a.x, a.y, a.z}, kBodyFld);
  m.work(kWorkPerBody);
  co_return 0;
}

Task<int> force_block(Machine& m, GPtr<Seg> seg, GPtr<Cell> root) {
  GPtr<Body> b = co_await rd(seg, &Seg::head, kSegFld);
  const auto count = co_await rd(seg, &Seg::count, kSegFld);
  std::vector<Future<int>> fs;
  for (std::int32_t i = 0; i < count; ++i) {
    fs.push_back(co_await futurecall(force_body(m, b, root)));
    if (i + 1 < count) b = co_await rd(b, &Body::next, kBodyNext);
  }
  for (auto& f : fs) co_await touch(f);
  co_return 0;
}

Task<int> advance_block(Machine& m, GPtr<Seg> seg) {
  GPtr<Body> b = co_await rd(seg, &Seg::head, kSegFld);
  const auto count = co_await rd(seg, &Seg::count, kSegFld);
  for (std::int32_t i = 0; i < count; ++i) {
    Vec3 pos = co_await rd(b, &Body::pos, kBodyFld);
    Vec3 vel = co_await rd(b, &Body::vel, kBodyFld);
    const Vec3 acc = co_await rd(b, &Body::acc, kBodyFld);
    vel.x += kDt * acc.x;
    pos.x += kDt * vel.x;
    vel.y += kDt * acc.y;
    pos.y += kDt * vel.y;
    vel.z += kDt * acc.z;
    pos.z += kDt * vel.z;
    co_await wr(b, &Body::vel, vel, kBodyFld);
    co_await wr(b, &Body::pos, pos, kBodyFld);
    m.work(kWorkPerBody / 2);
    if (i + 1 < count) b = co_await rd(b, &Body::next, kBodyNext);
  }
  co_return 0;
}

struct RootOut {
  double sum = 0;
  Cycles build_end = 0;
};

Task<RootOut> root_task(Machine& m, const Spec& spec) {
  RootOut out;
  const int n = static_cast<int>(spec.bodies.size());
  std::vector<GPtr<Body>> bodies(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const ProcId owner = block_owner(static_cast<std::uint64_t>(i),
                                     static_cast<std::uint64_t>(n), m.nprocs());
    const auto& sb = spec.bodies[static_cast<std::size_t>(i)];
    auto b = m.alloc<Body>(owner);
    co_await wr(b, &Body::pos, Vec3{sb.px, sb.py, sb.pz}, kInit);
    co_await wr(b, &Body::vel, Vec3{sb.vx, sb.vy, sb.vz}, kInit);
    co_await wr(b, &Body::mass, sb.mass, kInit);
    bodies[static_cast<std::size_t>(i)] = b;
    if (i > 0) {
      co_await wr(bodies[static_cast<std::size_t>(i - 1)], &Body::next, b,
                  kInit);
    }
  }
  // Dispatch segments (on processor 0, like EM3D).
  GPtr<Seg> segs, tail;
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
      auto s = m.alloc<Seg>(0);
      co_await wr(s, &Seg::head, bodies[static_cast<std::size_t>(i)], kInit);
      co_await wr(s, &Seg::count, static_cast<std::int32_t>(j - i), kInit);
      if (tail) {
        co_await wr(tail, &Seg::next, s, kInit);
      } else {
        segs = s;
      }
      tail = s;
      i = j;
    }
  }
  out.build_end = m.now_max();

  for (int step = 0; step < kSteps; ++step) {
    // Phase 1: sequential tree build (§5: "the tree building phase is
    // sequential and starts to represent a substantial fraction...").
    CellAlloc ca{m};
    auto root = co_await ca.make(0.5, 0.5, 0.5, 2.0);
    for (int i = 0; i < n; ++i) {
      const auto b = bodies[static_cast<std::size_t>(i)];
      const Vec3 bp = co_await rd(b, &Body::pos, kBodyBuild);
      co_await insert(m, ca, root, b, bp.x, bp.y, bp.z);
    }
    co_await summarize(m, root);

    // Phase 2: forces, parallel over body blocks.
    {
      std::vector<Future<int>> fs;
      GPtr<Seg> s = segs;
      while (s) {
        fs.push_back(co_await futurecall(force_block(m, s, root)));
        s = co_await rd(s, &Seg::next, kSegNext);
      }
      for (auto& f : fs) co_await touch(f);
    }
    // Phase 3: advance positions.
    {
      std::vector<Future<int>> fs;
      GPtr<Seg> s = segs;
      while (s) {
        fs.push_back(co_await futurecall(advance_block(m, s)));
        s = co_await rd(s, &Seg::next, kSegNext);
      }
      for (auto& f : fs) co_await touch(f);
    }
  }

  double sum = 0;
  for (const auto& b : bodies) {
    const Vec3 bp = co_await rd(b, &Body::pos, kBodyBuild);
    sum += bp.x + bp.y + bp.z;
  }
  out.sum = sum;
  co_return out;
}

// ---------------------------------------------------------------------------
// Host reference: identical algorithm, identical arithmetic order.
// ---------------------------------------------------------------------------

struct RefCell {
  double cx, cy, cz, half;
  double mx = 0, my = 0, mz = 0, mass = 0;
  bool leaf = false;
  int body = -1;
  int child[8] = {-1, -1, -1, -1, -1, -1, -1, -1};
};

struct Ref {
  std::vector<Spec::B> bodies;
  std::vector<double> ax, ay, az;
  std::vector<RefCell> cells;

  int make_cell(double cx, double cy, double cz, double half) {
    cells.push_back(RefCell{cx, cy, cz, half, 0, 0, 0, 0, false, -1,
                            {-1, -1, -1, -1, -1, -1, -1, -1}});
    return static_cast<int>(cells.size()) - 1;
  }

  void insert(int ci, int bi) {
    RefCell& c0 = cells[static_cast<std::size_t>(ci)];
    const double cx = c0.cx, cy = c0.cy, cz = c0.cz, half = c0.half;
    if (c0.leaf) {
      const int old = c0.body;
      cells[static_cast<std::size_t>(ci)].leaf = false;
      cells[static_cast<std::size_t>(ci)].body = -1;
      const auto& ob = bodies[static_cast<std::size_t>(old)];
      const int oq = octant_of(ob.px, ob.py, ob.pz, cx, cy, cz);
      const double q2 = half / 2;
      const int oc = make_cell(cx + (oq & 1 ? q2 : -q2),
                               cy + (oq & 2 ? q2 : -q2),
                               cz + (oq & 4 ? q2 : -q2), q2);
      cells[static_cast<std::size_t>(oc)].leaf = true;
      cells[static_cast<std::size_t>(oc)].body = old;
      cells[static_cast<std::size_t>(ci)].child[oq] = oc;
    }
    const auto& b = bodies[static_cast<std::size_t>(bi)];
    const int q = octant_of(b.px, b.py, b.pz, cx, cy, cz);
    const int kid = cells[static_cast<std::size_t>(ci)].child[q];
    if (kid < 0) {
      const double q2 = half / 2;
      const int nc = make_cell(cx + (q & 1 ? q2 : -q2),
                               cy + (q & 2 ? q2 : -q2),
                               cz + (q & 4 ? q2 : -q2), q2);
      cells[static_cast<std::size_t>(nc)].leaf = true;
      cells[static_cast<std::size_t>(nc)].body = bi;
      cells[static_cast<std::size_t>(ci)].child[q] = nc;
      return;
    }
    insert(kid, bi);
  }

  struct S {
    double mx = 0, my = 0, mz = 0, mass = 0;
  };
  S summarize(int ci) {
    S s;
    RefCell& c = cells[static_cast<std::size_t>(ci)];
    if (c.leaf) {
      const auto& b = bodies[static_cast<std::size_t>(c.body)];
      s.mx = b.mass * b.px;
      s.my = b.mass * b.py;
      s.mz = b.mass * b.pz;
      s.mass = b.mass;
    } else {
      for (int q = 0; q < 8; ++q) {
        if (c.child[q] < 0) continue;
        const S ks = summarize(c.child[q]);
        s.mx += ks.mx;
        s.my += ks.my;
        s.mz += ks.mz;
        s.mass += ks.mass;
      }
    }
    c.mass = s.mass;
    c.mx = s.mass > 0 ? s.mx / s.mass : 0.0;
    c.my = s.mass > 0 ? s.my / s.mass : 0.0;
    c.mz = s.mass > 0 ? s.mz / s.mass : 0.0;
    return s;
  }

  void walk(int ci, int self, double bx, double by, double bz, double* outx,
            double* outy, double* outz) {
    if (ci < 0) return;
    const RefCell& c = cells[static_cast<std::size_t>(ci)];
    if (c.leaf) {
      if (c.body == self) return;
      const double dx = c.mx - bx, dy = c.my - by, dz = c.mz - bz;
      const double d2 = dx * dx + dy * dy + dz * dz + kEps2;
      const double inv = 1.0 / (d2 * std::sqrt(d2));
      *outx += c.mass * dx * inv;
      *outy += c.mass * dy * inv;
      *outz += c.mass * dz * inv;
      return;
    }
    const double dx = c.mx - bx, dy = c.my - by, dz = c.mz - bz;
    const double d2 = dx * dx + dy * dy + dz * dz + kEps2;
    if ((2 * c.half) * (2 * c.half) < kTheta * kTheta * d2) {
      const double inv = 1.0 / (d2 * std::sqrt(d2));
      *outx += c.mass * dx * inv;
      *outy += c.mass * dy * inv;
      *outz += c.mass * dz * inv;
      return;
    }
    double sx = 0, sy = 0, sz = 0;
    for (int q = 0; q < 8; ++q) {
      walk(c.child[q], self, bx, by, bz, &sx, &sy, &sz);
    }
    *outx += sx;
    *outy += sy;
    *outz += sz;
  }

  double run(int steps) {
    const int n = static_cast<int>(bodies.size());
    ax.assign(static_cast<std::size_t>(n), 0);
    ay.assign(static_cast<std::size_t>(n), 0);
    az.assign(static_cast<std::size_t>(n), 0);
    for (int step = 0; step < steps; ++step) {
      cells.clear();
      const int root = make_cell(0.5, 0.5, 0.5, 2.0);
      for (int i = 0; i < n; ++i) insert(root, i);
      summarize(root);
      for (int i = 0; i < n; ++i) {
        double x = 0, y = 0, z = 0;
        const auto& b = bodies[static_cast<std::size_t>(i)];
        walk(root, i, b.px, b.py, b.pz, &x, &y, &z);
        ax[static_cast<std::size_t>(i)] = x;
        ay[static_cast<std::size_t>(i)] = y;
        az[static_cast<std::size_t>(i)] = z;
      }
      for (int i = 0; i < n; ++i) {
        auto& b = bodies[static_cast<std::size_t>(i)];
        b.vx += kDt * ax[static_cast<std::size_t>(i)];
        b.px += kDt * b.vx;
        b.vy += kDt * ay[static_cast<std::size_t>(i)];
        b.py += kDt * b.vy;
        b.vz += kDt * az[static_cast<std::size_t>(i)];
        b.pz += kDt * b.vz;
      }
    }
    double sum = 0;
    for (const auto& b : bodies) sum += b.px + b.py + b.pz;
    return sum;
  }
};

class Barnes final : public Benchmark {
 public:
  std::string name() const override { return "Barnes-Hut"; }
  std::string description() const override {
    return "Solves the N-body problem using hierarchical methods";
  }
  std::string problem_size(bool paper) const override {
    return paper ? "8K bodies" : "2K bodies";
  }
  bool whole_program_timing() const override { return true; }
  std::string heuristic_choice() const override { return "M+C"; }
  std::size_t num_sites() const override { return kNumSites; }

  ir::Program ir_program() const override {
    using namespace ir;
    Program p;
    p.structs = {
        {"body", {{"next", std::nullopt}}},
        {"cell", {{"child", std::nullopt}}},
        {"seg", {{"next", std::nullopt}, {"head", std::nullopt}}},
    };

    // The tree walk: eight recursive calls through cell->child — a 99.99%
    // combine that pass 1 would migrate...
    Procedure w;
    w.name = "walk";
    w.params = {"c"};
    w.rec_loop_id = 1;
    If wb;
    for (int q = 0; q < 8; ++q) {
      Call cc;
      cc.callee = "walk";
      cc.args = {{"c", {{"cell", "child"}}}};
      wb.else_branch.push_back(cc);
    }
    wb.else_branch.push_back(deref("c", kCellFld));
    wb.else_branch.push_back(deref("c", kCellKid));
    w.body.push_back(std::move(wb));
    p.procs.push_back(std::move(w));

    // ...but the per-body parallel loop passes the *same* tree root every
    // iteration (root is not updated in the loop), so pass 2 forces
    // caching for the walk — the paper's bottleneck example.
    Procedure fb;
    fb.name = "force_block";
    fb.params = {"seg", "root"};
    fb.body.push_back(deref("seg", kSegFld));
    fb.body.push_back(assign("b", "seg", {{"seg", "head"}}, SiteId{kSegFld}));
    While bodies;
    bodies.loop_id = 0;
    Call fbc;
    fbc.callee = "walk";
    fbc.args = {{"root", {}}};
    fbc.future = true;
    bodies.body.push_back(deref("b", kBodyFld));
    bodies.body.push_back(fbc);
    bodies.body.push_back(
        assign("b", "b", {{"body", "next"}}, SiteId{kBodyNext}));
    fb.body.push_back(std::move(bodies));
    p.procs.push_back(std::move(fb));

    Procedure disp;
    disp.name = "main";
    disp.params = {"s"};
    While segs;
    segs.loop_id = 2;
    Call pseg;
    pseg.callee = "force_block";
    pseg.args = {{"s", {}}, {"root", {}}};
    pseg.future = true;
    segs.body.push_back(pseg);
    segs.body.push_back(assign("s", "s", {{"seg", "next"}}, SiteId{kSegNext}));
    disp.body.push_back(std::move(segs));
    p.procs.push_back(std::move(disp));
    return p;
  }

  std::vector<std::pair<SiteId, Mechanism>> site_overrides() const override {
    // Tree-construction and summarize writes run on the sequential
    // builder thread; they go through the cache (write-through) so the
    // builder does not bounce between the cells' round-robin homes.
    return {{kInit, Mechanism::kMigrate}, {kCellWr, Mechanism::kCache}};
  }

  BenchResult run(const BenchConfig& cfg) const override {
    const Spec spec(bodies_for(cfg), cfg.seed);
    BenchResult res;
    Machine m({.nprocs = cfg.nprocs,
               .scheme = cfg.scheme,
               .costs = {.sequential_baseline = cfg.sequential_baseline},
               .observer = cfg.observer,
               .faults = cfg.faults,
               .fault_seed = cfg.fault_seed});
    m.set_site_mechanisms(site_table(cfg, &res.heuristic_report));
    const RootOut out = run_program(m, root_task(m, spec));
    res.checksum = quantize(out.sum, 1e7);
    res.build_cycles = out.build_end;
    res.total_cycles = m.makespan();
    res.kernel_cycles = res.total_cycles - res.build_cycles;
    res.stats = m.stats();
    return res;
  }

  std::uint64_t reference_checksum(const BenchConfig& cfg) const override {
    Ref ref;
    ref.bodies = Spec(bodies_for(cfg), cfg.seed).bodies;
    return quantize(ref.run(kSteps), 1e7);
  }
};

}  // namespace

const Benchmark& barnes_benchmark() {
  static const Barnes b;
  return b;
}

}  // namespace olden::bench
