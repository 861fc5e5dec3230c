// Perimeter: perimeter of a quad-tree encoded raster image (Table 1, [36]).
//
// The image is a rasterized disc; the quadtree splits mixed squares into
// four quadrants down to single pixels. Samet's algorithm visits every
// black leaf and, for each of its four sides, locates the adjacent
// neighbour of greater-or-equal size by walking *up* through parent
// pointers and mirroring back *down* — "superficially similar to TreeAdd,
// but traverses the tree in a very different way".
//
// Heuristic behaviour (§5): the main traversal is a four-way recursion
// (affinity combine ~99%) — migrate; neighbour finding follows a single
// unpredictable path ("they may be far away in the tree") — cache.
// Perimeter is one of the three benchmarks with explicit affinity hints
// (the parent/mirror paths are hinted low).
//
// The host reference counts black-white pixel adjacencies directly on the
// image function; Samet's theorem says the quadtree computation equals it
// exactly.
#include <vector>

#include "olden/bench/benchmark.hpp"
#include "olden/runtime/api.hpp"

namespace olden::bench {
namespace {

constexpr Cycles kWorkPerNode = 50;
constexpr Cycles kWorkPerProbe = 40;

enum Color : std::int32_t { kWhite = 0, kBlack = 1, kGrey = 2 };
enum Quadrant : std::int32_t { kNW = 0, kNE = 1, kSW = 2, kSE = 3 };
enum Side : int { kNorth = 0, kEast = 1, kSouth = 2, kWest = 3 };

struct QNode {
  std::int32_t color;
  std::int32_t quadrant;  // which child of the parent this node is
  std::int32_t size;      // side length of the covered square
  GPtr<QNode> child[4];
  GPtr<QNode> parent;
};

enum Site : SiteId {
  kChild,      // traversal child reads: migrate
  kColor,      // t->color on the traversal variable
  kParent,     // neighbour finding: up-walk (cache)
  kNbChild,    // neighbour finding: mirrored down-walk (cache)
  kNbColor,    // neighbour colour/size probes (cache)
  kNbSize,
  kInit,
  kNumSites
};

/// The image: a disc of radius 0.37*S centred in an S x S grid. A square
/// is uniformly black iff its farthest pixel centre is inside the circle,
/// uniformly white iff its nearest pixel centre is outside.
struct Image {
  int size;
  double cx, cy, r2;

  explicit Image(int s)
      : size(s),
        cx(0.5 * s),
        cy(0.5 * s),
        r2(0.37 * s * 0.37 * s) {}

  [[nodiscard]] bool pixel_black(int x, int y) const {
    const double dx = x + 0.5 - cx;
    const double dy = y + 0.5 - cy;
    return dx * dx + dy * dy <= r2;
  }

  /// 0 = all white, 1 = all black, 2 = mixed, for square [x,x+s)x[y,y+s).
  [[nodiscard]] int classify(int x, int y, int s) const {
    auto clamp = [](double v, double lo, double hi) {
      return v < lo ? lo : (v > hi ? hi : v);
    };
    const double lo_x = x + 0.5, hi_x = x + s - 0.5;
    const double lo_y = y + 0.5, hi_y = y + s - 0.5;
    // Nearest pixel centre to the disc centre:
    const double nx = clamp(cx, lo_x, hi_x), ny = clamp(cy, lo_y, hi_y);
    const double nd = (nx - cx) * (nx - cx) + (ny - cy) * (ny - cy);
    // Farthest pixel centre:
    const double fx = (cx - lo_x > hi_x - cx) ? lo_x : hi_x;
    const double fy = (cy - lo_y > hi_y - cy) ? lo_y : hi_y;
    const double fd = (fx - cx) * (fx - cx) + (fy - cy) * (fy - cy);
    if (fd <= r2) return kBlack;
    if (nd > r2) return kWhite;
    return kGrey;
  }
};

// ---------------------------------------------------------------------------

Task<GPtr<QNode>> build(Machine& m, const Image& img, int x, int y, int s,
                        std::int32_t quadrant, GPtr<QNode> parent, ProcId plo,
                        ProcId phi) {
  const int cls = img.classify(x, y, s);
  auto n = m.alloc<QNode>(plo);
  co_await wr(n, &QNode::color, static_cast<std::int32_t>(cls), kInit);
  co_await wr(n, &QNode::quadrant, quadrant, kInit);
  co_await wr(n, &QNode::size, static_cast<std::int32_t>(s), kInit);
  co_await wr(n, &QNode::parent, parent, kInit);
  static const QNode probe{};
  if (cls == kGrey) {
    const int hs = s / 2;
    const int xs[4] = {x, x + hs, x, x + hs};       // NW NE SW SE
    const int ys[4] = {y, y, y + hs, y + hs};
    for (int q = 0; q < 4; ++q) {
      const ProcId span = static_cast<ProcId>(phi - plo);
      const ProcId clo = plo + static_cast<ProcId>(span * q / 4);
      ProcId chi = q == 3 ? phi : plo + static_cast<ProcId>(span * (q + 1) / 4);
      if (chi <= clo) chi = clo + 1;
      auto c =
          co_await build(m, img, xs[q], ys[q], hs, q, n, clo, chi);
      const auto off = static_cast<std::uint32_t>(
          reinterpret_cast<const char*>(&probe.child[q]) -
          reinterpret_cast<const char*>(&probe));
      co_await detail::WriteAwaiter<GPtr<QNode>>{n.addr().plus(off), kInit, c};
    }
  }
  co_return n;
}

detail::ReadAwaiter<GPtr<QNode>> rd_kid(GPtr<QNode> v, int q, SiteId site) {
  static const QNode probe{};
  const auto off = static_cast<std::uint32_t>(
      reinterpret_cast<const char*>(&probe.child[q]) -
      reinterpret_cast<const char*>(&probe));
  return {v.addr().plus(off), site};
}

/// Mirror tables for Samet neighbour finding. adj[side][q] is true if
/// quadrant q is adjacent to that side of the parent; mirror[side][q] is
/// the quadrant reflected across that side.
constexpr bool kAdj[4][4] = {
    {true, true, false, false},   // north: NW NE
    {false, true, false, true},   // east:  NE SE
    {false, false, true, true},   // south: SW SE
    {true, false, true, false},   // west:  NW SW
};
constexpr int kMirror[4][4] = {
    {kSW, kSE, kNW, kNE},  // north/south flip
    {kNE, kNW, kSE, kSW},  // east/west flip
    {kSW, kSE, kNW, kNE},
    {kNE, kNW, kSE, kSW},
};

/// Greater-or-equal-size neighbour of t on `side` (null at image edge).
Task<GPtr<QNode>> neighbor(Machine& m, GPtr<QNode> t, int side) {
  const auto parent = co_await rd(t, &QNode::parent, kParent);
  if (!parent) co_return GPtr<QNode>{};
  const auto q = co_await rd(t, &QNode::quadrant, kNbColor);
  m.work(kWorkPerProbe);
  if (!kAdj[side][q]) {
    // The neighbour is a sibling: mirror across the side inside the
    // same parent.
    co_return co_await rd_kid(parent, kMirror[side][q], kNbChild);
  }
  // We sit against the parent's own `side`: the neighbour lies outside.
  const GPtr<QNode> up = co_await neighbor(m, parent, side);
  if (!up) co_return up;
  const auto up_color = co_await rd(up, &QNode::color, kNbColor);
  if (up_color != kGrey) co_return up;
  co_return co_await rd_kid(up, kMirror[side][q], kNbChild);
}

/// Total length of white (or image-edge) border along `side` of the black
/// leaf `t`, examining the neighbour subtree's adjacent edge.
Task<std::int64_t> count_side(Machine& m, GPtr<QNode> nb, int side,
                              std::int64_t size) {
  if (!nb) co_return size;  // image edge counts as perimeter
  const auto color = co_await rd(nb, &QNode::color, kNbColor);
  m.work(kWorkPerProbe);
  if (color == kWhite) co_return size;
  if (color == kBlack) co_return 0;
  // Grey: sum the two children adjacent to *our* side (i.e. on the
  // neighbour's opposite side).
  const int opposite = (side + 2) % 4;
  std::int64_t sum = 0;
  for (int q = 0; q < 4; ++q) {
    if (!kAdj[opposite][q]) continue;
    const auto c = co_await rd_kid(nb, q, kNbChild);
    sum += co_await count_side(m, c, side, size / 2);
  }
  co_return sum;
}

Task<std::int64_t> perimeter(Machine& m, GPtr<QNode> t) {
  const auto color = co_await rd(t, &QNode::color, kColor);
  m.work(kWorkPerNode);
  if (color == kGrey) {
    std::vector<Future<std::int64_t>> fs;
    for (int q = 0; q < 3; ++q) {
      const auto c = co_await rd_kid(t, q, kChild);
      fs.push_back(co_await futurecall(perimeter(m, c)));
    }
    const auto last = co_await rd_kid(t, 3, kChild);
    std::int64_t sum = co_await perimeter(m, last);
    for (auto& f : fs) sum += co_await touch(f);
    co_return sum;
  }
  if (color == kWhite) co_return 0;
  // Black leaf: probe all four sides.
  const auto size = co_await rd(t, &QNode::size, kColor);
  std::int64_t sum = 0;
  for (int side = 0; side < 4; ++side) {
    const GPtr<QNode> nb = co_await neighbor(m, t, side);
    if (nb) {
      const auto nb_size = co_await rd(nb, &QNode::size, kNbSize);
      (void)nb_size;
    }
    sum += co_await count_side(m, nb, side, size);
  }
  co_return sum;
}

struct RootOut {
  std::int64_t perim = 0;
  Cycles build_end = 0;
};

Task<RootOut> root(Machine& m, const Image& img) {
  RootOut out;
  auto t = co_await build(m, img, 0, 0, img.size, kNW, GPtr<QNode>{}, 0,
                          m.nprocs());
  out.build_end = m.now_max();
  out.perim = co_await perimeter(m, t);
  co_return out;
}

int image_size_for(const BenchConfig& cfg) {
  if (cfg.tiny) return 256;
  return cfg.paper_size ? 4096 : 1024;
}

class Perimeter final : public Benchmark {
 public:
  std::string name() const override { return "Perimeter"; }
  std::string description() const override {
    return "Computes the perimeter of a quad-tree encoded raster image";
  }
  std::string problem_size(bool paper) const override {
    return paper ? "4K x 4K image" : "1K x 1K image";
  }
  bool whole_program_timing() const override { return false; }
  std::string heuristic_choice() const override { return "M+C"; }
  std::size_t num_sites() const override { return kNumSites; }

  ir::Program ir_program() const override {
    using namespace ir;
    Program p;
    // Explicit hints (the paper names Perimeter among the three): the
    // up/mirror paths of neighbour finding are hinted low — neighbours
    // "may be far away in the tree".
    p.structs = {{"qnode",
                  {{"child", std::nullopt}, {"parent", 0.60},
                   {"color", std::nullopt}, {"size", std::nullopt}}}};

    Procedure per;
    per.name = "perimeter";
    per.params = {"t"};
    per.rec_loop_id = 0;
    If br;
    for (int q = 0; q < 4; ++q) {
      Call c;
      c.callee = "perimeter";
      c.args = {{"t", {{"qnode", "child"}}}};
      c.future = q < 3;
      br.then_branch.push_back(c);
    }
    br.then_branch.push_back(deref("t", kChild));
    Call nbc;
    nbc.callee = "neighbor";
    nbc.args = {{"t", {}}};
    br.else_branch.push_back(deref("t", kColor));
    br.else_branch.push_back(nbc);
    per.body.push_back(std::move(br));
    p.procs.push_back(std::move(per));

    Procedure nb;
    nb.name = "neighbor";
    nb.params = {"t"};
    nb.rec_loop_id = 1;
    If nbr;
    Call up;
    up.callee = "neighbor";
    up.args = {{"t", {{"qnode", "parent"}}}};
    nbr.else_branch.push_back(
        assign("p", "t", {{"qnode", "parent"}}, SiteId{kParent}));
    nbr.else_branch.push_back(up);
    nbr.else_branch.push_back(assign("q", "p", {{"qnode", "child"}},
                                     SiteId{kNbChild}));
    nbr.else_branch.push_back(deref("q", kNbColor));
    nbr.else_branch.push_back(deref("q", kNbSize));
    nb.body.push_back(std::move(nbr));
    p.procs.push_back(std::move(nb));
    return p;
  }

  std::vector<std::pair<SiteId, Mechanism>> site_overrides() const override {
    return {{kInit, Mechanism::kMigrate}};
  }

  BenchResult run(const BenchConfig& cfg) const override {
    const Image img(image_size_for(cfg));
    BenchResult res;
    Machine m({.nprocs = cfg.nprocs,
               .scheme = cfg.scheme,
               .costs = {.sequential_baseline = cfg.sequential_baseline},
               .observer = cfg.observer,
               .faults = cfg.faults,
               .fault_seed = cfg.fault_seed});
    m.set_site_mechanisms(site_table(cfg, &res.heuristic_report));
    const RootOut out = run_program(m, root(m, img));
    res.checksum = static_cast<std::uint64_t>(out.perim);
    res.build_cycles = out.build_end;
    res.total_cycles = m.makespan();
    res.kernel_cycles = res.total_cycles - res.build_cycles;
    res.stats = m.stats();
    return res;
  }

  std::uint64_t reference_checksum(const BenchConfig& cfg) const override {
    // Pixel-level count: every black pixel contributes one unit per
    // white-or-outside 4-neighbour. Equals the quadtree sum exactly.
    const Image img(image_size_for(cfg));
    std::int64_t perim = 0;
    const int s = img.size;
    // Only pixels near the circle boundary can contribute; scan a band.
    for (int y = 0; y < s; ++y) {
      for (int x = 0; x < s; ++x) {
        if (!img.pixel_black(x, y)) continue;
        if (x == 0 || !img.pixel_black(x - 1, y)) ++perim;
        if (x == s - 1 || !img.pixel_black(x + 1, y)) ++perim;
        if (y == 0 || !img.pixel_black(x, y - 1)) ++perim;
        if (y == s - 1 || !img.pixel_black(x, y + 1)) ++perim;
      }
    }
    return static_cast<std::uint64_t>(perim);
  }
};

}  // namespace

const Benchmark& perimeter_benchmark() {
  static const Perimeter b;
  return b;
}

}  // namespace olden::bench
