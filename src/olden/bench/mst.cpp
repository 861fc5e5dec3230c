// MST: minimum spanning tree of a graph, Bentley's algorithm (Table 1, [6]).
//
// Vertices are distributed blocked and chained into one global list. Each
// of the N-1 steps (1) walks the whole vertex list to find the non-tree
// vertex closest to the tree — the walk migrates at every processor
// boundary, O(N * P) migrations in total, which "serve mostly as a
// mechanism for synchronization" and make this the paper's worst scaler
// (5.14x at 32) — and (2) relaxes every vertex's distance against the
// newly added vertex, in parallel across processor blocks.
//
// Edge weights come from a symmetric hash of the endpoint ids (the
// original stores per-vertex hash tables of random weights; a hash
// function yields the same distribution without materializing the N^2
// edges — same reads, same arithmetic in the reference).
//
// MST is one of the three benchmarks with explicit path-affinity hints:
// the vertex list's blocked layout gives next-affinity 1-(P-1)/(N-1).
#include <vector>

#include "olden/bench/benchmark.hpp"
#include "olden/runtime/api.hpp"

namespace olden::bench {
namespace {

constexpr std::int32_t kInf = 0x3fffffff;
constexpr Cycles kWorkPerScan = 120;
constexpr Cycles kWorkPerRelax = 300;

struct Vertex {
  std::int32_t id;
  std::int32_t dist;     // current distance to the tree
  std::int32_t in_tree;  // 0/1
  GPtr<Vertex> next;     // global blocked chain
};

/// Per-processor block descriptor, resident on its own processor. The
/// relax phase recomputes the block's minimum locally (Bentley's parallel
/// algorithm); the BlueRule combine then *migrates* from block to block
/// reading the cached minima — P-1 migrations per step, N steps: the
/// O(N*P) synchronizing migrations the paper blames for MST's poor
/// scaling.
struct Block {
  GPtr<Vertex> head;
  std::int32_t count;
  std::int32_t min_dist;
  std::int32_t min_id;
  GPtr<Vertex> min_vert;
};

enum Site : SiteId {
  kVNext,     // v = v->next within a block (migrate-class, local)
  kVFld,      // v->dist / v->in_tree / v->id
  kBlkMin,    // blk->min_* reads in the combine walk (migrate)
  kBlkHead,   // relax body entry reads (migrate: moves the body)
  kBlkWr,     // blk->min_* writes at the end of a relax (local)
  kInit,
  kNumSites
};

/// Symmetric deterministic edge weight in [1, 100000].
std::int32_t edge_weight(std::int32_t a, std::int32_t b) {
  const std::uint64_t lo = static_cast<std::uint32_t>(a < b ? a : b);
  const std::uint64_t hi = static_cast<std::uint32_t>(a < b ? b : a);
  std::uint64_t x = (hi << 32) | lo;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return static_cast<std::int32_t>(x % 100000) + 1;
}

int vertices_for(const BenchConfig& cfg) {
  if (cfg.tiny) return 256;
  return cfg.paper_size ? 1024 : 1024;
}

struct Built {
  std::vector<GPtr<Block>> blocks;  // root-local dispatch array
};

Task<Built> build(Machine& m, int n) {
  Built out;
  GPtr<Vertex> prev;
  std::vector<GPtr<Vertex>> firsts;  // first vertex of each block
  std::vector<std::int32_t> counts;
  std::vector<ProcId> owners;
  ProcId prev_owner = kMaxProcs;
  for (int i = 0; i < n; ++i) {
    const ProcId owner = block_owner(static_cast<std::uint64_t>(i),
                                     static_cast<std::uint64_t>(n), m.nprocs());
    auto v = m.alloc<Vertex>(owner);
    co_await wr(v, &Vertex::id, std::int32_t{i}, kInit);
    co_await wr(v, &Vertex::dist, i == 0 ? std::int32_t{0} : kInf, kInit);
    co_await wr(v, &Vertex::in_tree, std::int32_t{0}, kInit);
    if (prev) co_await wr(prev, &Vertex::next, v, kInit);
    if (owner != prev_owner) {
      firsts.push_back(v);
      counts.push_back(0);
      owners.push_back(owner);
      prev_owner = owner;
    }
    counts.back() += 1;
    prev = v;
  }
  for (std::size_t b = 0; b < firsts.size(); ++b) {
    auto blk = m.alloc<Block>(owners[b]);
    co_await wr(blk, &Block::head, firsts[b], kInit);
    co_await wr(blk, &Block::count, counts[b], kInit);
    co_await wr(blk, &Block::min_dist, kInf, kInit);
    co_await wr(blk, &Block::min_id, std::int32_t{-1}, kInit);
    out.blocks.push_back(blk);
  }
  co_return out;
}

struct MinFound {
  std::int32_t dist = kInf;
  std::int32_t id = -1;
  GPtr<Vertex> vert;
};

/// The BlueRule combine: visit each block's cached minimum, migrating
/// from processor to processor (the paper's synchronization migrations).
Task<MinFound> find_min(Machine& m, const std::vector<GPtr<Block>>& blocks) {
  MinFound best;
  for (const GPtr<Block>& blk : blocks) {
    const auto d = co_await rd(blk, &Block::min_dist, kBlkMin);
    m.work(kWorkPerScan);
    if (d < best.dist) {
      best.dist = d;
      best.id = co_await rd(blk, &Block::min_id, kBlkMin);
      best.vert = co_await rd(blk, &Block::min_vert, kBlkMin);
    }
  }
  co_return best;
}

/// Relax every vertex of the block against the newly added vertex and
/// recompute the block's minimum (all processor-local after the body
/// migrates in).
Task<int> relax_block(Machine& m, GPtr<Block> blk, std::int32_t new_id) {
  GPtr<Vertex> v = co_await rd(blk, &Block::head, kBlkHead);
  const auto count = co_await rd(blk, &Block::count, kBlkHead);
  std::int32_t best = kInf;
  std::int32_t best_id = -1;
  GPtr<Vertex> best_vert;
  for (std::int32_t i = 0; i < count; ++i) {
    const auto in_tree = co_await rd(v, &Vertex::in_tree, kVFld);
    if (!in_tree) {
      const auto id = co_await rd(v, &Vertex::id, kVFld);
      if (new_id >= 0) {
        const std::int32_t w = edge_weight(new_id, id);
        const auto d = co_await rd(v, &Vertex::dist, kVFld);
        if (w < d) co_await wr(v, &Vertex::dist, w, kVFld);
      }
      const auto nd = co_await rd(v, &Vertex::dist, kVFld);
      if (nd < best) {
        best = nd;
        best_id = id;
        best_vert = v;
      }
    }
    m.work(kWorkPerRelax);
    if (i + 1 < count) v = co_await rd(v, &Vertex::next, kVNext);
  }
  co_await wr(blk, &Block::min_dist, best, kBlkWr);
  co_await wr(blk, &Block::min_id, best_id, kBlkWr);
  co_await wr(blk, &Block::min_vert, best_vert, kBlkWr);
  co_return 0;
}

struct RootOut {
  std::int64_t total = 0;
  Cycles build_end = 0;
};

Task<RootOut> root(Machine& m, int n) {
  RootOut out;
  const Built b = co_await build(m, n);
  out.build_end = m.now_max();

  auto relax_all = [&](std::int32_t new_id) -> Task<int> {
    std::vector<Future<int>> fs;
    fs.reserve(b.blocks.size());
    for (const GPtr<Block>& blk : b.blocks) {
      fs.push_back(co_await futurecall(relax_block(m, blk, new_id)));
    }
    for (auto& f : fs) co_await touch(f);
    co_return 0;
  };

  // Seed: vertex 0 (dist 0) is the unique minimum; add it, then relax.
  co_await relax_all(-1);
  {
    const MinFound first = co_await find_min(m, b.blocks);
    co_await wr(first.vert, &Vertex::in_tree, std::int32_t{1}, kVFld);
    co_await relax_all(first.id);
  }

  for (int step = 1; step < n; ++step) {
    const MinFound best = co_await find_min(m, b.blocks);
    out.total += best.dist;
    co_await wr(best.vert, &Vertex::in_tree, std::int32_t{1}, kVFld);
    co_await relax_all(best.id);
  }
  co_return out;
}

class Mst final : public Benchmark {
 public:
  std::string name() const override { return "MST"; }
  std::string description() const override {
    return "Computes the minimum spanning tree of a graph";
  }
  std::string problem_size(bool) const override { return "1K nodes"; }
  bool whole_program_timing() const override { return false; }
  std::string heuristic_choice() const override { return "M"; }
  std::size_t num_sites() const override { return kNumSites; }

  ir::Program ir_program() const override {
    using namespace ir;
    Program p;
    // Explicit hint (one of the paper's three): blocked layout,
    // 1 - (P-1)/(N-1) at P=32, N=1024.
    const double blocked = 1.0 - 31.0 / 1023.0;
    p.structs = {
        {"vertex", {{"next", blocked}, {"dist", std::nullopt},
                    {"in_tree", std::nullopt}, {"id", std::nullopt}}},
        {"block", {{"next", 0.95}, {"head", std::nullopt},
                   {"count", std::nullopt}}},
    };

    // The combine walk over per-processor minima; the programmer hints
    // the block chain high so it migrates (the synchronization pattern).
    Procedure fm;
    fm.name = "find_min";
    fm.params = {"blk"};
    While scan;
    scan.loop_id = 0;
    scan.body.push_back(deref("blk", kBlkMin));
    scan.body.push_back(
        assign("blk", "blk", {{"block", "next"}}, SiteId{kBlkMin}));
    fm.body.push_back(std::move(scan));
    p.procs.push_back(std::move(fm));

    Procedure rb;
    rb.name = "relax_block";
    rb.params = {"blk"};
    rb.body.push_back(deref("blk", kBlkHead));
    rb.body.push_back(deref("blk", kBlkWr));
    rb.body.push_back(
        assign("v", "blk", {{"block", "head"}}, SiteId{kBlkHead}));
    While relax;
    relax.loop_id = 1;
    relax.body.push_back(deref("v", kVFld));
    relax.body.push_back(
        assign("v", "v", {{"vertex", "next"}}, SiteId{kVNext}));
    rb.body.push_back(std::move(relax));
    p.procs.push_back(std::move(rb));

    Procedure main;
    main.name = "main";
    main.params = {"blocks"};
    While dispatch;
    dispatch.loop_id = 2;
    Call per_blk;
    per_blk.callee = "relax_block";
    per_blk.args = {{"blk", {}}};
    per_blk.future = true;
    dispatch.body.push_back(per_blk);
    dispatch.body.push_back(
        assign("blk", "blk", {{"block", "next"}}, SiteId{kBlkMin}));
    main.body.push_back(std::move(dispatch));
    p.procs.push_back(std::move(main));
    return p;
  }

  std::vector<std::pair<SiteId, Mechanism>> site_overrides() const override {
    return {{kInit, Mechanism::kMigrate}};
  }

  BenchResult run(const BenchConfig& cfg) const override {
    const int n = vertices_for(cfg);
    BenchResult res;
    Machine m({.nprocs = cfg.nprocs,
               .scheme = cfg.scheme,
               .costs = {.sequential_baseline = cfg.sequential_baseline},
               .observer = cfg.observer,
               .faults = cfg.faults,
               .fault_seed = cfg.fault_seed});
    m.set_site_mechanisms(site_table(cfg, &res.heuristic_report));
    const RootOut out = run_program(m, root(m, n));
    res.checksum = static_cast<std::uint64_t>(out.total);
    res.build_cycles = out.build_end;
    res.total_cycles = m.makespan();
    res.kernel_cycles = res.total_cycles - res.build_cycles;
    res.stats = m.stats();
    return res;
  }

  std::uint64_t reference_checksum(const BenchConfig& cfg) const override {
    // Prim's algorithm on the same hashed weights.
    const int n = vertices_for(cfg);
    std::vector<std::int32_t> dist(static_cast<std::size_t>(n), kInf);
    std::vector<bool> in_tree(static_cast<std::size_t>(n), false);
    dist[0] = 0;
    // Seed with vertex 0 exactly as the simulated version does.
    in_tree[0] = true;
    for (int i = 1; i < n; ++i) {
      dist[static_cast<std::size_t>(i)] = edge_weight(0, i);
    }
    std::int64_t total = 0;
    for (int step = 1; step < n; ++step) {
      std::int32_t best = kInf;
      int bi = -1;
      for (int i = 0; i < n; ++i) {
        if (!in_tree[static_cast<std::size_t>(i)] &&
            dist[static_cast<std::size_t>(i)] < best) {
          best = dist[static_cast<std::size_t>(i)];
          bi = i;
        }
      }
      total += best;
      in_tree[static_cast<std::size_t>(bi)] = true;
      for (int i = 0; i < n; ++i) {
        if (in_tree[static_cast<std::size_t>(i)]) continue;
        const std::int32_t w = edge_weight(bi, i);
        if (w < dist[static_cast<std::size_t>(i)]) {
          dist[static_cast<std::size_t>(i)] = w;
        }
      }
    }
    return static_cast<std::uint64_t>(total);
  }
};

}  // namespace

const Benchmark& mst_benchmark() {
  static const Mst b;
  return b;
}

}  // namespace olden::bench
