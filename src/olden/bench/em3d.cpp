// EM3D: electromagnetic wave propagation in a 3D object (Table 1).
//
// The object is a bipartite graph of E and H nodes. Each timestep computes
// new E values from a weighted sum of neighbouring H values, then new H
// values from the E values. Node lists are distributed blocked; edges
// cross processor boundaries with low locality.
//
// Heuristic behaviour (§5): the node-list walk is a parallelizable loop
// (each node's update is a futurecall), so its induction variable
// migrates — "migration for the nodes, because they have high locality".
// The neighbour-value reads dereference a different variable and cache —
// "software caching for the edges, because they have low locality". This
// reproduces the ghost-node-free structure the paper compares with Culler
// et al.'s Split-C implementation.
//
// The graph is generated independently of the machine size (edge locality
// is by index distance, not processor), so the checksum is identical for
// every processor count and coherence scheme.
#include <vector>

#include "olden/bench/benchmark.hpp"
#include "olden/runtime/api.hpp"
#include "olden/support/rng.hpp"

namespace olden::bench {
namespace {

constexpr int kDegree = 4;

struct GraphParams {
  int nodes_per_side = 1000;  // paper: 2K nodes total
  int steps = 100;
};

struct ENode {
  double value;
  std::int32_t degree;
  GPtr<ENode> next;                 // intra-kind list
  GPtr<GPtr<ENode>> neighbors;      // array[degree] of other-kind nodes
  GPtr<double> weights;             // array[degree]
};

/// A per-processor segment descriptor; the kernel's outer parallel loop
/// walks these.
struct Segment {
  GPtr<ENode> head;
  std::int32_t count;
  GPtr<Segment> next;
};

enum Site : SiteId {
  kNext,         // l = l->next (node walk: migrate)
  kNeighborPtr,  // l->neighbors[j] (migrate class: same var as walk)
  kWeight,       // l->weights[j]
  kValueRead,    // nb->value  (THE cached edge reads)
  kValueWrite,   // l->value = ...
  kDegreeFld,    // l->degree
  kSegHead,      // s->head
  kSegCount,     // s->count
  kSegNext,      // s = s->next
  kInit,         // builder stores
  kNumSites
};

constexpr Cycles kWorkPerNode = 100;
constexpr Cycles kWorkPerEdge = 70;

/// Host-side graph spec, shared by the simulated build and the reference
/// implementation so they construct the identical object.
struct GraphSpec {
  struct Node {
    double value;
    int neighbors[kDegree];   // indices into the other side
    double weights[kDegree];
  };
  std::vector<Node> e, h;

  GraphSpec(const GraphParams& gp, std::uint64_t seed) {
    Rng rng(seed);
    const int n = gp.nodes_per_side;
    auto make_side = [&](std::vector<Node>& side, double bias) {
      side.resize(n);
      for (int i = 0; i < n; ++i) {
        side[i].value = bias + 0.001 * static_cast<double>(i % 97);
        for (int j = 0; j < kDegree; ++j) {
          // 90% of edges stay within +/-4 indices (which a blocked layout
          // keeps mostly on-processor); 10% go anywhere. At 32 processors
          // this yields the paper's ~19% remote cacheable reads.
          int nb;
          if (rng.next_double() < 0.90) {
            nb = i + static_cast<int>(rng.next_below(9)) - 4;
            nb = ((nb % n) + n) % n;
          } else {
            nb = static_cast<int>(rng.next_below(n));
          }
          side[i].neighbors[j] = nb;
          // Small couplings keep the iteration bounded over 100 steps
          // (the checksum would overflow under an expanding map).
          side[i].weights[j] =
              (0.02 + 0.08 * rng.next_double()) / kDegree;
        }
      }
    };
    make_side(e, 1.0);
    make_side(h, -1.0);
  }
};

struct Built {
  GPtr<Segment> e_segs, h_segs;
};

/// Build one side's nodes (blocked), link them into per-processor lists,
/// then wire neighbour pointers across sides.
Task<Built> build(Machine& m, const GraphSpec& spec) {
  const int n = static_cast<int>(spec.e.size());
  std::vector<GPtr<ENode>> e_nodes(n), h_nodes(n);
  auto alloc_side = [&](const std::vector<GraphSpec::Node>& side,
                        std::vector<GPtr<ENode>>& out) -> Task<int> {
    for (int i = 0; i < n; ++i) {
      const ProcId owner = block_owner(i, n, m.nprocs());
      out[i] = m.alloc<ENode>(owner);
      co_await wr(out[i], &ENode::value, side[i].value, kInit);
      co_await wr(out[i], &ENode::degree, std::int32_t{kDegree}, kInit);
      co_await wr(out[i], &ENode::neighbors,
                  m.alloc_array<GPtr<ENode>>(owner, kDegree), kInit);
      co_await wr(out[i], &ENode::weights,
                  m.alloc_array<double>(owner, kDegree), kInit);
      if (i > 0) co_await wr(out[i - 1], &ENode::next, out[i], kInit);
    }
    co_return 0;
  };
  co_await alloc_side(spec.e, e_nodes);
  co_await alloc_side(spec.h, h_nodes);

  auto wire = [&](const std::vector<GraphSpec::Node>& side,
                  std::vector<GPtr<ENode>>& mine,
                  std::vector<GPtr<ENode>>& other) -> Task<int> {
    for (int i = 0; i < n; ++i) {
      const auto nbs = co_await rd(mine[i], &ENode::neighbors, kInit);
      const auto ws = co_await rd(mine[i], &ENode::weights, kInit);
      for (int j = 0; j < kDegree; ++j) {
        co_await wr_elem(nbs, j, other[side[i].neighbors[j]], kInit);
        co_await wr_elem(ws, j, side[i].weights[j], kInit);
      }
    }
    co_return 0;
  };
  co_await wire(spec.e, e_nodes, h_nodes);
  co_await wire(spec.h, h_nodes, e_nodes);

  // Segment descriptors: one per processor block, chained. They live on
  // processor 0 — they are the SPMD program's dispatch structure, and the
  // dispatcher must walk them *without* migrating so that futurecalled
  // segment bodies (which migrate to their data at the first node
  // dereference) leave a stealable continuation behind.
  auto make_segs = [&](std::vector<GPtr<ENode>>& nodes) -> Task<GPtr<Segment>> {
    GPtr<Segment> head, tail;
    int i = 0;
    while (i < n) {
      const ProcId owner = block_owner(i, n, m.nprocs());
      int j = i;
      while (j < n && block_owner(j, n, m.nprocs()) == owner) ++j;
      auto s = m.alloc<Segment>(0);
      co_await wr(s, &Segment::head, nodes[i], kInit);
      co_await wr(s, &Segment::count, static_cast<std::int32_t>(j - i), kInit);
      if (!head) {
        head = s;
      } else {
        co_await wr(tail, &Segment::next, s, kInit);
      }
      tail = s;
      i = j;
    }
    co_return head;
  };
  Built b;
  b.e_segs = co_await make_segs(e_nodes);
  b.h_segs = co_await make_segs(h_nodes);
  co_return b;
}

Task<int> compute_node(Machine& m, GPtr<ENode> l) {
  const auto nbs = co_await rd(l, &ENode::neighbors, kNeighborPtr);
  const auto ws = co_await rd(l, &ENode::weights, kWeight);
  const std::int32_t deg = co_await rd(l, &ENode::degree, kDegreeFld);
  double v = co_await rd(l, &ENode::value, kValueWrite);
  for (std::int32_t j = 0; j < deg; ++j) {
    const GPtr<ENode> nb = co_await rd_elem(nbs, j, kNeighborPtr);
    const double w = co_await rd_elem(ws, j, kWeight);
    const double nv = co_await rd(nb, &ENode::value, kValueRead);
    v -= w * nv;
    m.work(kWorkPerEdge);
  }
  co_await wr(l, &ENode::value, v, kValueWrite);
  m.work(kWorkPerNode);
  co_return 0;
}

Task<int> compute_segment(Machine& m, GPtr<Segment> seg) {
  const auto head = co_await rd(seg, &Segment::head, kSegHead);
  const auto count = co_await rd(seg, &Segment::count, kSegCount);
  GPtr<ENode> l = head;
  std::vector<Future<int>> fs;
  fs.reserve(static_cast<std::size_t>(count));
  for (std::int32_t i = 0; i < count; ++i) {
    fs.push_back(co_await futurecall(compute_node(m, l)));
    if (i + 1 < count) l = co_await rd(l, &ENode::next, kNext);
  }
  for (auto& f : fs) co_await touch(f);
  co_return 0;
}

Task<int> compute_side(Machine& m, GPtr<Segment> segs) {
  std::vector<Future<int>> fs;
  GPtr<Segment> s = segs;
  while (s) {
    fs.push_back(co_await futurecall(compute_segment(m, s)));
    s = co_await rd(s, &Segment::next, kSegNext);
  }
  for (auto& f : fs) co_await touch(f);
  co_return 0;
}

Task<double> checksum_side([[maybe_unused]] Machine& m, GPtr<Segment> segs) {
  double acc = 0;
  GPtr<Segment> s = segs;
  while (s) {
    GPtr<ENode> l = co_await rd(s, &Segment::head, kSegHead);
    const auto count = co_await rd(s, &Segment::count, kSegCount);
    for (std::int32_t i = 0; i < count; ++i) {
      acc += co_await rd(l, &ENode::value, kValueRead);
      l = co_await rd(l, &ENode::next, kNext);
    }
    s = co_await rd(s, &Segment::next, kSegNext);
  }
  co_return acc;
}

struct RootOut {
  double sum = 0;
  Cycles build_end = 0;
};

Task<RootOut> root(Machine& m, const GraphSpec& spec, int steps) {
  RootOut out;
  const Built b = co_await build(m, spec);
  out.build_end = m.now_max();
  for (int t = 0; t < steps; ++t) {
    co_await compute_side(m, b.e_segs);  // E from H
    co_await compute_side(m, b.h_segs);  // H from E
  }
  out.sum = co_await checksum_side(m, b.e_segs) +
            co_await checksum_side(m, b.h_segs);
  co_return out;
}

GraphParams params_for(const BenchConfig& cfg) {
  GraphParams gp;
  if (cfg.tiny) {
    gp.nodes_per_side = 200;
    gp.steps = 10;
    return gp;
  }
  if (!cfg.paper_size) {
    gp.nodes_per_side = 1000;
    gp.steps = 100;
  }
  return gp;  // the paper size (2K nodes) is the default size
}

class Em3d final : public Benchmark {
 public:
  std::string name() const override { return "EM3D"; }
  std::string description() const override {
    return "Simulates the propagation of electro-magnetic waves in a 3D object";
  }
  std::string problem_size(bool) const override { return "2K nodes"; }
  bool whole_program_timing() const override { return false; }
  std::string heuristic_choice() const override { return "M+C"; }
  std::size_t num_sites() const override { return kNumSites; }

  ir::Program ir_program() const override {
    using namespace ir;
    Program p;
    p.structs = {
        {"node", {{"next", std::nullopt}, {"neighbors", std::nullopt},
                  {"weights", std::nullopt}, {"value", std::nullopt},
                  {"degree", std::nullopt}}},
        {"segment", {{"next", std::nullopt}, {"head", std::nullopt},
                     {"count", std::nullopt}}},
    };

    // compute_node(l): reads l's arrays, caches neighbour values.
    Procedure cn;
    cn.name = "compute_node";
    cn.params = {"l"};
    While edges;
    edges.loop_id = 2;  // for j in 0..degree: no pointer induction var
    edges.body.push_back(assign("nb", "l", {{"node", "neighbors"}},
                                SiteId{kNeighborPtr}));
    edges.body.push_back(deref("l", kWeight));
    edges.body.push_back(deref("nb", kValueRead));
    cn.body.push_back(deref("l", kDegreeFld));
    cn.body.push_back(std::move(edges));
    cn.body.push_back(deref("l", kValueWrite));
    p.procs.push_back(std::move(cn));

    // compute_segment(l): parallelizable walk of the node list.
    Procedure cs;
    cs.name = "compute_segment";
    cs.params = {"seg"};
    cs.body.push_back(deref("seg", kSegHead));
    cs.body.push_back(deref("seg", kSegCount));
    cs.body.push_back(assign("l", "seg", {{"segment", "head"}}, kSegHead));
    While nodes;
    nodes.loop_id = 1;
    Call per_node;
    per_node.callee = "compute_node";
    per_node.args = {{"l", {}}};
    per_node.future = true;
    nodes.body.push_back(per_node);
    nodes.body.push_back(assign("l", "l", {{"node", "next"}}, SiteId{kNext}));
    cs.body.push_back(std::move(nodes));
    p.procs.push_back(std::move(cs));

    // compute_side(s): parallelizable walk of the segment list.
    Procedure side;
    side.name = "compute_side";
    side.params = {"s"};
    While segs;
    segs.loop_id = 0;
    Call per_seg;
    per_seg.callee = "compute_segment";
    per_seg.args = {{"s", {}}};
    per_seg.future = true;
    segs.body.push_back(per_seg);
    segs.body.push_back(
        assign("s", "s", {{"segment", "next"}}, SiteId{kSegNext}));
    side.body.push_back(std::move(segs));
    p.procs.push_back(std::move(side));
    return p;
  }

  std::vector<std::pair<SiteId, Mechanism>> site_overrides() const override {
    return {{kInit, Mechanism::kMigrate}};
  }

  BenchResult run(const BenchConfig& cfg) const override {
    const GraphParams gp = params_for(cfg);
    const GraphSpec spec(gp, cfg.seed);
    BenchResult res;
    Machine m({.nprocs = cfg.nprocs,
               .scheme = cfg.scheme,
               .costs = {.sequential_baseline = cfg.sequential_baseline},
               .observer = cfg.observer,
               .faults = cfg.faults,
               .fault_seed = cfg.fault_seed});
    m.set_site_mechanisms(site_table(cfg, &res.heuristic_report));
    const RootOut out = run_program(m, root(m, spec, gp.steps));
    res.checksum = quantize(out.sum);
    res.build_cycles = out.build_end;
    res.total_cycles = m.makespan();
    res.kernel_cycles = res.total_cycles - res.build_cycles;
    res.stats = m.stats();
    return res;
  }

  // Cache-line aligned: where the linker happens to place this loop nest
  // moved perfbench's setup_s by about 30% on the lossy and pipeline
  // workloads, whose set-up it dominates, with no change to the code.
  [[gnu::aligned(64)]] std::uint64_t reference_checksum(
      const BenchConfig& cfg) const override {
    const GraphParams gp = params_for(cfg);
    GraphSpec spec(gp, cfg.seed);
    std::vector<double> ev(spec.e.size()), hv(spec.h.size());
    for (std::size_t i = 0; i < spec.e.size(); ++i) ev[i] = spec.e[i].value;
    for (std::size_t i = 0; i < spec.h.size(); ++i) hv[i] = spec.h[i].value;
    for (int t = 0; t < gp.steps; ++t) {
      for (std::size_t i = 0; i < ev.size(); ++i) {
        double v = ev[i];
        for (int j = 0; j < kDegree; ++j) {
          v -= spec.e[i].weights[j] * hv[spec.e[i].neighbors[j]];
        }
        ev[i] = v;
      }
      for (std::size_t i = 0; i < hv.size(); ++i) {
        double v = hv[i];
        for (int j = 0; j < kDegree; ++j) {
          v -= spec.h[i].weights[j] * ev[spec.h[i].neighbors[j]];
        }
        hv[i] = v;
      }
    }
    double acc = 0;
    for (double v : ev) acc += v;
    for (double v : hv) acc += v;
    return quantize(acc);
  }
};

}  // namespace

const Benchmark& em3d_benchmark() {
  static const Em3d b;
  return b;
}

}  // namespace olden::bench
