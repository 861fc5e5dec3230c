// TreeAdd: adds the values in a binary tree (Table 1; Figure 4).
//
// The paper's simplest benchmark: a 1024K-node balanced binary tree with
// subtrees distributed over the processors, summed by a parallel recursion
// with a futurecall on the left child. The heuristic sees the classic
// two-recursive-call update (left/right at the default 70% affinity
// combine to 91%) and chooses migration for every dereference: the
// "M"-row behaviour of Table 2.
#include "olden/bench/benchmark.hpp"
#include "olden/runtime/api.hpp"

namespace olden::bench {
namespace {

struct TreeNode {
  std::int64_t val;
  GPtr<TreeNode> left;
  GPtr<TreeNode> right;
};

enum Site : SiteId {
  kVal,        // t->val in the kernel
  kLeft,       // t->left
  kRight,      // t->right
  kInitVal,    // builder stores
  kInitLeft,
  kInitRight,
  kNumSites
};

constexpr int kPaperDepth = 20;    // 1024K nodes
constexpr int kDefaultDepth = 18;  // 256K nodes: full table in seconds
constexpr int kTinyDepth = 12;     // 4K nodes: regression-harness size
constexpr Cycles kWorkPerNode = 120;

/// Node value: a layout-independent function of the node's position, so
/// the checksum actually exercises data movement (all-ones would hide
/// stale reads).
std::int64_t node_value(std::uint64_t pos) {
  return static_cast<std::int64_t>((pos * 2654435761ULL) & 0xffff);
}

/// Build a subtree of `depth` levels; this node and everything not handed
/// to the left child lives on processor `lo` of [lo, hi).
Task<GPtr<TreeNode>> build(Machine& m, int depth, std::uint64_t pos,
                           ProcId lo, ProcId hi) {
  auto n = m.alloc<TreeNode>(lo);
  // Initializing stores: overridden to migration, so the builder thread
  // follows the allocation and child subtrees build in parallel.
  co_await wr(n, &TreeNode::val, node_value(pos), kInitVal);
  GPtr<TreeNode> l;
  GPtr<TreeNode> r;
  if (depth > 1) {
    const auto [lr, rr] = split_procs(lo, hi);
    auto fl =
        co_await futurecall(build(m, depth - 1, pos * 2 + 1, lr.lo, lr.hi));
    r = co_await build(m, depth - 1, pos * 2 + 2, rr.lo, rr.hi);
    l = co_await touch(fl);
  }
  co_await wr(n, &TreeNode::left, l, kInitLeft);
  co_await wr(n, &TreeNode::right, r, kInitRight);
  co_return n;
}

Task<std::int64_t> tree_add(Machine& m, GPtr<TreeNode> t) {
  if (!t) co_return 0;
  const auto l = co_await rd(t, &TreeNode::left, kLeft);
  const auto r = co_await rd(t, &TreeNode::right, kRight);
  auto fl = co_await futurecall(tree_add(m, l));
  const std::int64_t rs = co_await tree_add(m, r);
  const std::int64_t v = co_await rd(t, &TreeNode::val, kVal);
  m.work(kWorkPerNode);
  const std::int64_t ls = co_await touch(fl);
  co_return ls + rs + v;
}

struct RootOut {
  std::int64_t sum = 0;
  Cycles build_end = 0;
};

Task<RootOut> root(Machine& m, int depth) {
  RootOut out;
  auto t = co_await build(m, depth, 0, 0, m.nprocs());
  out.build_end = m.now_max();
  out.sum = co_await tree_add(m, t);
  co_return out;
}

std::int64_t reference(int depth, std::uint64_t pos) {
  if (depth == 0) return 0;
  return node_value(pos) + reference(depth - 1, pos * 2 + 1) +
         reference(depth - 1, pos * 2 + 2);
}

class TreeAdd final : public Benchmark {
 public:
  std::string name() const override { return "TreeAdd"; }
  std::string description() const override {
    return "Adds the values in a tree";
  }
  std::string problem_size(bool paper) const override {
    return paper ? "1024K nodes" : "256K nodes";
  }
  bool whole_program_timing() const override { return false; }
  std::string heuristic_choice() const override { return "M"; }
  std::size_t num_sites() const override { return kNumSites; }

  ir::Program ir_program() const override {
    using namespace ir;
    Program p;
    p.structs = {{"tree",
                  {{"left", std::nullopt}, {"right", std::nullopt}}}};
    Procedure ta;
    ta.name = "TreeAdd";
    ta.params = {"t"};
    ta.rec_loop_id = 0;
    If br;  // if (t == NULL) return 0; else ...
    Call cl;
    cl.callee = "TreeAdd";
    cl.args = {{"t", {{"tree", "left"}}}};
    cl.future = true;
    Call cr;
    cr.callee = "TreeAdd";
    cr.args = {{"t", {{"tree", "right"}}}};
    br.else_branch.push_back(deref("t", kLeft));
    br.else_branch.push_back(deref("t", kRight));
    br.else_branch.push_back(cl);
    br.else_branch.push_back(cr);
    br.else_branch.push_back(deref("t", kVal));
    ta.body.push_back(br);
    p.procs.push_back(std::move(ta));
    return p;
  }

  std::vector<std::pair<SiteId, Mechanism>> site_overrides() const override {
    return {{kInitVal, Mechanism::kMigrate},
            {kInitLeft, Mechanism::kMigrate},
            {kInitRight, Mechanism::kMigrate}};
  }

  BenchResult run(const BenchConfig& cfg) const override {
    const int depth =
        cfg.tiny ? kTinyDepth : cfg.paper_size ? kPaperDepth : kDefaultDepth;
    BenchResult res;
    Machine m({.nprocs = cfg.nprocs,
               .scheme = cfg.scheme,
               .costs = {.sequential_baseline = cfg.sequential_baseline},
               .observer = cfg.observer,
               .faults = cfg.faults,
               .fault_seed = cfg.fault_seed});
    m.set_site_mechanisms(site_table(cfg, &res.heuristic_report));
    const RootOut out = run_program(m, root(m, depth));
    res.checksum = static_cast<std::uint64_t>(out.sum);
    res.build_cycles = out.build_end;
    res.total_cycles = m.makespan();
    res.kernel_cycles = res.total_cycles - res.build_cycles;
    res.stats = m.stats();
    return res;
  }

  std::uint64_t reference_checksum(const BenchConfig& cfg) const override {
    const int depth =
        cfg.tiny ? kTinyDepth : cfg.paper_size ? kPaperDepth : kDefaultDepth;
    return static_cast<std::uint64_t>(reference(depth, 0));
  }
};

}  // namespace

const Benchmark& treeadd_benchmark() {
  static const TreeAdd b;
  return b;
}

}  // namespace olden::bench
