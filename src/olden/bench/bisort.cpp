// Bisort: bitonic sort over a binary tree of integers (Table 1, [8]).
//
// Values live at the leaves of a perfect binary tree whose subtrees are
// distributed blocked. The benchmark performs two full sorts (forward then
// backward, as in the original). A sort of a height-h subtree sorts its
// halves in opposite directions (futurecall on the left), then runs the
// bitonic merge: a lockstep descent comparing/swapping corresponding
// values of the two halves, followed by recursive merges of each half.
//
// Heuristic behaviour (§5): the merge descent uses a *pair* of pointers;
// both are induction variables of the lockstep recursion, but a control
// loop selects at most one variable for migration — the other's
// dereferences are cached. That is the paper's "pair of pointers is used
// to search the subtrees ... dereferences to these pointers use caching",
// while the value swaps (touching lots of data per processor) ride the
// migrating pointer. Swapping values rather than subtree pointers is
// expensive but preserves locality for the second sort, as §5 notes.
#include <algorithm>
#include <vector>

#include "olden/bench/benchmark.hpp"
#include "olden/runtime/api.hpp"
#include "olden/support/rng.hpp"

namespace olden::bench {
namespace {

constexpr Cycles kWorkPerCompare = 35;

struct BNode {
  std::int64_t value;  // meaningful at leaves only
  GPtr<BNode> left, right;
};

enum Site : SiteId {
  kLeft,    // descent on the sorted/merged subtree root: migrate
  kRight,
  kPlChild,  // lockstep pointer 1 (selected: migrate)
  kPlVal,
  kPrChild,  // lockstep pointer 2 (cached)
  kPrVal,
  kInit,
  kNumSites
};

int leaves_for(const BenchConfig& cfg) {
  if (cfg.tiny) return 4096;
  return cfg.paper_size ? 131072 : 32768;
}

Task<GPtr<BNode>> build(Machine& m, const std::vector<std::int64_t>& vals,
                        int lo, int hi, ProcId plo, ProcId phi) {
  auto n = m.alloc<BNode>(plo);
  if (hi - lo == 1) {
    co_await wr(n, &BNode::value, vals[static_cast<std::size_t>(lo)], kInit);
    co_return n;
  }
  const int mid = lo + (hi - lo) / 2;
  const auto [lrange, rrange] = split_procs(plo, phi);
  auto fl =
      co_await futurecall(build(m, vals, lo, mid, lrange.lo, lrange.hi));
  auto r = co_await build(m, vals, mid, hi, rrange.lo, rrange.hi);
  auto l = co_await touch(fl);
  co_await wr(n, &BNode::left, l, kInit);
  co_await wr(n, &BNode::right, r, kInit);
  co_return n;
}

/// Compare-exchange corresponding leaves of the pl and pr subtrees so that
/// pl's leaves hold the min (dir=false) or max (dir=true) of each pair.
Task<int> lockstep(Machine& m, GPtr<BNode> pl, GPtr<BNode> pr, bool dir,
                   int height) {
  if (height == 0) {
    const auto a = co_await rd(pl, &BNode::value, kPlVal);
    const auto b = co_await rd(pr, &BNode::value, kPrVal);
    m.work(kWorkPerCompare);
    if ((a > b) != dir) {
      co_await wr(pl, &BNode::value, b, kPlVal);
      co_await wr(pr, &BNode::value, a, kPrVal);
    }
    co_return 0;
  }
  const auto pll = co_await rd(pl, &BNode::left, kPlChild);
  const auto plr = co_await rd(pl, &BNode::right, kPlChild);
  const auto prl = co_await rd(pr, &BNode::left, kPrChild);
  const auto prr = co_await rd(pr, &BNode::right, kPrChild);
  co_await lockstep(m, pll, prl, dir, height - 1);
  co_await lockstep(m, plr, prr, dir, height - 1);
  co_return 0;
}

/// Bitonic merge: leaves of `t` (height h) form a bitonic sequence; sort
/// them ascending (dir=false) or descending (dir=true).
Task<int> bimerge(Machine& m, GPtr<BNode> t, bool dir, int height) {
  if (height == 0) co_return 0;
  const auto l = co_await rd(t, &BNode::left, kLeft);
  const auto r = co_await rd(t, &BNode::right, kRight);
  co_await lockstep(m, l, r, dir, height - 1);
  auto fl = co_await futurecall(bimerge(m, l, dir, height - 1));
  co_await bimerge(m, r, dir, height - 1);
  co_await touch(fl);
  co_return 0;
}

Task<int> bisort(Machine& m, GPtr<BNode> t, bool dir, int height) {
  if (height == 0) co_return 0;
  const auto l = co_await rd(t, &BNode::left, kLeft);
  const auto r = co_await rd(t, &BNode::right, kRight);
  auto fl = co_await futurecall(bisort(m, l, dir, height - 1));
  co_await bisort(m, r, !dir, height - 1);
  co_await touch(fl);
  co_await bimerge(m, t, dir, height);
  co_return 0;
}

Task<std::uint64_t> fold_leaves(Machine& m, GPtr<BNode> t, int height) {
  if (height == 0) {
    co_return static_cast<std::uint64_t>(
        co_await rd(t, &BNode::value, kPlVal));
  }
  const auto l = co_await rd(t, &BNode::left, kLeft);
  const auto r = co_await rd(t, &BNode::right, kRight);
  const std::uint64_t a = co_await fold_leaves(m, l, height - 1);
  const std::uint64_t b = co_await fold_leaves(m, r, height - 1);
  co_return mix_checksum(a, b);
}

struct RootOut {
  std::uint64_t checksum = 0;
  Cycles build_end = 0;
};

Task<RootOut> root(Machine& m, const std::vector<std::int64_t>& vals,
                   int height) {
  RootOut out;
  auto t =
      co_await build(m, vals, 0, static_cast<int>(vals.size()), 0, m.nprocs());
  out.build_end = m.now_max();
  co_await bisort(m, t, /*dir=*/false, height);  // forward sort
  const std::uint64_t fwd = co_await fold_leaves(m, t, height);
  co_await bisort(m, t, /*dir=*/true, height);  // backward sort
  const std::uint64_t bwd = co_await fold_leaves(m, t, height);
  out.checksum = mix_checksum(fwd, bwd);
  co_return out;
}

std::vector<std::int64_t> make_values(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int64_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) {
    x = static_cast<std::int64_t>(rng.next_below(1u << 30));
  }
  return v;
}

class Bisort final : public Benchmark {
 public:
  std::string name() const override { return "Bisort"; }
  std::string description() const override {
    return "Sort by creating two disjoint bitonic sequences, then merging";
  }
  std::string problem_size(bool paper) const override {
    return paper ? "128K integers" : "32K integers";
  }
  bool whole_program_timing() const override { return false; }
  std::string heuristic_choice() const override { return "M+C"; }
  std::size_t num_sites() const override { return kNumSites; }

  ir::Program ir_program() const override {
    using namespace ir;
    Program p;
    p.structs = {{"node",
                  {{"left", std::nullopt}, {"right", std::nullopt},
                   {"value", std::nullopt}}}};

    Procedure ls;
    ls.name = "lockstep";
    ls.params = {"pl", "pr"};
    ls.rec_loop_id = 1;
    If br;
    br.then_branch.push_back(deref("pl", kPlVal));
    br.then_branch.push_back(deref("pr", kPrVal));
    Call c1;
    c1.callee = "lockstep";
    c1.args = {{"pl", {{"node", "left"}}}, {"pr", {{"node", "left"}}}};
    Call c2;
    c2.callee = "lockstep";
    c2.args = {{"pl", {{"node", "right"}}}, {"pr", {{"node", "right"}}}};
    br.else_branch.push_back(deref("pl", kPlChild));
    br.else_branch.push_back(deref("pr", kPrChild));
    br.else_branch.push_back(c1);
    br.else_branch.push_back(c2);
    ls.body.push_back(std::move(br));
    p.procs.push_back(std::move(ls));

    Procedure bm;
    bm.name = "bimerge";
    bm.params = {"t"};
    bm.rec_loop_id = 0;
    If mbr;
    Call lsc;
    lsc.callee = "lockstep";
    lsc.args = {{"t", {{"node", "left"}}}, {"t", {{"node", "right"}}}};
    Call ml;
    ml.callee = "bimerge";
    ml.args = {{"t", {{"node", "left"}}}};
    ml.future = true;
    Call mr;
    mr.callee = "bimerge";
    mr.args = {{"t", {{"node", "right"}}}};
    mbr.else_branch.push_back(deref("t", kLeft));
    mbr.else_branch.push_back(deref("t", kRight));
    mbr.else_branch.push_back(lsc);
    mbr.else_branch.push_back(ml);
    mbr.else_branch.push_back(mr);
    bm.body.push_back(std::move(mbr));
    p.procs.push_back(std::move(bm));
    return p;
  }

  std::vector<std::pair<SiteId, Mechanism>> site_overrides() const override {
    return {{kInit, Mechanism::kMigrate}};
  }

  BenchResult run(const BenchConfig& cfg) const override {
    const int n = leaves_for(cfg);
    int height = 0;
    while ((1 << height) < n) ++height;
    const auto vals = make_values(n, cfg.seed);
    BenchResult res;
    Machine m({.nprocs = cfg.nprocs,
               .scheme = cfg.scheme,
               .costs = {.sequential_baseline = cfg.sequential_baseline},
               .observer = cfg.observer,
               .faults = cfg.faults,
               .fault_seed = cfg.fault_seed});
    m.set_site_mechanisms(site_table(cfg, &res.heuristic_report));
    const RootOut out = run_program(m, root(m, vals, height));
    res.checksum = out.checksum;
    res.build_cycles = out.build_end;
    res.total_cycles = m.makespan();
    res.kernel_cycles = res.total_cycles - res.build_cycles;
    res.stats = m.stats();
    return res;
  }

  std::uint64_t reference_checksum(const BenchConfig& cfg) const override {
    auto vals = make_values(leaves_for(cfg), cfg.seed);
    std::sort(vals.begin(), vals.end());
    std::uint64_t fwd = 0;
    bool first = true;
    // fold_leaves mixes left-to-right pairwise: mix(mix(a,b), mix(c,d))...
    // Recompute that exact fold over the sorted (then reverse-sorted)
    // sequence.
    auto fold = [](const std::vector<std::int64_t>& v) {
      std::vector<std::uint64_t> layer(v.size());
      for (std::size_t i = 0; i < v.size(); ++i) {
        layer[i] = static_cast<std::uint64_t>(v[i]);
      }
      while (layer.size() > 1) {
        std::vector<std::uint64_t> up(layer.size() / 2);
        for (std::size_t i = 0; i < up.size(); ++i) {
          up[i] = mix_checksum(layer[2 * i], layer[2 * i + 1]);
        }
        layer = std::move(up);
      }
      return layer[0];
    };
    fwd = fold(vals);
    (void)first;
    std::reverse(vals.begin(), vals.end());
    const std::uint64_t bwd = fold(vals);
    return mix_checksum(fwd, bwd);
  }
};

}  // namespace

const Benchmark& bisort_benchmark() {
  static const Bisort b;
  return b;
}

}  // namespace olden::bench
