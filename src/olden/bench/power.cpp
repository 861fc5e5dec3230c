// Power: the Power System Optimization problem (Table 1, [30]).
//
// A fixed four-level distribution network: root -> 10 feeders -> 20
// laterals each -> 5 branches each -> 10 customers each (10,000
// customers). Each pass the root publishes a price, every customer
// computes its demand, and currents are summed bottom-up through the
// network; the root then adjusts the price (a fixed number of
// gradient-style passes stands in for the original's convergence loop —
// same traversal, deterministic).
//
// Heuristic behaviour (§5): feeder and lateral walks are parallelizable
// loops, so they migrate; branch and customer walks cache, but a lateral's
// whole subtree is co-located, so those accesses are all processor-local —
// migration alone satisfies every *remote* reference, the paper's "M" row.
// Laterals (200 of them) are the distribution unit, which is what lets 32
// processors reach the paper's ~27x.
#include <vector>

#include "olden/bench/benchmark.hpp"
#include "olden/runtime/api.hpp"
#include "olden/support/rng.hpp"

namespace olden::bench {
namespace {

constexpr int kFeeders = 10;
constexpr int kLateralsPerFeeder = 20;
constexpr int kBranchesPerLateral = 5;
constexpr int kCustomersPerBranch = 10;
constexpr Cycles kWorkPerCustomer = 420;
constexpr Cycles kWorkPerBranch = 150;
constexpr Cycles kWorkPerLateral = 200;

struct Customer {
  double ad, bd;  // demand parameters
  GPtr<Customer> next;
};

struct Branch {
  double impedance;
  GPtr<Customer> customers;
  GPtr<Branch> next;
};

struct Lateral {
  double impedance;
  GPtr<Branch> branches;
  GPtr<Lateral> next;
};

/// A feeder holds its laterals as an array of pointers (as in the Olden
/// source): the dispatch loop indexes it locally and the futurecalled
/// lateral bodies migrate to their data, so dispatch never convoys.
struct Feeder {
  GPtr<Lateral> lats[kLateralsPerFeeder];
};

enum Site : SiteId {
  kFeederNext,   // f = f->next  (parallel walk: migrate)
  kFeederLats,   // f->laterals
  kLateralNext,  // l = l->next  (parallel walk: migrate)
  kLateralFld,   // l->impedance / l->branches
  kBranchNext,   // b = b->next  (serial walk: cache, but local)
  kBranchFld,
  kCustNext,
  kCustFld,
  kInit,
  kNumSites
};

struct Demand {
  double p = 0, q = 0;
};

int passes_for(const BenchConfig& cfg) {
  if (cfg.tiny) return 3;
  return cfg.paper_size ? 40 : 15;
}

// ---------------------------------------------------------------------------

Task<std::vector<GPtr<Feeder>>> build(Machine& m, Rng& rng) {
  std::vector<GPtr<Feeder>> feeders;
  int lat_index = 0;
  const int total_lats = kFeeders * kLateralsPerFeeder;
  static const Feeder probe{};
  for (int f = 0; f < kFeeders; ++f) {
    const ProcId fproc = block_owner(static_cast<std::uint64_t>(lat_index),
                                     total_lats, m.nprocs());
    auto feeder = m.alloc<Feeder>(fproc);
    feeders.push_back(feeder);
    for (int l = 0; l < kLateralsPerFeeder; ++l, ++lat_index) {
      const ProcId lproc = block_owner(static_cast<std::uint64_t>(lat_index),
                                       total_lats, m.nprocs());
      auto lateral = m.alloc<Lateral>(lproc);
      co_await wr(lateral, &Lateral::impedance, 0.05 + 0.1 * rng.next_double(),
                  kInit);
      GPtr<Branch> prev_b;
      for (int b = 0; b < kBranchesPerLateral; ++b) {
        auto branch = m.alloc<Branch>(lproc);
        co_await wr(branch, &Branch::impedance,
                    0.02 + 0.05 * rng.next_double(), kInit);
        GPtr<Customer> prev_c;
        for (int c = 0; c < kCustomersPerBranch; ++c) {
          auto cust = m.alloc<Customer>(lproc);
          co_await wr(cust, &Customer::ad, 1.0 + rng.next_double(), kInit);
          co_await wr(cust, &Customer::bd, 0.5 + rng.next_double(), kInit);
          if (prev_c) {
            co_await wr(prev_c, &Customer::next, cust, kInit);
          } else {
            co_await wr(branch, &Branch::customers, cust, kInit);
          }
          prev_c = cust;
        }
        if (prev_b) {
          co_await wr(prev_b, &Branch::next, branch, kInit);
        } else {
          co_await wr(lateral, &Lateral::branches, branch, kInit);
        }
        prev_b = branch;
      }
      const auto off = static_cast<std::uint32_t>(
          reinterpret_cast<const char*>(&probe.lats[l]) -
          reinterpret_cast<const char*>(&probe));
      co_await detail::WriteAwaiter<GPtr<Lateral>>{feeder.addr().plus(off),
                                                   kInit, lateral};
    }
  }
  co_return feeders;
}

detail::ReadAwaiter<GPtr<Lateral>> rd_lat(GPtr<Feeder> f, int i, SiteId site) {
  static const Feeder probe{};
  const auto off = static_cast<std::uint32_t>(
      reinterpret_cast<const char*>(&probe.lats[i]) -
      reinterpret_cast<const char*>(&probe));
  return {f.addr().plus(off), site};
}

Task<Demand> compute_lateral(Machine& m, GPtr<Lateral> l, double price) {
  Demand total;
  const double z = co_await rd(l, &Lateral::impedance, kLateralFld);
  GPtr<Branch> b = co_await rd(l, &Lateral::branches, kLateralFld);
  while (b) {
    Demand bsum;
    const double bz = co_await rd(b, &Branch::impedance, kBranchFld);
    GPtr<Customer> c = co_await rd(b, &Branch::customers, kBranchFld);
    while (c) {
      const double ad = co_await rd(c, &Customer::ad, kCustFld);
      const double bd = co_await rd(c, &Customer::bd, kCustFld);
      // Demand falls with price; reactive part tracks the real part.
      bsum.p += ad / (1.0 + price);
      bsum.q += bd / (1.0 + 0.5 * price);
      m.work(kWorkPerCustomer);
      c = co_await rd(c, &Customer::next, kCustNext);
    }
    // Line losses on the branch.
    total.p += bsum.p + bz * (bsum.p * bsum.p + bsum.q * bsum.q) * 0.01;
    total.q += bsum.q;
    m.work(kWorkPerBranch);
    b = co_await rd(b, &Branch::next, kBranchNext);
  }
  total.p += z * (total.p * total.p + total.q * total.q) * 0.001;
  m.work(kWorkPerLateral);
  co_return total;
}

Task<Demand> compute_feeder(Machine& m, GPtr<Feeder> f, double price) {
  std::vector<Future<Demand>> fs;
  fs.reserve(kLateralsPerFeeder);
  for (int i = 0; i < kLateralsPerFeeder; ++i) {
    // The first read migrates this body to the feeder's processor; the
    // lateral bodies in turn migrate to theirs at their first dereference.
    const GPtr<Lateral> l = co_await rd_lat(f, i, kFeederLats);
    fs.push_back(co_await futurecall(compute_lateral(m, l, price)));
  }
  Demand total;
  for (auto& fut : fs) {
    const Demand d = co_await touch(fut);
    total.p += d.p;
    total.q += d.q;
  }
  // Return a copy, not `total`: GCC 12 at -O3 vectorizes `co_return
  // total` into a {p, q} vector taken from the loop one iteration early,
  // so every feeder dropped its last lateral. The copy is summed in full.
  const Demand out = total;
  co_return out;
}

struct RootOut {
  double price = 0;
  double total_p = 0;
  Cycles build_end = 0;
};

Task<RootOut> root(Machine& m, std::uint64_t seed, int passes) {
  RootOut out;
  Rng rng(seed);
  const std::vector<GPtr<Feeder>> feeders = co_await build(m, rng);
  out.build_end = m.now_max();

  double price = 1.0;
  constexpr double kTargetLoad = 9000.0;
  double total = 0;
  for (int pass = 0; pass < passes; ++pass) {
    std::vector<Future<Demand>> fs;
    for (const GPtr<Feeder>& f : feeders) {
      fs.push_back(co_await futurecall(compute_feeder(m, f, price)));
    }
    total = 0;
    for (auto& fut : fs) {
      const Demand d = co_await touch(fut);
      total += d.p;
    }
    // Gradient step on the price toward the target load.
    price += (total - kTargetLoad) * 1e-5;
  }
  out.price = price;
  out.total_p = total;
  co_return out;
}

// Host reference.
double reference_run(std::uint64_t seed, int passes, double* total_out) {
  Rng rng(seed);
  struct C {
    double ad, bd;
  };
  struct B {
    double z;
    std::vector<C> cs;
  };
  struct L {
    double z;
    std::vector<B> bs;
  };
  std::vector<std::vector<L>> feeders(kFeeders);
  for (auto& f : feeders) {
    f.resize(kLateralsPerFeeder);
    for (auto& l : f) {
      l.z = 0.05 + 0.1 * rng.next_double();
      l.bs.resize(kBranchesPerLateral);
      for (auto& b : l.bs) {
        b.z = 0.02 + 0.05 * rng.next_double();
        b.cs.resize(kCustomersPerBranch);
        for (auto& c : b.cs) {
          c.ad = 1.0 + rng.next_double();
          c.bd = 0.5 + rng.next_double();
        }
      }
    }
  }
  double price = 1.0;
  double total = 0;
  for (int pass = 0; pass < passes; ++pass) {
    total = 0;
    for (const auto& f : feeders) {
      double fp = 0, fq = 0;
      for (const auto& l : f) {
        double lp = 0, lq = 0;
        for (const auto& b : l.bs) {
          double bp = 0, bq = 0;
          for (const auto& c : b.cs) {
            bp += c.ad / (1.0 + price);
            bq += c.bd / (1.0 + 0.5 * price);
          }
          lp += bp + b.z * (bp * bp + bq * bq) * 0.01;
          lq += bq;
        }
        fp += lp + l.z * (lp * lp + lq * lq) * 0.001;
        fq += lq;
      }
      total += fp;
      (void)fq;
    }
    price += (total - 9000.0) * 1e-5;
  }
  if (total_out != nullptr) *total_out = total;
  return price;
}

class Power final : public Benchmark {
 public:
  std::string name() const override { return "Power"; }
  std::string description() const override {
    return "Solves the Power System Optimization problem";
  }
  std::string problem_size(bool) const override { return "10,000 customers"; }
  bool whole_program_timing() const override { return true; }
  std::string heuristic_choice() const override { return "M"; }
  std::size_t num_sites() const override { return kNumSites; }

  ir::Program ir_program() const override {
    using namespace ir;
    Program p;
    p.structs = {
        {"feeder", {{"next", std::nullopt}, {"lats", std::nullopt}}},
        {"lateral", {{"next", std::nullopt}, {"branches", std::nullopt},
                     {"impedance", std::nullopt}}},
        {"branch", {{"next", std::nullopt}, {"customers", std::nullopt}}},
        {"customer", {{"next", std::nullopt}}},
    };

    Procedure cl;
    cl.name = "compute_lateral";
    cl.params = {"l"};
    cl.body.push_back(deref("l", kLateralFld));
    cl.body.push_back(
        assign("b", "l", {{"lateral", "branches"}}, SiteId{kLateralFld}));
    While branches;
    branches.loop_id = 2;
    branches.body.push_back(
        assign("c", "b", {{"branch", "customers"}}, SiteId{kBranchFld}));
    While custs;
    custs.loop_id = 3;
    custs.body.push_back(deref("c", kCustFld));
    custs.body.push_back(
        assign("c", "c", {{"customer", "next"}}, SiteId{kCustNext}));
    branches.body.push_back(std::move(custs));
    branches.body.push_back(
        assign("b", "b", {{"branch", "next"}}, SiteId{kBranchNext}));
    cl.body.push_back(std::move(branches));
    p.procs.push_back(std::move(cl));

    Procedure cf;
    cf.name = "compute_feeder";
    cf.params = {"f"};
    While lats;  // for (i...) { l = f->lats[i]; futurecall(...); }
    lats.loop_id = 1;
    lats.body.push_back(
        assign("l", "f", {{"feeder", "lats"}}, SiteId{kFeederLats}));
    Call per_lat;
    per_lat.callee = "compute_lateral";
    per_lat.args = {{"l", {}}};
    per_lat.future = true;
    lats.body.push_back(per_lat);
    cf.body.push_back(std::move(lats));
    p.procs.push_back(std::move(cf));

    Procedure main;
    main.name = "main";
    main.params = {"feeders"};
    While fl;
    fl.loop_id = 0;
    Call per_f;
    per_f.callee = "compute_feeder";
    per_f.args = {{"f", {}}};
    per_f.future = true;
    fl.body.push_back(assign("f", "f", {{"feeder", "next"}},
                             SiteId{kFeederNext}));
    fl.body.push_back(per_f);
    main.body.push_back(std::move(fl));
    p.procs.push_back(std::move(main));
    return p;
  }

  std::vector<std::pair<SiteId, Mechanism>> site_overrides() const override {
    return {{kInit, Mechanism::kMigrate}};
  }

  BenchResult run(const BenchConfig& cfg) const override {
    BenchResult res;
    Machine m({.nprocs = cfg.nprocs,
               .scheme = cfg.scheme,
               .costs = {.sequential_baseline = cfg.sequential_baseline},
               .observer = cfg.observer,
               .faults = cfg.faults,
               .fault_seed = cfg.fault_seed});
    m.set_site_mechanisms(site_table(cfg, &res.heuristic_report));
    const RootOut out = run_program(m, root(m, cfg.seed, passes_for(cfg)));
    res.checksum =
        mix_checksum(quantize(out.price, 1e9), quantize(out.total_p));
    res.build_cycles = out.build_end;
    res.total_cycles = m.makespan();
    res.kernel_cycles = res.total_cycles - res.build_cycles;
    res.stats = m.stats();
    return res;
  }

  std::uint64_t reference_checksum(const BenchConfig& cfg) const override {
    double total = 0;
    const double price = reference_run(cfg.seed, passes_for(cfg), &total);
    return mix_checksum(quantize(price, 1e9), quantize(total));
  }
};

}  // namespace

const Benchmark& power_benchmark() {
  static const Power b;
  return b;
}

}  // namespace olden::bench
