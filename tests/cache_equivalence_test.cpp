// A/B golden equivalence for the host-speed cache overhaul.
//
// Tuning::kOptimized (MRU fast path, move-to-front, frame recycling, flat
// coherence structures behind it) must be simulation-invisible next to
// Tuning::kReference, which walks hash chains physically in insertion
// order exactly like the pre-overhaul cache. The strongest statement we
// can make is byte equality: every benchmark in the suite, under every
// coherence scheme, produces a byte-identical binary trace and an
// identical stats JSON document whichever tuning is selected. Any
// divergence — one cycle, one counter, one event — fails here before it
// can reach a baseline diff.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "olden/analyze/streaming.hpp"
#include "olden/bench/benchmark.hpp"
#include "olden/cache/software_cache.hpp"
#include "olden/support/rng.hpp"
#include "olden/trace/observer.hpp"
#include "trace_digest.hpp"

namespace olden::bench {
namespace {

/// Restores the process-wide tuning no matter how the test exits.
class TuningGuard {
 public:
  explicit TuningGuard(SoftwareCache::Tuning t) {
    SoftwareCache::set_default_tuning(t);
  }
  ~TuningGuard() {
    SoftwareCache::set_default_tuning(SoftwareCache::Tuning::kOptimized);
  }
};

/// FNV-1a of olden-analyze's two documents for one trace: the --json
/// report and the human report (default --top 10).
struct AnalysisDigests {
  std::uint64_t json = 0;
  std::uint64_t human = 0;
};

AnalysisDigests analysis_digests(test::StreamedObserver& obs) {
  analyze::TraceFile file;
  std::vector<analyze::RunReport> reports;
  test::analyze_observer(obs, 10, &file, &reports);
  std::string human;
  for (std::size_t r = 0; r < reports.size(); ++r) {
    human += analyze::human_report(file.runs[r], reports[r]);
  }
  return {test::fnv1a(analyze::json_report(file, reports)),
          test::fnv1a(human)};
}

struct Golden {
  std::string trace_bytes;
  std::string stats;
  std::uint64_t checksum = 0;
  std::uint64_t cycles = 0;
  AnalysisDigests analysis;  ///< filled by run_with_tuning only
};

Golden run_with_tuning(const Benchmark& b, Coherence scheme,
                       SoftwareCache::Tuning tuning) {
  TuningGuard guard(tuning);
  test::StreamedObserver obs;
  obs.begin_run(b.name() + "/equiv");
  BenchConfig cfg{.nprocs = 8, .scheme = scheme};
  cfg.tiny = true;
  cfg.observer = &obs;
  const BenchResult r = b.run(cfg);
  return {test::trace_bytes(obs), trace::stats_json(obs), r.checksum,
          r.total_cycles, analysis_digests(obs)};
}

class CacheEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, Coherence>> {};

/// FNV-1a digests of each cell's fault-free binary trace and stats
/// document (tiny, p=8). Both tunings must reproduce them: neither the
/// cache's host-side layout nor the cached-access engine may move a
/// cycle, a counter or an event unless these are re-recorded on purpose.
/// The stats pin covers what the trace cannot see: histograms, page heat,
/// the per-processor breakdown and the event counts. The analysis pins
/// cover olden-analyze's reading of the trace: its JSON document and its
/// human report, heaviest critical-path edges included.
struct PinnedTrace {
  const char* benchmark;
  Coherence scheme;
  std::uint64_t digest;
  std::uint64_t stats;
  std::uint64_t analysis;
  std::uint64_t human;
};
constexpr PinnedTrace kPinnedTraces[] = {
    {"TreeAdd", Coherence::kLocalKnowledge, 0x5c528eff40a0780fULL,
     0x5adb1ff12269e9f0ULL,
     0x50b176128d55daf1ULL, 0xf4e785dbe6768446ULL},
    {"TreeAdd", Coherence::kEagerGlobal, 0xd401be15c9a52ab5ULL,
     0xb6aa31cb145e97b8ULL,
     0x909ba14560a00e67ULL, 0x59c5909b7a2b2950ULL},
    {"TreeAdd", Coherence::kBilateral, 0x140d556f8f951df0ULL,
     0xb84a0fcbbab70416ULL,
     0x742de300ff2f46fbULL, 0xce33b6de887afed9ULL},
    {"Power", Coherence::kLocalKnowledge, 0x252ca79357f83c21ULL,
     0x899034c30d96aeedULL,
     0x13b4538f4bc224f3ULL, 0x03adfd7521272468ULL},
    {"Power", Coherence::kEagerGlobal, 0x8e349a50b15b2dfaULL,
     0xbbb7175466d09650ULL,
     0x5dc8a2818a65bb4fULL, 0xdaefacd6b8d8e973ULL},
    {"Power", Coherence::kBilateral, 0x51e876d0714eec47ULL,
     0x8d54ade8ff60e3daULL,
     0xd382f53b5a5061d8ULL, 0xbd68b04b25d8cac7ULL},
    {"TSP", Coherence::kLocalKnowledge, 0x70b626e031add453ULL,
     0x73df4bd14176fe86ULL,
     0x95cc77f054f0be22ULL, 0xe1d9870ba2cce08fULL},
    {"TSP", Coherence::kEagerGlobal, 0x02d2a8e4807caef8ULL,
     0xf6bf15232d95fc75ULL,
     0x54adc521b8c3f106ULL, 0x7715b1e114529a19ULL},
    {"TSP", Coherence::kBilateral, 0x669bad0e8704ee37ULL,
     0x38bd2025fa5eabffULL,
     0x420c3112637ba21dULL, 0x5b91783a95b2280eULL},
    {"MST", Coherence::kLocalKnowledge, 0xf3f813e3fe1492e8ULL,
     0x76dedc32134da20bULL,
     0xf412f9116ec8d1f1ULL, 0x3737e2378319c7e2ULL},
    {"MST", Coherence::kEagerGlobal, 0xd92b104ef1723a63ULL,
     0x26e0e9c4f70af43fULL,
     0x77d059eddebf4decULL, 0xac130a881c4522f1ULL},
    {"MST", Coherence::kBilateral, 0x47ae975fffd6ee04ULL,
     0x97e667f42c87d560ULL,
     0xbd4cf4f66add2ca9ULL, 0x20b7ce021b9c92feULL},
    {"Bisort", Coherence::kLocalKnowledge, 0xbf15009fd364491cULL,
     0xe622458b28f6c37dULL,
     0xe920d6b055abb10dULL, 0xeddd775a2a2b5a38ULL},
    {"Bisort", Coherence::kEagerGlobal, 0xb3bc105bda6c7a92ULL,
     0x0a68b81a7d42a6e3ULL,
     0xa6faae56f7ab83edULL, 0x909e4703d07f1c93ULL},
    {"Bisort", Coherence::kBilateral, 0x546aeb203d9ae968ULL,
     0x642fc736b593a89cULL,
     0xf2ad8eb7b436f33cULL, 0x69e494a4964c0b9cULL},
    {"Voronoi", Coherence::kLocalKnowledge, 0x9bfa6636e9ed9a4fULL,
     0x787d35f583ecd384ULL,
     0x339a03b9ea155923ULL, 0x879f35063c078cf9ULL},
    {"Voronoi", Coherence::kEagerGlobal, 0xaf5b59670802aaafULL,
     0x1e35735632e289c7ULL,
     0x0e664cacd93c3168ULL, 0x147f194a423255a2ULL},
    {"Voronoi", Coherence::kBilateral, 0x3faf0947e7783e92ULL,
     0x9f4a81769bf12897ULL,
     0xb6969c88b60f7355ULL, 0xc74657eb5de17287ULL},
    {"EM3D", Coherence::kLocalKnowledge, 0xbf465f187af3299dULL,
     0x0d397c0b4b6445a9ULL,
     0xca7625da5ba80bc2ULL, 0x70ebe829cc3194a4ULL},
    {"EM3D", Coherence::kEagerGlobal, 0xd3f527460b516783ULL,
     0x41b7eed245904735ULL,
     0xea04b7f69cc37978ULL, 0xfc2bf69385727c55ULL},
    {"EM3D", Coherence::kBilateral, 0x4ddeedcb991e205fULL,
     0xf5d3c88f686d9caeULL,
     0xe3c8c084e288ff0eULL, 0x98f4aa99393f95b6ULL},
    {"Barnes-Hut", Coherence::kLocalKnowledge, 0x72a2afde6865009fULL,
     0xb937caec840cd847ULL,
     0x9607d93a75392a54ULL, 0xbcebb5f28ead11b2ULL},
    {"Barnes-Hut", Coherence::kEagerGlobal, 0x40ad80dbcd5342f9ULL,
     0x6c43f4cba93cdadfULL,
     0x2f0d5b095bacf088ULL, 0xc6c095b097ddb32eULL},
    {"Barnes-Hut", Coherence::kBilateral, 0x311a06b0234b53c3ULL,
     0x47b9a2281515dfdfULL,
     0x5fbf512d1c735411ULL, 0xc53b6cee0ca26820ULL},
    {"Perimeter", Coherence::kLocalKnowledge, 0x3fe73aa80eb7e468ULL,
     0x919e8e433fc9336bULL,
     0x10279dfee908e327ULL, 0x970f87d25bc8819fULL},
    {"Perimeter", Coherence::kEagerGlobal, 0x31149548bac140d0ULL,
     0xf40abd3e6dc9e996ULL,
     0x9259df03656ebd57ULL, 0x5a5ef6d1b4c8f0b4ULL},
    {"Perimeter", Coherence::kBilateral, 0x186bfa424653a4d1ULL,
     0x305c7c80bf0a31e5ULL,
     0xba36452aafab2b0aULL, 0x3a4e93ea94d09c89ULL},
    {"Health", Coherence::kLocalKnowledge, 0x45ca93afe70fec56ULL,
     0xcb03629dd058039cULL,
     0x6e82c14fe9044aa1ULL, 0x2886c2f1b38febc3ULL},
    {"Health", Coherence::kEagerGlobal, 0x19b87bd69e87e84dULL,
     0xe4524d1198a6f303ULL,
     0xc972048a73c8af15ULL, 0x7d742b8d0c2f2773ULL},
    {"Health", Coherence::kBilateral, 0x84db4b327461c06bULL,
     0x059a2ffd3c81bb1eULL,
     0xa36aefc8260f2ae0ULL, 0x554830604a435d12ULL},
};

const PinnedTrace* pinned_trace(const std::string& name, Coherence scheme) {
  for (const PinnedTrace& p : kPinnedTraces) {
    if (name == p.benchmark && scheme == p.scheme) return &p;
  }
  return nullptr;
}

/// FNV-1a of a stats document from its "generator" key on, so the
/// schema_version field ahead of it stays outside the pin.
std::uint64_t stats_digest(const std::string& stats) {
  return test::fnv1a(std::string_view(stats).substr(stats.find(
      "\"generator\"")));
}

TEST_P(CacheEquivalence, OptimizedMatchesReferenceByteForByte) {
  const auto [name, scheme] = GetParam();
  const Benchmark* b = find_benchmark(name);
  ASSERT_NE(b, nullptr);

  const Golden ref =
      run_with_tuning(*b, scheme, SoftwareCache::Tuning::kReference);
  const Golden opt =
      run_with_tuning(*b, scheme, SoftwareCache::Tuning::kOptimized);

  EXPECT_EQ(opt.checksum, ref.checksum);
  EXPECT_EQ(opt.cycles, ref.cycles);
  EXPECT_EQ(opt.stats, ref.stats);
  // Compare sizes first so a mismatch prints something readable instead
  // of two megabytes of binary.
  ASSERT_EQ(opt.trace_bytes.size(), ref.trace_bytes.size());
  EXPECT_TRUE(opt.trace_bytes == ref.trace_bytes)
      << "binary traces differ for " << name;
  const PinnedTrace* pin = pinned_trace(name, scheme);
  ASSERT_NE(pin, nullptr);
  EXPECT_EQ(test::fnv1a(opt.trace_bytes), pin->digest)
      << "pin " << name << " " << static_cast<int>(scheme);
  EXPECT_EQ(stats_digest(opt.stats), pin->stats)
      << "stats pin " << name << " " << static_cast<int>(scheme);
  EXPECT_EQ(opt.analysis.json, pin->analysis)
      << "analysis pin " << name << " " << static_cast<int>(scheme);
  EXPECT_EQ(opt.analysis.human, pin->human)
      << "human report pin " << name << " " << static_cast<int>(scheme);
}

std::vector<std::string> suite_names() {
  std::vector<std::string> names;
  for (const Benchmark* b : suite()) names.push_back(b->name());
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    FullSuite, CacheEquivalence,
    ::testing::Combine(::testing::ValuesIn(suite_names()),
                       ::testing::Values(Coherence::kLocalKnowledge,
                                         Coherence::kEagerGlobal,
                                         Coherence::kBilateral)),
    [](const auto& info) {
      std::string s;
      for (char c : std::get<0>(info.param)) {
        // gtest names must be alphanumeric: "Barnes-Hut" -> "BarnesHut".
        if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
            (c >= '0' && c <= '9')) {
          s += c;
        }
      }
      switch (std::get<1>(info.param)) {
        case Coherence::kLocalKnowledge: s += "_local"; break;
        case Coherence::kEagerGlobal: s += "_global"; break;
        case Coherence::kBilateral: s += "_bilateral"; break;
      }
      return s;
    });

// The charged chain position must be identical under both tunings for
// arbitrary interleavings of inserts and lookups — move-to-front reorders
// the physical chain, so this fails if anyone ever charges from physical
// positions again. The bucket-population histogram is checked too: it
// feeds the Figure 1 claim and must not see host-side reordering.
TEST(CacheEquivalence, ChainAccountingMatchesPhysicalWalk) {
  SoftwareCache::set_default_tuning(SoftwareCache::Tuning::kOptimized);
  SoftwareCache opt;
  SoftwareCache::set_default_tuning(SoftwareCache::Tuning::kReference);
  SoftwareCache ref;
  SoftwareCache::set_default_tuning(SoftwareCache::Tuning::kOptimized);
  ASSERT_EQ(opt.tuning(), SoftwareCache::Tuning::kOptimized);
  ASSERT_EQ(ref.tuning(), SoftwareCache::Tuning::kReference);

  Rng rng(20260806);
  std::vector<std::uint32_t> pages;
  for (int step = 0; step < 20000; ++step) {
    const bool insert = pages.empty() || rng.next_below(4) == 0;
    if (insert) {
      // Clustered ids (runs per home processor) like a real heap, so
      // buckets actually grow chains.
      const std::uint32_t id =
          static_cast<std::uint32_t>(rng.next_below(40) << (kProcShift - 11)) +
          static_cast<std::uint32_t>(rng.next_below(96));
      bool co = false;
      bool cr = false;
      opt.ensure_page(id, co);
      ref.ensure_page(id, cr);
      ASSERT_EQ(co, cr) << "creation disagreement on page " << id;
      if (co) pages.push_back(id);
    } else {
      // Revisit a previously-seen page (exercises MRU + move-to-front) or
      // probe a likely-absent one (exercises miss accounting).
      const std::uint32_t id = rng.next_below(8) == 0
                                   ? static_cast<std::uint32_t>(
                                         1000000 + rng.next_below(100000))
                                   : pages[rng.next_below(pages.size())];
      const auto lo = opt.lookup(id);
      const auto lr = ref.lookup(id);
      ASSERT_EQ(lo.entry == nullptr, lr.entry == nullptr) << id;
      ASSERT_EQ(lo.chain_steps, lr.chain_steps)
          << "charged chain position diverged on page " << id;
    }
  }
  EXPECT_EQ(opt.chain_lengths(), ref.chain_lengths());
  EXPECT_EQ(opt.pages_created(), ref.pages_created());
  EXPECT_EQ(opt.pages_live(), ref.pages_live());
}

}  // namespace
}  // namespace olden::bench
