// perfbench_driver: one benchmark for host time and virtual time.
//
//   perfbench_driver --workload=migrate|cache|lossy|pipeline [--seed=N]
//                    [--seconds=S] [--trace=0|1] [--tmp=DIR]
//                    [--spans-out=FILE] [--revision=REV] [--tiny]
//                    [--wrong-checksum]
//
// A workload is a fixed list of (benchmark, size, scheme) cells at p=8,
// run one cell at a time in one process (a closed loop: the next cell
// starts when the previous one returns). The driver goes through the
// public API only: Benchmark::site_table / reference_checksum / run,
// trace::Observer / StreamingTraceSink / stats_json,
// analyze::TraceStream / StreamingRunAnalyzer / diff_runs, and
// fault::parse_fault_spec.
//
//   migrate   TreeAdd, MST, Power, Perimeter (paper size) x 3 schemes:
//             futurecalls and migrations, the cache nearly idle.
//   cache     Barnes-Hut, EM3D (paper), Voronoi (default) x 3 schemes:
//             cache translation, fills, directory and coherence.
//   lossy     EM3D (paper) x 3 schemes + Bisort (default, global) under
//             kLossySpec: the fault plane and the wire coherence engine.
//   pipeline  TreeAdd (default), EM3D (paper) x local/global, each run
//             streamed to disk, stats_json'd, stream-analyzed with
//             finish_diff, then local vs global diffed per benchmark.
//
// --trace=0 measures the end-to-end metrics with no spans recorded: set-up
// (suite lookup, fault-spec parse, site_table and reference_checksum for
// every cell, temp-dir creation) is repeated at least kSetupReps times and
// its median reported; then whole passes over the cells repeat until
// --seconds have passed, wall_s sums each cell's median time and
// peak_rss_mb is the median over passes of each pass's own peak.
// Host times are scaled to a reference host speed by a probe run next to
// each timed call (see probe_seconds); the measured sum is printed too.
// The workload seed reaches BenchConfig::seed and a fault seed derived from
// it reaches fault_seed; the simulator receives nothing else from the
// generator. TreeAdd, MST, Perimeter and Health ignore the seed, so a new
// seed varies only EM3D, Voronoi, Bisort, Power, Barnes-Hut and TSP inputs,
// plus the fault schedule.
//
// --trace=1 measures the per-layer metrics. It runs one untraced pass,
// then the same pass with a span around every call into a layer, then the
// standing A/B rows (pipeline: no observer vs stats-only vs streamed;
// lossy: no fault plane vs an all-zero-probability plane vs the lossy
// spec) and a stats-only observer run per cell for the cycle buckets.
// Layer times are self times of those spans (duration minus the time child
// spans cover); spans of one cell share its index as id and are written to
// --spans-out when the run ends. Counters come from MachineStats and the
// Observer bucket totals, and repeat exactly.
//
// Every result is validated outside the timed window: the checksum against
// reference_checksum, and a digest of the virtual statistics against the
// cell's first run (across passes, and between untraced and traced runs).
// A cell attempt that mismatches, throws (WatchdogError, ConfigError, ...)
// or fails finish_diff / diff_runs is counted in `failed`, never aborts
// the workload. The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Exit status: 0 with a result, 2 on a bad flag, 1 when the driver itself
// cannot run (temp dir, spans file).
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "olden/analyze/diff.hpp"
#include "olden/analyze/streaming.hpp"
#include "olden/analyze/trace_reader.hpp"
#include "olden/bench/benchmark.hpp"
#include "olden/fault/fault_spec.hpp"
#include "olden/trace/observer.hpp"
#include "olden/trace/streaming_sink.hpp"

#if defined(__clang__)
#define PERFBENCH_COMPILER "clang " __VERSION__
#elif defined(__GNUC__)
#define PERFBENCH_COMPILER "gcc " __VERSION__
#else
#define PERFBENCH_COMPILER __VERSION__
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace {

using namespace olden;
using namespace olden::bench;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr ProcId kProcs = 8;
/// Set-up repeats at least kSetupReps times, and on for up to
/// kSetupSeconds (at most kMaxSetupReps times) when it is cheap.
constexpr int kSetupReps = 5;
constexpr int kMaxSetupReps = 100;
constexpr double kSetupSeconds = 1.0;
constexpr std::uint64_t kDefaultSeed = 12345;
constexpr const char* kLossySpec = "drop=0.02,dup=0.01,delay=0.05:300";
/// Enables the fault plane with every probability zero.
constexpr const char* kZeroSpec = "drop=0";
constexpr std::size_t kTopN = 10;
constexpr std::size_t kBatch = std::size_t{1} << 16;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

const char* scheme_name(Coherence c) {
  switch (c) {
    case Coherence::kLocalKnowledge: return "local";
    case Coherence::kEagerGlobal: return "global";
    case Coherence::kBilateral: return "bilateral";
  }
  return "?";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

// --- workloads ---------------------------------------------------------------

struct CellSpec {
  const char* bench;
  bool paper;
  Coherence scheme;
};

struct Workload {
  const char* name;
  std::vector<CellSpec> cells;
  bool lossy = false;     ///< every cell runs under kLossySpec
  bool pipeline = false;  ///< cells come in (local, global) pairs to diff
};

std::vector<CellSpec> cross(
    std::initializer_list<std::pair<const char*, bool>> benches,
    std::initializer_list<Coherence> schemes) {
  std::vector<CellSpec> out;
  for (const auto& [bench, paper] : benches) {
    for (const Coherence s : schemes) out.push_back({bench, paper, s});
  }
  return out;
}

const std::vector<Workload>& workloads() {
  constexpr auto kL = Coherence::kLocalKnowledge;
  constexpr auto kG = Coherence::kEagerGlobal;
  constexpr auto kB = Coherence::kBilateral;
  static const std::vector<Workload> all = [] {
    std::vector<Workload> w;
    w.push_back({"migrate",
                 cross({{"TreeAdd", true}, {"MST", true}, {"Power", true},
                        {"Perimeter", true}},
                       {kL, kG, kB})});
    w.push_back({"cache",
                 cross({{"Barnes-Hut", true}, {"EM3D", true},
                        {"Voronoi", false}},
                       {kL, kG, kB})});
    Workload lossy{"lossy", cross({{"EM3D", true}}, {kL, kG, kB}), true};
    lossy.cells.push_back({"Bisort", false, kG});
    w.push_back(std::move(lossy));
    w.push_back({"pipeline",
                 cross({{"TreeAdd", false}, {"EM3D", true}}, {kL, kG}), false,
                 true});
    return w;
  }();
  return all;
}

// --- host-speed probe --------------------------------------------------------

/// This host is shared: its speed drifts by tens of percent over seconds
/// and minutes (co-tenants on the physical cores), far more than the
/// changes the benchmark must resolve. So every timed call is bracketed by
/// a fixed probe (allocate, link and walk a random binary tree -- the
/// allocation and pointer-chasing mix the simulator itself runs) and host
/// times are reported scaled to the probe's reference time:
///   scaled = measured * kProbeReferenceSeconds / probe,
/// where probe is the mean of the probes just before and just after.
/// The probe is the benchmark's own code, so a change to the simulator
/// moves the scaled times exactly as much as the measured ones.
constexpr double kProbeReferenceSeconds = 0.0065;

double probe_seconds() {
  struct Node {
    Node* kid[2];
    std::uint64_t v;
  };
  constexpr std::size_t kNodes = std::size_t{1} << 17;
  const Clock::time_point t0 = Clock::now();
  std::vector<std::unique_ptr<Node>> nodes;
  nodes.reserve(kNodes);
  std::uint64_t x = 1;
  for (std::size_t i = 0; i < kNodes; ++i) {
    nodes.push_back(std::make_unique<Node>(Node{{nullptr, nullptr}, x}));
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    if (i > 0) {
      Node*& slot = nodes[(x >> 33) % i]->kid[(x >> 20) & 1];
      if (slot == nullptr) slot = nodes.back().get();
    }
  }
  std::uint64_t sum = 0;
  std::vector<Node*> stack;
  for (int rep = 0; rep < 4; ++rep) {
    stack.assign(1, nodes.front().get());
    while (!stack.empty()) {
      const Node* n = stack.back();
      stack.pop_back();
      sum += n->v;
      for (Node* k : n->kid) {
        if (k != nullptr) stack.push_back(k);
      }
    }
  }
  nodes.clear();
  const double seconds = since(t0);
  // Keep the walk observable so it cannot be optimized away.
  static std::atomic<std::uint64_t> sink{0};
  sink.fetch_add(sum, std::memory_order_relaxed);
  return seconds;
}

/// A measured host time scaled to the reference host speed.
double scaled(double measured, double probe) {
  return measured * kProbeReferenceSeconds / probe;
}

// --- spans -------------------------------------------------------------------

/// In-memory span recorder. Off (the --trace=0 path and the untraced pass
/// of --trace=1) every call is one branch.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::size_t id;  ///< cell index; spans of one cell share it
    int parent;      ///< index into spans(), -1 for a root
    double start;    ///< seconds since the tracer's epoch
    double end;
  };

  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::size_t id)
        : t_(t), idx_(t.open(name, id)) {}
    ~Scope() { t_.close(idx_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int idx_;
  };

  void set_on(bool on) { on_ = on; }
  [[nodiscard]] bool on() const { return on_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span: duration minus the time its children cover.
  [[nodiscard]] std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] += spans_[i].end - spans_[i].start;
      if (spans_[i].parent >= 0) {
        self[static_cast<std::size_t>(spans_[i].parent)] -=
            spans_[i].end - spans_[i].start;
      }
    }
    return self;
  }

  /// Summed self time of every span called `name`.
  [[nodiscard]] double self_total(const std::string& name) const {
    const std::vector<double> self = self_times();
    double sum = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (name == spans_[i].name) sum += self[i];
    }
    return sum;
  }

 private:
  int open(const char* name, std::size_t id) {
    if (!on_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, id, parent, since(epoch_), 0.0});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void close(int idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end = since(epoch_);
    stack_.pop_back();
  }

  bool on_ = false;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Span names. The layer metrics are sums of these spans' self times.
constexpr const char* kSpanCell = "bench.cell";
constexpr const char* kSpanSetup = "bench.setup";
constexpr const char* kSpanSiteTable = "compiler.site_table";
constexpr const char* kSpanReference = "bench.reference";
constexpr const char* kSpanRun = "runtime.run";  ///< no observer, no plane
constexpr const char* kSpanObserve = "bench.observe";  ///< bucket pass
constexpr const char* kSpanLossy = "fault.run_lossy";
constexpr const char* kSpanZero = "fault.run_zero";
constexpr const char* kSpanStats = "trace.run_stats";
constexpr const char* kSpanStreamed = "trace.run_streamed";
constexpr const char* kSpanFinalize = "trace.finalize";
constexpr const char* kSpanStatsJson = "trace.stats_json";
constexpr const char* kSpanRead = "analyze.read";
constexpr const char* kSpanAnalyze = "analyze.analyze";
constexpr const char* kSpanDiff = "analyze.diff";

// --- validation --------------------------------------------------------------

/// FNV-1a over a result's virtual outcome: checksum, the three cycle
/// totals and every MachineStats counter (a struct of uint64 fields).
std::uint64_t virtual_digest(const BenchResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  };
  mix(&r.checksum, sizeof r.checksum);
  mix(&r.build_cycles, sizeof r.build_cycles);
  mix(&r.kernel_cycles, sizeof r.kernel_cycles);
  mix(&r.total_cycles, sizeof r.total_cycles);
  mix(&r.stats, sizeof r.stats);
  return h;
}

/// Attempts and failed attempts; an attempt fails at most once.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  std::size_t begin() { return static_cast<std::size_t>(attempted++); }
  void fail(std::size_t attempt, const std::string& why) {
    if (failed_.size() <= attempt) failed_.resize(attempt + 1, false);
    if (!failed_[attempt]) {
      failed_[attempt] = true;
      ++failed;
    }
    errors.push_back(why);
  }

 private:
  std::vector<bool> failed_;
};

struct Cell {
  const Benchmark* b = nullptr;
  BenchConfig cfg;    ///< seeds, size and scheme; faults/observer per run
  std::string label;  ///< e.g. "EM3D/paper/global"
  std::uint64_t expected = 0;  ///< reference_checksum, computed in set-up
  std::optional<std::uint64_t> digest;  ///< of the cell's first run
  BenchResult first;                    ///< the cell's first run
  trace::BucketCycles buckets{};        ///< stats-only observer totals
  std::vector<double> seconds;          ///< timed work, one per pass
  /// Mean of the probes just before and just after each timed run.
  std::vector<double> probes;
};

/// The validation routine: `r` must carry the reference checksum and, when
/// `repeatable`, the same virtual statistics as the cell's first run.
void validate(Cell& c, const BenchResult& r, bool repeatable, Tally& tally,
              std::size_t attempt, const char* what) {
  if (r.checksum != c.expected) {
    tally.fail(attempt, c.label + " " + what + ": checksum " +
                            std::to_string(r.checksum) + " != reference " +
                            std::to_string(c.expected));
  }
  if (!repeatable) return;
  const std::uint64_t d = virtual_digest(r);
  if (!c.digest) {
    c.digest = d;
    c.first = r;
  } else if (*c.digest != d) {
    tally.fail(attempt,
               c.label + " " + what + ": virtual stats differ from first run");
  }
}

// --- options -----------------------------------------------------------------

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = kDefaultSeed;
  std::uint64_t fault_seed = 0;  ///< derived from seed
  double seconds = 10.0;
  bool traced = false;
  bool tiny = false;
  bool wrong_checksum = false;
  std::string tmp = ".";
  std::string spans_out;
  std::string revision = "unknown";
};

/// The fault schedule's seed is a fixed function of the workload seed, so
/// one --seed reproduces both the inputs and the injected faults.
std::uint64_t derive_fault_seed(std::uint64_t seed) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool flag_value(const char* arg, const char* name, std::string* out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

bool parse_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.size() > 19) return false;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
  }
  *out = std::strtoull(s.c_str(), nullptr, 10);
  return true;
}

bool parse_options(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    std::string v;
    std::uint64_t n = 0;
    if (flag_value(argv[i], "--workload", &v)) {
      for (const Workload& w : workloads()) {
        if (v == w.name) o->workload = &w;
      }
      if (o->workload == nullptr) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n", v.c_str());
        return false;
      }
    } else if (flag_value(argv[i], "--seed", &v)) {
      if (!parse_u64(v, &o->seed)) {
        std::fprintf(stderr, "perfbench: --seed must be an integer\n");
        return false;
      }
    } else if (flag_value(argv[i], "--seconds", &v)) {
      if (!parse_u64(v, &n) || n == 0 || n > 3600) {
        std::fprintf(stderr, "perfbench: --seconds must be in [1, 3600]\n");
        return false;
      }
      o->seconds = static_cast<double>(n);
    } else if (flag_value(argv[i], "--trace", &v)) {
      if (v != "0" && v != "1") {
        std::fprintf(stderr, "perfbench: --trace must be 0 or 1\n");
        return false;
      }
      o->traced = v == "1";
    } else if (flag_value(argv[i], "--tmp", &v)) {
      o->tmp = v;
    } else if (flag_value(argv[i], "--spans-out", &v)) {
      o->spans_out = v;
    } else if (flag_value(argv[i], "--revision", &v)) {
      o->revision = v;
    } else if (std::strcmp(argv[i], "--tiny") == 0) {
      o->tiny = true;
    } else if (std::strcmp(argv[i], "--wrong-checksum") == 0) {
      o->wrong_checksum = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument '%s'\n", argv[i]);
      return false;
    }
  }
  if (o->workload == nullptr) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload=migrate|cache|lossy|"
                 "pipeline [--seed=N] [--seconds=S] [--trace=0|1] "
                 "[--tmp=DIR] [--spans-out=FILE] [--revision=REV] [--tiny] "
                 "[--wrong-checksum]\n");
    return false;
  }
  o->fault_seed = derive_fault_seed(o->seed);
  return true;
}

std::string provenance_json(const Options& o) {
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"revision\": \"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"cxx_flags\": \"%s\", \"nproc\": %u, \"workload\": \"%s\", "
      "\"seed\": %" PRIu64 ", \"fault_seed\": %" PRIu64
      ", \"fault_spec\": \"%s\", \"nprocs\": %u, \"size\": \"%s\", "
      "\"seed_ignored_by\": [\"TreeAdd\", \"MST\", \"Perimeter\", "
      "\"Health\"]}",
      json_escape(o.revision).c_str(), json_escape(PERFBENCH_COMPILER).c_str(),
      PERFBENCH_BUILD_TYPE, json_escape(PERFBENCH_CXX_FLAGS).c_str(),
      std::thread::hardware_concurrency(), o.workload->name, o.seed,
      o.fault_seed, o.workload->lossy ? kLossySpec : "none",
      static_cast<unsigned>(kProcs), o.tiny ? "tiny" : "per-cell");
  return buf;
}

// --- the benchmark -----------------------------------------------------------

struct Setup {
  std::vector<Cell> cells;
  fault::FaultSpec lossy;
  fault::FaultSpec zero;
  fs::path tmp;
};

/// Everything before the first timed call. Returns false (with *err) only
/// for a broken benchmark definition, which is a driver error, not a cell
/// failure.
bool set_up(const Options& o, Tracer& tr, Setup* s, std::string* err) {
  Tracer::Scope root(tr, kSpanSetup, 0);
  s->cells.clear();
  for (const CellSpec& spec : o.workload->cells) {
    Cell c;
    c.b = find_benchmark(spec.bench);
    if (c.b == nullptr) {
      *err = std::string("no benchmark named ") + spec.bench;
      return false;
    }
    c.cfg.nprocs = kProcs;
    c.cfg.scheme = spec.scheme;
    c.cfg.paper_size = spec.paper;
    c.cfg.tiny = o.tiny;
    c.cfg.seed = o.seed;
    c.cfg.fault_seed = o.fault_seed;
    c.label = c.b->name() + "/" +
              (o.tiny ? "tiny" : spec.paper ? "paper" : "default") + "/" +
              scheme_name(spec.scheme);
    s->cells.push_back(std::move(c));
  }
  if (!fault::parse_fault_spec(kLossySpec, &s->lossy, err) ||
      !fault::parse_fault_spec(kZeroSpec, &s->zero, err)) {
    return false;
  }
  for (std::size_t i = 0; i < s->cells.size(); ++i) {
    Cell& c = s->cells[i];
    {
      Tracer::Scope span(tr, kSpanSiteTable, i);
      if (c.b->site_table(c.cfg, nullptr).empty()) {
        *err = c.label + ": empty site table";
        return false;
      }
    }
    Tracer::Scope span(tr, kSpanReference, i);
    c.expected = c.b->reference_checksum(c.cfg);
  }
  s->tmp = fs::path(o.tmp) / (std::string(o.workload->name) + "-" +
                              std::to_string(::getpid()));
  std::error_code ec;
  fs::remove_all(s->tmp, ec);
  if (!fs::create_directories(s->tmp, ec)) {
    *err = "cannot create " + s->tmp.string() + ": " + ec.message();
    return false;
  }
  return true;
}

/// Peak resident set size (VmHWM) since the last reset_peak_rss().
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// Restart the VmHWM high-water mark at the current RSS, so each pass
/// reports its own peak. Where the kernel refuses, the mark stays
/// cumulative (the process peak).
void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// Per-layer quantities that are not span self times.
struct LayerCounts {
  std::uint64_t run_refs = 0;  ///< heap references of kSpanRun runs
  std::int64_t zero_makespan_delta = 0;
  std::uint64_t events = 0;
  std::uint64_t bytes = 0;
  std::uint64_t events_analyzed = 0;
  trace::BucketCycles cp{};  ///< critical-path attribution
};

class Bench {
 public:
  Bench(const Options& o, Setup& s, Tracer& tr) : o_(o), s_(s), tr_(tr) {}

  /// One timed pass over every cell.
  void pass() {
    analyze::DiffProfile pending;  // the pipeline pair's local side
    bool have_pending = false;
    double probe_before = probe_seconds();
    reset_peak_rss();
    for (std::size_t i = 0; i < s_.cells.size(); ++i) {
      Cell& c = s_.cells[i];
      const std::size_t attempt = tally_.begin();
      BenchResult r;
      bool ran = false;
      const Clock::time_point t0 = Clock::now();
      {
        Tracer::Scope span(tr_, kSpanCell, i);
        if (o_.workload->pipeline) {
          analyze::DiffProfile profile;
          ran = pipeline_cell(c, i, attempt, &r, &profile);
          if (i % 2 == 0) {
            have_pending = ran;
            pending = std::move(profile);
          } else if (ran && have_pending) {
            Tracer::Scope d(tr_, kSpanDiff, i);
            analyze::DiffReport rep;
            std::string err;
            if (!analyze::diff_runs(pending, profile, kTopN, &rep, &err)) {
              tally_.fail(attempt, c.label + ": diff_runs: " + err);
            }
          }
        } else {
          ran = simulate(c, o_.workload->lossy ? &s_.lossy : nullptr, nullptr,
                         o_.workload->lossy ? kSpanLossy : kSpanRun, i,
                         attempt, &r);
        }
      }
      const double dt = since(t0);
      const double probe_after = probe_seconds();
      c.seconds.push_back(dt);
      c.probes.push_back(0.5 * (probe_before + probe_after));
      probe_before = probe_after;
      if (ran) validate(c, r, true, tally_, attempt, "run");
      // Hand the cell's freed heap back to the kernel, so peak RSS is the
      // largest single cell's footprint, not an artifact of how earlier
      // cells fragmented the allocator.
      malloc_trim(0);
    }
    pass_peaks_mb_.push_back(peak_rss_mb());
  }

  /// The traced run's extra rows: a stats-only observer run per cell for
  /// the cycle buckets, and the standing A/B rows.
  void ab_rows() {
    for (std::size_t i = 0; i < s_.cells.size(); ++i) {
      Cell& c = s_.cells[i];
      const fault::FaultSpec* faults =
          o_.workload->lossy ? &s_.lossy : nullptr;
      trace::Observer obs;
      BenchResult r;
      std::size_t attempt = tally_.begin();
      if (simulate(c, faults, &obs,
                   o_.workload->pipeline ? kSpanStats : kSpanObserve, i,
                   attempt, &r)) {
        validate(c, r, true, tally_, attempt, "stats-only observer run");
        if (!obs.runs().empty()) c.buckets = obs.runs().back().bucket_totals();
      }
      if (o_.workload->pipeline) {
        attempt = tally_.begin();
        if (simulate(c, nullptr, nullptr, kSpanRun, i, attempt, &r)) {
          validate(c, r, true, tally_, attempt, "no-observer run");
        }
      }
      if (o_.workload->lossy) {
        BenchResult none;
        BenchResult zero;
        attempt = tally_.begin();
        const bool ok_none =
            simulate(c, nullptr, nullptr, kSpanRun, i, attempt, &none);
        if (ok_none) validate(c, none, false, tally_, attempt, "no-plane run");
        attempt = tally_.begin();
        const bool ok_zero =
            simulate(c, &s_.zero, nullptr, kSpanZero, i, attempt, &zero);
        if (ok_zero) {
          validate(c, zero, false, tally_, attempt, "zero-plane run");
        }
        if (ok_none && ok_zero) {
          counts_.zero_makespan_delta +=
              static_cast<std::int64_t>(zero.total_cycles) -
              static_cast<std::int64_t>(none.total_cycles);
        }
      }
    }
  }

  [[nodiscard]] const Tally& tally() const { return tally_; }
  /// Median over passes of each pass's peak RSS.
  [[nodiscard]] double median_peak_rss_mb() const {
    return median(pass_peaks_mb_);
  }
  [[nodiscard]] const LayerCounts& counts() const { return counts_; }

 private:
  /// One simulation inside span `span`. A throw (WatchdogError,
  /// ConfigError, ...) fails the attempt and returns false.
  bool simulate(const Cell& c, const fault::FaultSpec* faults,
                trace::Observer* obs, const char* span, std::size_t id,
                std::size_t attempt, BenchResult* r) {
    BenchConfig cfg = c.cfg;
    cfg.faults = faults;
    cfg.observer = obs;
    if (obs != nullptr) obs->begin_run(c.label);
    try {
      Tracer::Scope sc(tr_, span, id);
      *r = c.b->run(cfg);
    } catch (const std::exception& e) {
      tally_.fail(attempt, c.label + " " + span + " threw: " + e.what());
      return false;
    }
    if (tr_.on() && span == kSpanRun) {
      const MachineStats& st = r->stats;
      counts_.run_refs += st.local_reads + st.local_writes +
                          st.cacheable_reads + st.cacheable_writes;
    }
    return true;
  }

  /// Simulate with a streaming trace, export stats, then stream-analyze
  /// the trace with the diff profile on. Returns false (attempt failed)
  /// when any stage fails.
  bool pipeline_cell(const Cell& c, std::size_t id, std::size_t attempt,
                     BenchResult* r, analyze::DiffProfile* profile) {
    const std::string path =
        (s_.tmp / ("cell" + std::to_string(id) + ".bin")).string();
    std::string err;
    bool ok = true;
    {
      trace::Observer obs;
      obs.set_trace_enabled(true);
      obs.set_event_limit(std::numeric_limits<std::uint64_t>::max());
      trace::StreamingTraceSink sink(path);
      obs.set_sink(&sink);
      ok = simulate(c, nullptr, &obs, kSpanStreamed, id, attempt, r);
      {
        Tracer::Scope span(tr_, kSpanFinalize, id);
        if (!sink.finalize(&err)) {
          tally_.fail(attempt, c.label + ": trace finalize: " + err);
          ok = false;
        }
      }
      if (!ok) return false;
      if (tr_.on()) counts_.events += sink.events_written();
      Tracer::Scope span(tr_, kSpanStatsJson, id);
      if (trace::stats_json(obs).empty()) {
        tally_.fail(attempt, c.label + ": empty stats_json");
        return false;
      }
    }
    std::error_code ec;
    if (tr_.on()) counts_.bytes += fs::file_size(path, ec);
    ok = analyze_trace(c, path, id, attempt, profile);
    fs::remove(path, ec);
    return ok;
  }

  bool analyze_trace(const Cell& c, const std::string& path, std::size_t id,
                     std::size_t attempt, analyze::DiffProfile* profile) {
    std::string err;
    analyze::TraceStream ts;
    analyze::TraceRun run;
    bool have_run = false;
    {
      Tracer::Scope span(tr_, kSpanRead, id);
      have_run = ts.open(path, &err) && ts.next_run(&run, &err);
    }
    if (!have_run) {
      tally_.fail(attempt, c.label + ": trace read: " +
                               (err.empty() ? "no run" : err));
      return false;
    }
    analyze::StreamingRunAnalyzer an(run, kTopN);
    an.enable_diff_profile();
    std::vector<trace::TraceEvent> batch;
    std::uint64_t events = 0;
    for (;;) {
      bool more = false;
      {
        Tracer::Scope span(tr_, kSpanRead, id);
        more = ts.next_events(&batch, kBatch, &err);
      }
      if (!more) break;
      Tracer::Scope span(tr_, kSpanAnalyze, id);
      for (const trace::TraceEvent& e : batch) {
        if (!an.add(e)) break;
      }
      events += batch.size();
    }
    analyze::RunReport rep;
    bool ok = err.empty();
    if (ok) {
      Tracer::Scope span(tr_, kSpanAnalyze, id);
      ok = an.finish_diff(&rep, profile, &err);
    }
    if (!ok) {
      tally_.fail(attempt, c.label + ": finish_diff: " + err);
      return false;
    }
    if (tr_.on()) {
      counts_.events_analyzed += events;
      for (std::size_t b = 0; b < trace::kNumBuckets; ++b) {
        counts_.cp[b] += rep.path.attribution[b];
      }
    }
    return true;
  }

  const Options& o_;
  Setup& s_;
  Tracer& tr_;
  Tally tally_;
  LayerCounts counts_;
  std::vector<double> pass_peaks_mb_;
};

// --- reporting ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};


std::uint64_t workload_digest(const Setup& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Cell& c : s.cells) {
    const std::uint64_t d = c.digest.value_or(0);
    for (int i = 0; i < 8; ++i) {
      h ^= (d >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

std::uint64_t makespan_sum(const Setup& s) {
  std::uint64_t sum = 0;
  for (const Cell& c : s.cells) sum += c.first.total_cycles;
  return sum;
}

/// Sum over cells of the median over passes of the cell's time, scaled
/// to the reference host speed (or as measured, when `raw`).
double wall_seconds(const Setup& s, bool raw) {
  double sum = 0.0;
  for (const Cell& c : s.cells) {
    std::vector<double> t;
    for (std::size_t p = 0; p < c.seconds.size(); ++p) {
      t.push_back(raw ? c.seconds[p] : scaled(c.seconds[p], c.probes[p]));
    }
    sum += median(t);
  }
  return sum;
}

std::vector<double> all_probes(const Setup& s) {
  std::vector<double> probes;
  for (const Cell& c : s.cells) {
    probes.insert(probes.end(), c.probes.begin(), c.probes.end());
  }
  return probes;
}

/// Pass `p`'s timed seconds summed over cells, scaled.
double pass_seconds(const Setup& s, std::size_t p) {
  double sum = 0.0;
  for (const Cell& c : s.cells) sum += scaled(c.seconds[p], c.probes[p]);
  return sum;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// `scale` takes this run's host times to the reference host speed (see
/// probe_seconds); `overhead_s` is already scaled.
std::vector<Metric> layer_metrics(const Options& o, const Setup& s,
                                  const Tracer& tr, const LayerCounts& k,
                                  double overhead_s, double scale) {
  MachineStats st;
  trace::BucketCycles bk{};
  for (const Cell& c : s.cells) {
    const MachineStats& x = c.first.stats;
    st.futurecalls += x.futurecalls;
    st.migrations += x.migrations;
    st.return_migrations += x.return_migrations;
    st.futures_stolen += x.futures_stolen;
    st.touches_blocked += x.touches_blocked;
    st.cacheable_reads_remote += x.cacheable_reads_remote;
    st.cache_hits += x.cache_hits;
    st.cache_misses += x.cache_misses;
    st.pages_cached += x.pages_cached;
    st.lines_invalidated += x.lines_invalidated;
    st.invalidation_messages += x.invalidation_messages;
    st.timestamp_checks += x.timestamp_checks;
    st.tracked_writes += x.tracked_writes;
    st.allocations += x.allocations;
    st.bytes_allocated += x.bytes_allocated;
    st.fault_messages += x.fault_messages;
    st.fault_drops += x.fault_drops;
    st.retransmissions += x.retransmissions;
    st.coherence_requests += x.coherence_requests;
    st.replies_ignored += x.replies_ignored;
    for (std::size_t b = 0; b < trace::kNumBuckets; ++b) bk[b] += c.buckets[b];
  }
  auto bucket = [&bk](trace::CycleBucket b) {
    return static_cast<double>(bk[static_cast<std::size_t>(b)]);
  };
  auto cp = [&k](trace::CycleBucket b) {
    return static_cast<double>(k.cp[static_cast<std::size_t>(b)]);
  };
  auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  const bool lossy = o.workload->lossy;
  const bool pipe = o.workload->pipeline;
  const double run_s = tr.self_total(kSpanRun);
  const double read_s = tr.self_total(kSpanRead);
  const double analyze_s = tr.self_total(kSpanAnalyze);
  using B = trace::CycleBucket;
  std::vector<Metric> m = {
      {"runtime.host_ns_per_ref", ratio(run_s * 1e9, n(k.run_refs)), "ns/ref"},
      {"runtime.futurecalls", n(st.futurecalls), "count"},
      {"runtime.migrations", n(st.migrations), "count"},
      {"runtime.return_migrations", n(st.return_migrations), "count"},
      {"runtime.futures_stolen", n(st.futures_stolen), "count"},
      {"runtime.touches_blocked", n(st.touches_blocked), "count"},
      {"runtime.compute_cycles", bucket(B::kCompute), "cycles"},
      {"runtime.migration_cycles", bucket(B::kMigration), "cycles"},
      {"runtime.idle_cycles", bucket(B::kIdle), "cycles"},
      {"cache.remote_reads", n(st.cacheable_reads_remote), "count"},
      {"cache.hits", n(st.cache_hits), "count"},
      {"cache.misses", n(st.cache_misses), "count"},
      {"cache.hit_ratio",
       ratio(n(st.cache_hits), n(st.cacheable_reads_remote)), "ratio"},
      {"cache.pages_cached", n(st.pages_cached), "count"},
      {"cache.stall_cycles", bucket(B::kCacheStall), "cycles"},
      {"cache.lines_invalidated", n(st.lines_invalidated), "count"},
      {"cache.invalidation_messages", n(st.invalidation_messages), "count"},
      {"cache.timestamp_checks", n(st.timestamp_checks), "count"},
      {"cache.tracked_writes", n(st.tracked_writes), "count"},
      {"cache.coherence_cycles", bucket(B::kCoherence), "cycles"},
      {"mem.allocations", n(st.allocations), "count"},
      {"mem.bytes_allocated", n(st.bytes_allocated), "B"},
      {"fault.plane_s", lossy ? tr.self_total(kSpanZero) - run_s : 0.0, "s"},
      {"fault.loss_s",
       lossy ? tr.self_total(kSpanLossy) - tr.self_total(kSpanZero) : 0.0,
       "s"},
      {"fault.messages", n(st.fault_messages), "count"},
      {"fault.drops", n(st.fault_drops), "count"},
      {"fault.retransmissions", n(st.retransmissions), "count"},
      {"fault.retry_ratio", ratio(n(st.retransmissions), n(st.fault_messages)),
       "ratio"},
      {"fault.coherence_requests", n(st.coherence_requests), "count"},
      {"fault.replies_ignored", n(st.replies_ignored), "count"},
      {"fault.retry_cycles", bucket(B::kRetry), "cycles"},
      {"fault.zero_makespan_delta", static_cast<double>(k.zero_makespan_delta),
       "cycles"},
      {"trace.observer_s", pipe ? tr.self_total(kSpanStats) - run_s : 0.0,
       "s"},
      {"trace.stream_s",
       pipe ? tr.self_total(kSpanStreamed) - tr.self_total(kSpanStats) : 0.0,
       "s"},
      {"trace.events", n(k.events), "count"},
      {"trace.bytes", n(k.bytes), "B"},
      {"trace.stats_json_s", tr.self_total(kSpanStatsJson), "s"},
      {"trace.finalize_s", tr.self_total(kSpanFinalize), "s"},
      {"analyze.read_s", read_s, "s"},
      {"analyze.analyze_s", analyze_s, "s"},
      {"analyze.diff_s", tr.self_total(kSpanDiff), "s"},
      {"analyze.events_per_s",
       ratio(n(k.events_analyzed), read_s + analyze_s), "1/s"},
      {"analyze.cp_compute_cycles", cp(B::kCompute), "cycles"},
      {"analyze.cp_migration_cycles", cp(B::kMigration), "cycles"},
      {"analyze.cp_cache_stall_cycles", cp(B::kCacheStall), "cycles"},
      {"analyze.cp_coherence_cycles", cp(B::kCoherence), "cycles"},
      {"analyze.cp_idle_cycles", cp(B::kIdle), "cycles"},
      {"analyze.cp_retry_cycles", cp(B::kRetry), "cycles"},
      {"compiler.site_table_s", tr.self_total(kSpanSiteTable), "s"},
      {"bench.reference_s", tr.self_total(kSpanReference), "s"},
      {"bench.trace_overhead_s", overhead_s / scale, "s"},
  };
  for (Metric& x : m) {
    if (x.unit == "s" || x.unit == "ns/ref") x.value *= scale;
    if (x.unit == "1/s") x.value /= scale;
  }
  return m;
}

bool write_spans(const Options& o, const Tracer& tr,
                 const std::string& provenance) {
  std::FILE* f = std::fopen(o.spans_out.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = tr.self_times();
  std::fprintf(f, "{\"provenance\": %s,\n \"spans\": [\n", provenance.c_str());
  const auto& spans = tr.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"id\": %zu, \"parent\": %d, "
                 "\"start_s\": %.9f, \"end_s\": %.9f, \"self_s\": %.9f}%s\n",
                 s.name, s.id, s.parent, s.start, s.end, self[i],
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, " ]\n}\n");
  return std::fclose(f) == 0;
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-32s %.17g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& e : tally.errors) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", e.c_str());
  }
  std::string json = "{\"correct\": ";
  json += tally.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse_options(argc, argv, &o)) return 2;
  const std::string provenance = provenance_json(o);
  std::printf("provenance %s\n", provenance.c_str());

  Tracer tr;
  Setup s;
  std::string err;
  std::vector<double> setup_times;
  const Clock::time_point setup_start = Clock::now();
  double probe_before = probe_seconds();
  for (int rep = 0;; ++rep) {
    const bool more = rep < kSetupReps || (since(setup_start) < kSetupSeconds &&
                                           rep < kMaxSetupReps);
    if (rep > 0 && (o.traced || !more)) break;
    tr.set_on(o.traced);
    const Clock::time_point t0 = Clock::now();
    if (!set_up(o, tr, &s, &err)) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", err.c_str());
      return 1;
    }
    const double dt = since(t0);
    const double probe_after = probe_seconds();
    setup_times.push_back(scaled(dt, 0.5 * (probe_before + probe_after)));
    probe_before = probe_after;
  }
  // The self-test's handle on the validation routine: a wrong expected
  // checksum must surface as a failed attempt, not an abort.
  if (o.wrong_checksum) s.cells.front().expected ^= 1;

  Bench bench(o, s, tr);
  std::vector<Metric> metrics;
  if (!o.traced) {
    const Clock::time_point start = Clock::now();
    int passes = 0;
    do {
      bench.pass();
      ++passes;
    } while (since(start) < o.seconds);
    metrics = {
        {"wall_s", wall_seconds(s, false), "s"},
        {"setup_s", median(setup_times), "s"},
        {"peak_rss_mb", bench.median_peak_rss_mb(), "MB"},
        {"makespan_cycles", static_cast<double>(makespan_sum(s)), "cycles"},
    };
    std::printf("passes %d\nmeasured_wall_s %.9f\nprobe_median_s %.9f\n",
                passes, wall_seconds(s, true), median(all_probes(s)));
  } else {
    tr.set_on(false);
    bench.pass();
    tr.set_on(true);
    bench.pass();
    bench.ab_rows();
    tr.set_on(false);
    const double untraced = pass_seconds(s, 0);
    const double traced = pass_seconds(s, 1);
    std::printf("untraced_wall_s %.9f\ntraced_wall_s %.9f\n", untraced,
                traced);
    metrics = layer_metrics(o, s, tr, bench.counts(), traced - untraced,
                            kProbeReferenceSeconds / median(all_probes(s)));
    if (!o.spans_out.empty() && !write_spans(o, tr, provenance)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   o.spans_out.c_str());
      return 1;
    }
  }
  std::error_code ec;
  fs::remove_all(s.tmp, ec);

  const Tally& tally = bench.tally();
  std::printf("virtual_digest %016" PRIx64 "\n", workload_digest(s));
  std::printf("error_rate %.17g (%" PRIu64 " failed / %" PRIu64
              " attempted)\n",
              ratio(static_cast<double>(tally.failed),
                    static_cast<double>(tally.attempted)),
              tally.failed, tally.attempted);
  print_result(tally, metrics);
  return 0;
}
