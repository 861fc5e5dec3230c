// Unit tests for the observability layer: histogram bucketing edges, the
// Chrome trace_event JSON that olden-analyze renders from the binary trace
// (parsed back by a strict JSON checker), the binary event log framing,
// the stats document, and the exhaustiveness of the per-processor cycle
// accounting.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "olden/olden.hpp"
#include "olden/trace/observer.hpp"
#include "trace_digest.hpp"

namespace olden {
namespace {

using trace::Histogram;

// --- histogram bucketing -----------------------------------------------

TEST(Histogram, ZeroGoesToBucketZeroOnly) {
  Histogram h;
  h.record(0);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, PowerOfTwoBoundaries) {
  // Bucket b >= 1 holds [2^(b-1), 2^b): 1 -> bucket 1, 2..3 -> bucket 2,
  // 4..7 -> bucket 3, and a value on a power of two starts a new bucket.
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(7), 3u);
  EXPECT_EQ(Histogram::bucket_of(8), 4u);
  EXPECT_EQ(Histogram::bucket_of((1ull << 32) - 1), 32u);
  EXPECT_EQ(Histogram::bucket_of(1ull << 32), 33u);
}

TEST(Histogram, MaxValueLandsInLastBucket) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(Histogram::bucket_of(kMax), Histogram::kBucketCount - 1);
  Histogram h;
  h.record(kMax);
  EXPECT_EQ(h.bucket_count(Histogram::kBucketCount - 1), 1u);
  EXPECT_EQ(h.max(), kMax);
  EXPECT_EQ(h.sum(), kMax);
}

TEST(Histogram, BucketBoundsAreConsistent) {
  // Every bucket's [lo, hi] range must map back to the same bucket, and
  // ranges must tile the u64 domain without gaps.
  for (std::size_t b = 0; b < Histogram::kBucketCount; ++b) {
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_lo(b)), b) << b;
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_hi(b)), b) << b;
    if (b + 1 < Histogram::kBucketCount) {
      EXPECT_EQ(Histogram::bucket_hi(b) + 1, Histogram::bucket_lo(b + 1)) << b;
    }
  }
  EXPECT_EQ(Histogram::bucket_hi(Histogram::kBucketCount - 1),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(Histogram, AggregatesTrackRecordedValues) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  for (std::uint64_t v : {5u, 9u, 1u, 100u}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 115u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 115.0 / 4.0);
}

// --- a strict JSON well-formedness checker ------------------------------
//
// Exports are consumed by Perfetto and external tooling, so the tests hold
// them to real JSON grammar, not substring checks. This is a minimal
// recursive-descent validator (objects, arrays, strings with escapes,
// numbers, true/false/null).

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(s_[pos_])) return false;
          }
        } else if (std::strchr("\"\\/bfnrt", e) == nullptr) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(peek())) ++pos_;
    if (peek() == '.') {
      ++pos_;
      if (!std::isdigit(peek())) return false;
      while (std::isdigit(peek())) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!std::isdigit(peek())) return false;
      while (std::isdigit(peek())) ++pos_;
    }
    return pos_ > start && s_[start] != '-' ? true : pos_ > start + 1;
  }

  bool literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\t' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// --- a small observed program -------------------------------------------

struct Node {
  std::int64_t val;
  GPtr<Node> next;
};
enum Site : SiteId { kVal, kNext, kNumSites };

Task<std::int64_t> walk_root(Machine& m, int n) {
  GPtr<Node> head, tail;
  for (int i = 0; i < n; ++i) {
    auto node = m.alloc<Node>(static_cast<ProcId>(i % m.nprocs()));
    co_await wr(node, &Node::val, std::int64_t{i}, kVal);
    if (tail) {
      co_await wr(tail, &Node::next, node, kNext);
    } else {
      head = node;
    }
    tail = node;
  }
  std::int64_t acc = 0;
  GPtr<Node> l = head;
  while (l) {
    acc += co_await rd(l, &Node::val, kVal);
    l = co_await rd(l, &Node::next, kNext);
    m.work(10);
  }
  co_return acc;
}

std::int64_t run_observed(trace::Observer& obs, ProcId procs,
                          Mechanism mech = Mechanism::kCache) {
  Machine m({.nprocs = procs, .observer = &obs});
  m.set_site_mechanisms({mech, mech});
  return run_program(m, walk_root(m, 64));
}

// --- exports -------------------------------------------------------------

TEST(TraceExport, ChromeTraceIsWellFormedJson) {
  test::StreamedObserver obs;
  obs.begin_run("walk \"quoted\"\n");  // exercise string escaping
  run_observed(obs, 4);
  const std::string json = test::chrome_json(obs);
  EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
  // One process per run, one named track per virtual processor.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"proc 3\""), std::string::npos);
  EXPECT_NE(json.find("\"cache_miss\""), std::string::npos);
  EXPECT_EQ(test::fnv1a(json), 0x14a5c33fbf94ce08ULL);
}

TEST(TraceExport, ChromeTraceWithMigrationSlices) {
  test::StreamedObserver obs;
  obs.begin_run("migrate-walk");
  run_observed(obs, 4, Mechanism::kMigrate);
  const std::string json = test::chrome_json(obs);
  EXPECT_TRUE(JsonChecker(json).valid());
  // Migration transit renders as "X" duration slices.
  EXPECT_NE(json.find("\"migration\",\"ph\":\"X\""), std::string::npos);
  EXPECT_EQ(test::fnv1a(json), 0xfe57c98d6fb582a2ULL);
}

TEST(TraceExport, ChromeTraceEmitsCausalFlowArrows) {
  test::StreamedObserver obs;
  obs.begin_run("flow-walk");
  run_observed(obs, 4, Mechanism::kMigrate);
  const std::string json = test::chrome_json(obs);
  EXPECT_TRUE(JsonChecker(json).valid());
  // Cross-processor parent links render as Perfetto flow pairs: an "s"
  // (start) half at the parent and an "f" half bound to the child.
  EXPECT_NE(json.find("\"cat\":\"causal\",\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"causal\",\"ph\":\"f\",\"bp\":\"e\""),
            std::string::npos);
  EXPECT_EQ(test::fnv1a(json), 0xa64039549309e5a1ULL);
}

TEST(TraceEvents, CausalFieldsThreadTheRun) {
  test::StreamedObserver obs;
  obs.begin_run("causal-walk");
  run_observed(obs, 4, Mechanism::kMigrate);
  ASSERT_EQ(obs.runs().size(), 1u);
  const std::vector<trace::TraceEvent> events = test::streamed_events(obs);
  ASSERT_GT(events.size(), 2u);
  // Emission-order ids: strictly increasing, and with nothing dropped,
  // dense from zero.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].id, i);
  }
  // Every migration arrival parents on a migration departure, and the
  // link carries the chain across processors.
  std::size_t arrivals = 0;
  for (const trace::TraceEvent& e : events) {
    EXPECT_NE(e.chain, trace::kNoChain);
    if (e.kind != trace::EventKind::kMigrationArrive) continue;
    ++arrivals;
    ASSERT_NE(e.parent, trace::kNoEvent);
    const trace::TraceEvent& dep = events[e.parent];
    EXPECT_EQ(dep.kind, trace::EventKind::kMigrationDepart);
    EXPECT_EQ(dep.chain, e.chain);
    EXPECT_NE(dep.proc, e.proc);
  }
  EXPECT_GT(arrivals, 0u);
}

TEST(TraceExport, EmptyObserverStillExportsValidDocuments) {
  // A trace of no runs renders as a valid, empty Chrome document.
  test::StreamedObserver obs;
  EXPECT_TRUE(JsonChecker(test::chrome_json(obs)).valid());
  EXPECT_TRUE(JsonChecker(trace::stats_json(obs)).valid());
}

TEST(ObserverDeath, TracingWithoutASinkFailsAtAttach) {
  // Events only stream: with no sink to take them, the first run aborts
  // rather than drop them silently.
  trace::Observer obs;
  obs.set_trace_enabled(true);
  EXPECT_DEATH(run_observed(obs, 2), "no sink is installed");
}

TEST(TraceExport, StatsJsonIsWellFormedAndCarriesSchema) {
  trace::Observer obs;
  obs.begin_run("walk/p=4", {{"benchmark", "walk"}});
  run_observed(obs, 4);
  const std::string json = trace::stats_json(obs);
  EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"schema_version\":7"), std::string::npos);
  EXPECT_NE(json.find("\"fault_classes\""), std::string::npos);
  EXPECT_NE(json.find("\"coherence_requests\""), std::string::npos);
  EXPECT_NE(json.find("\"label\":\"walk/p=4\""), std::string::npos);
  EXPECT_NE(json.find("\"benchmark\":\"walk\""), std::string::npos);
  EXPECT_NE(json.find("\"makespan_cycles\""), std::string::npos);
  EXPECT_NE(json.find("\"timestamp_stalls\""), std::string::npos);
  EXPECT_NE(json.find("\"breakdown\""), std::string::npos);
}

TEST(TraceExport, FailedWriteReportsAnError) {
  // The document fits in stdio's buffer, so /dev/full refuses it only
  // when the file is closed; that failure must still be reported.
  if (std::FILE* probe = std::fopen("/dev/full", "wb")) {
    std::fclose(probe);
  } else {
    GTEST_SKIP() << "no /dev/full on this host";
  }
  trace::Observer obs;
  obs.begin_run("walk/p=4");
  run_observed(obs, 4);
  std::string err;
  EXPECT_FALSE(trace::write_stats_json(obs, "/dev/full", &err));
  EXPECT_NE(err.find("cannot write /dev/full"), std::string::npos) << err;
}

TEST(TraceExport, BinaryLogFraming) {
  test::StreamedObserver obs;
  obs.begin_run("bin");
  run_observed(obs, 2);
  ASSERT_EQ(obs.runs().size(), 1u);
  const std::uint64_t n_events = obs.runs()[0].events_streamed;
  ASSERT_GT(n_events, 0u);

  const std::string body = test::trace_bytes(obs);

  // magic + u32 version + u32 run count + (u32 label len + label +
  // u32 nprocs + u64 makespan + u64 dropped + u64 event count + records).
  ASSERT_GE(body.size(), 16u);
  EXPECT_EQ(std::memcmp(body.data(), trace::kBinaryTraceMagic, 8), 0);
  const std::size_t expect = 16 + 4 + 3 /* "bin" */ + 4 + 8 + 8 + 8 +
                             n_events * trace::kBinaryRecordBytes;
  EXPECT_EQ(body.size(), expect);
}

TEST(TraceExport, EventLimitCountsDrops) {
  test::StreamedObserver obs;
  obs.set_event_limit(10);
  obs.begin_run("limited");
  run_observed(obs, 4);
  ASSERT_EQ(obs.runs().size(), 1u);
  EXPECT_EQ(obs.runs()[0].events_streamed, 10u);
  EXPECT_EQ(test::streamed_events(obs).size(), 10u);
  EXPECT_GT(obs.runs()[0].events_dropped, 0u);
  // Per-kind counts keep counting past the retention limit.
  std::uint64_t counted = 0;
  for (std::uint64_t c : obs.runs()[0].event_counts) counted += c;
  EXPECT_EQ(counted, 10u + obs.runs()[0].events_dropped);
  // The stats document surfaces the truncation at top level.
  EXPECT_NE(trace::stats_json(obs).find("\"trace_truncated\":true"),
            std::string::npos);
}

TEST(TraceExport, StatsJsonReportsNoTruncationWhenNothingDropped) {
  test::StreamedObserver obs;
  obs.begin_run("unlimited");
  run_observed(obs, 4);
  ASSERT_EQ(obs.runs().at(0).events_dropped, 0u);
  EXPECT_NE(trace::stats_json(obs).find("\"trace_truncated\":false"),
            std::string::npos);
}

// --- cycle accounting ----------------------------------------------------

TEST(CycleAccounting, BucketsAreExhaustive) {
  // Every clock increment goes through a bucket, and finish() adds each
  // processor's trailing idle, so per-processor buckets must sum exactly
  // to the makespan.
  trace::Observer obs;
  obs.begin_run("exhaustive");
  run_observed(obs, 4, Mechanism::kMigrate);
  ASSERT_EQ(obs.runs().size(), 1u);
  const trace::RunRecord& run = obs.runs()[0];
  ASSERT_EQ(run.breakdown.size(), 4u);
  for (ProcId p = 0; p < 4; ++p) {
    std::uint64_t sum = 0;
    for (std::uint64_t b : run.breakdown[p]) sum += b;
    EXPECT_EQ(sum, run.makespan) << "proc " << p;
    EXPECT_LE(run.proc_clock[p], run.makespan);
  }
}

TEST(CycleAccounting, SequentialRunIsAllCompute) {
  trace::Observer obs;
  obs.begin_run("seq");
  Machine m({.nprocs = 1,
             .costs = {.sequential_baseline = true},
             .observer = &obs});
  m.set_site_mechanisms({Mechanism::kCache, Mechanism::kCache});
  run_program(m, walk_root(m, 32));
  const trace::RunRecord& run = obs.runs().at(0);
  using trace::CycleBucket;
  EXPECT_GT(run.breakdown[0][static_cast<int>(CycleBucket::kCompute)], 0u);
  EXPECT_EQ(run.breakdown[0][static_cast<int>(CycleBucket::kMigration)], 0u);
  EXPECT_EQ(run.breakdown[0][static_cast<int>(CycleBucket::kCacheStall)], 0u);
  EXPECT_EQ(run.breakdown[0][static_cast<int>(CycleBucket::kCoherence)], 0u);
}

TEST(CycleAccounting, MultipleRunsAccumulateSeparately) {
  trace::Observer obs;
  obs.begin_run("first");
  run_observed(obs, 2);
  obs.begin_run("second");
  run_observed(obs, 4);
  ASSERT_EQ(obs.runs().size(), 2u);
  EXPECT_EQ(obs.runs()[0].label, "first");
  EXPECT_EQ(obs.runs()[1].label, "second");
  EXPECT_EQ(obs.runs()[0].nprocs, 2u);
  EXPECT_EQ(obs.runs()[1].nprocs, 4u);
}

}  // namespace
}  // namespace olden
