// ObsCli flag robustness: malformed numeric values and unparsable fault
// specs must exit 2 with a one-line message — never be silently coerced
// to zero — and well-formed values must land in the parsed surface.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "olden/bench/benchmark.hpp"
#include "olden/bench/obs_cli.hpp"
#include "trace_digest.hpp"

namespace olden::bench {
namespace {

/// Build a mutable argv (ObsCli::parse edits it in place).
struct Argv {
  explicit Argv(std::vector<std::string> args) : storage(std::move(args)) {
    ptrs.push_back(name.data());
    for (std::string& s : storage) ptrs.push_back(s.data());
    ptrs.push_back(nullptr);
    argc = static_cast<int>(ptrs.size()) - 1;
  }
  std::string name = "olden_tests";
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
  int argc = 0;
};

void parse_args(std::vector<std::string> args) {
  Argv a(std::move(args));
  ObsCli cli;
  cli.parse(&a.argc, a.ptrs.data());
}

using CliDeath = ::testing::Test;

TEST(CliDeath, NonNumericTraceLimitExits2) {
  EXPECT_EXIT(parse_args({"--trace-limit=abc"}),
              ::testing::ExitedWithCode(2), "not a non-negative integer");
}

TEST(CliDeath, NegativeTraceLimitExits2) {
  EXPECT_EXIT(parse_args({"--trace-limit=-5"}),
              ::testing::ExitedWithCode(2), "not a non-negative integer");
}

TEST(CliDeath, EmptyTraceLimitExits2) {
  EXPECT_EXIT(parse_args({"--trace-limit="}),
              ::testing::ExitedWithCode(2), "not a non-negative integer");
}

TEST(CliDeath, OverflowingTraceLimitExits2) {
  EXPECT_EXIT(parse_args({"--trace-limit=99999999999999999999999"}),
              ::testing::ExitedWithCode(2), "not a non-negative integer");
}

TEST(CliDeath, ProfileIntervalIsAnUnknownFlag) {
  // The profile lost its interval timelines, and their width with them.
  EXPECT_EXIT(parse_args({"--profile-interval=65536"}),
              ::testing::ExitedWithCode(2),
              "unknown flag '--profile-interval=65536'");
}

TEST(CliDeath, RemovedAdaptiveFlagsAreUnknown) {
  // The adaptive scheme went, and its two knobs with it.
  EXPECT_EXIT(parse_args({"--adapt-interval=8192"}),
              ::testing::ExitedWithCode(2),
              "unknown flag '--adapt-interval=8192'");
  EXPECT_EXIT(parse_args({"--adapt-hysteresis=2"}),
              ::testing::ExitedWithCode(2),
              "unknown flag '--adapt-hysteresis=2'");
}

TEST(CliDeath, NonNumericFaultSeedExits2) {
  EXPECT_EXIT(parse_args({"--fault-seed=xyz"}),
              ::testing::ExitedWithCode(2), "not a non-negative integer");
}

TEST(CliDeath, NegativeFaultSeedExits2) {
  EXPECT_EXIT(parse_args({"--fault-seed=-1"}),
              ::testing::ExitedWithCode(2), "not a non-negative integer");
}

TEST(CliDeath, MalformedFaultSpecExits2) {
  EXPECT_EXIT(parse_args({"--faults=drop=2.0"}),
              ::testing::ExitedWithCode(2), "--faults");
}

TEST(CliDeath, FaultSpecErrorNamesTheTokenWithoutStutter) {
  // The parser's own messages carry a "faults: " prefix; the flag handler
  // must strip it so the user sees "--faults: duplicate key 'drop'", not
  // "--faults: faults: duplicate key 'drop'". Anchoring the regex on the
  // program name proves the prefix appears exactly once.
  EXPECT_EXIT(parse_args({"--faults=drop=0.1,drop=0.2"}),
              ::testing::ExitedWithCode(2),
              "olden_tests: --faults: duplicate key 'drop'");
}

TEST(CliDeath, DuplicateFaultKeyExits2) {
  EXPECT_EXIT(parse_args({"--faults=timeout=100,timeout=200"}),
              ::testing::ExitedWithCode(2), "duplicate key 'timeout'");
}

TEST(CliDeath, OverflowingFaultTimeoutExits2) {
  EXPECT_EXIT(parse_args({"--faults=timeout=99999999999999999999"}),
              ::testing::ExitedWithCode(2), "positive integer");
}

TEST(CliDeath, EmptyFaultFieldExits2) {
  EXPECT_EXIT(parse_args({"--faults=drop=0.1,,dup=0.1"}),
              ::testing::ExitedWithCode(2), "expected key=value");
}

TEST(CliDeath, UnknownFaultClassExits2) {
  EXPECT_EXIT(parse_args({"--faults=drop=0.1,classes=fill:bogus"}),
              ::testing::ExitedWithCode(2), "unknown class 'bogus'");
}

TEST(CliDeath, DuplicateFaultClassExits2) {
  EXPECT_EXIT(parse_args({"--faults=drop=0.1,classes=fill:fill"}),
              ::testing::ExitedWithCode(2), "duplicate class 'fill'");
}

TEST(CliDeath, UnknownFlagExits2) {
  EXPECT_EXIT(parse_args({"--frobnicate"}), ::testing::ExitedWithCode(2),
              "unknown flag");
}

TEST(CliDeath, TraceStreamIsAnUnknownFlag) {
  EXPECT_EXIT(parse_args({"--trace-stream=t.bin"}),
              ::testing::ExitedWithCode(2), "unknown flag '--trace-stream");
}

TEST(CliDeath, TraceIsAnUnknownFlag) {
  // Chrome JSON is rendered from the binary trace by olden-analyze
  // --chrome-out; no bench binary writes it.
  EXPECT_EXIT(parse_args({"--trace=t.json"}), ::testing::ExitedWithCode(2),
              "unknown flag '--trace=t.json'");
}

TEST(CliDeath, EmptyPathsExit2) {
  // No other binding supplies a default, so an empty path is a mistake.
  for (const char* flag : {"--stats-json=", "--trace-bin=", "--profile="}) {
    EXPECT_EXIT(parse_args({flag}), ::testing::ExitedWithCode(2),
                "empty value is not a path")
        << flag;
  }
}

TEST(CliDeath, UnwritableTraceBinExits1AtParse) {
  EXPECT_EXIT(parse_args({"--trace-bin=/nonexistent-dir/x.bin"}),
              ::testing::ExitedWithCode(1), "cannot open");
}

TEST(CliParse, WellFormedValuesLand) {
  Argv a({"--trace-limit=123", "--faults=drop=0.25,timeout=900",
          "--fault-seed=7"});
  ObsCli cli;
  cli.parse(&a.argc, a.ptrs.data());
  EXPECT_EQ(a.argc, 1);  // all three flags consumed
  ASSERT_NE(cli.faults(), nullptr);
  EXPECT_DOUBLE_EQ(cli.faults()->drop, 0.25);
  EXPECT_EQ(cli.faults()->ack_timeout, 900u);
  EXPECT_EQ(cli.fault_seed(), 7u);
}

TEST(CliParse, FaultClassSelectorLands) {
  Argv a({"--faults=drop=0.2,classes=fill:ts_check,timeout=900"});
  ObsCli cli;
  cli.parse(&a.argc, a.ptrs.data());
  ASSERT_NE(cli.faults(), nullptr);
  EXPECT_TRUE(cli.faults()->class_enabled(MsgClass::kFill));
  EXPECT_TRUE(cli.faults()->class_enabled(MsgClass::kTsCheck));
  EXPECT_FALSE(cli.faults()->class_enabled(MsgClass::kMigration));
  EXPECT_FALSE(cli.faults()->class_enabled(MsgClass::kInvalidate));
}

TEST(CliParse, FaultsNoneStaysDisabled) {
  for (const char* flag : {"--faults=none", "--faults="}) {
    Argv a({flag});
    ObsCli cli;
    cli.parse(&a.argc, a.ptrs.data());
    EXPECT_EQ(cli.faults(), nullptr) << flag;
  }
}

/// One tiny TreeAdd run observed through `cli`, then its outputs written
/// the way every bench binary writes them.
void run_tiny(ObsCli& cli) {
  cli.begin_run("TreeAdd/cli");
  BenchConfig cfg{.nprocs = 4, .scheme = Coherence::kLocalKnowledge};
  cfg.tiny = true;
  cfg.observer = cli.observer();
  (void)find_benchmark("TreeAdd")->run(cfg);
  EXPECT_TRUE(cli.finish());
}

TEST(CliParse, TraceBinAloneStreams) {
  const std::string path = test::temp_path("cli_streams.bin");
  Argv a({"--trace-bin=" + path});
  ObsCli cli;
  cli.parse(&a.argc, a.ptrs.data());
  ASSERT_NE(cli.observer(), nullptr);
  EXPECT_NE(cli.observer()->sink(), nullptr);
  run_tiny(cli);
  EXPECT_GT(cli.observer()->runs().at(0).events_streamed, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace olden::bench
