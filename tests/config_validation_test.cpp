// Machine construction contract and teardown hygiene.
//
// A RunConfig with a machine size outside [1, kMaxProcs] must be rejected
// at construction with a structured ConfigError (the CLIs translate it to
// exit code 2), not discovered later as a shift past the ProcSet word or
// an out-of-range vector index. And a Machine must tear down leak-free no
// matter how the program ended — including futures that were created but
// never touched, whose cells nothing but the machine's registry still
// references. The leak half of this file is only conclusive under the
// OLDEN_SANITIZE=ON build, where ASan turns a dropped cell into a test
// failure; the plain build still checks the observable counters.
#include <gtest/gtest.h>

#include <vector>

#include "olden/olden.hpp"

namespace olden {
namespace {

enum Site : SiteId { kCache0, kNumSites };

std::vector<Mechanism> table() { return {Mechanism::kCache}; }

// --- construction validation ---------------------------------------------

TEST(ConfigValidation, RejectsZeroProcessors) {
  EXPECT_THROW(Machine({.nprocs = 0}), ConfigError);
}

TEST(ConfigValidation, RejectsOversizedMachine) {
  EXPECT_THROW(Machine({.nprocs = kMaxProcs + 1}), ConfigError);
}

TEST(ConfigValidation, ErrorMessageNamesTheBounds) {
  try {
    Machine m({.nprocs = 65});
    FAIL() << "construction should have thrown";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("nprocs"), std::string::npos) << msg;
    EXPECT_NE(msg.find("65"), std::string::npos) << msg;
  }
}

TEST(ConfigValidation, AcceptsTheFullValidRange) {
  EXPECT_NO_THROW(Machine({.nprocs = 1}));
  EXPECT_NO_THROW(Machine({.nprocs = kMaxProcs}));
}

// --- leak-free teardown ---------------------------------------------------

Task<std::int64_t> idle_body(Machine&) { co_return 7; }

// Creates `n` futures and touches none of them. Their cells stay resolved
// and unconsumed; only the machine's live-cell registry can free them.
Task<std::int64_t> abandon_futures(Machine& m, int n) {
  for (int i = 0; i < n; ++i) {
    auto f = co_await futurecall(idle_body(m));
    (void)f;  // deliberately never touched
  }
  co_return 1;
}

TEST(MachineTeardown, AbandonedFuturesAreFreedByTheMachine) {
  {
    Machine m({.nprocs = 4});
    m.set_site_mechanisms(table());
    EXPECT_EQ(run_program(m, abandon_futures(m, 64)), 1);
    EXPECT_EQ(m.stats().futurecalls, 64u);
    // ~Machine destroys the 64 never-touched cells (and their body
    // frames) here; ASan fails the test if any survive.
  }
  SUCCEED();
}

Task<std::int64_t> touch_some(Machine& m, int total, int touched) {
  std::int64_t acc = 0;
  for (int i = 0; i < total; ++i) {
    auto f = co_await futurecall(idle_body(m));
    if (i < touched) acc += co_await touch(f);
  }
  co_return acc;
}

TEST(MachineTeardown, MixOfTouchedAndAbandonedFutures) {
  {
    Machine m({.nprocs = 4});
    m.set_site_mechanisms(table());
    EXPECT_EQ(run_program(m, touch_some(m, 32, 10)), 70);
  }
  SUCCEED();
}

}  // namespace
}  // namespace olden
