// The grid the per-cell suites run over: every benchmark in the suite
// under each of the three coherence schemes, with gtest names such as
// "BarnesHut_local".
#pragma once

#include <gtest/gtest.h>

#include <cctype>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "olden/bench/benchmark.hpp"
#include "olden/support/types.hpp"

namespace olden::test {

struct SchemeUnderTest {
  const char* name;  ///< as the stats document's run "scheme" spells it
  Coherence scheme;
};

inline void PrintTo(const SchemeUnderTest& s, std::ostream* os) {
  *os << s.name;
}

inline constexpr SchemeUnderTest kSchemes[] = {
    {"local", Coherence::kLocalKnowledge},
    {"global", Coherence::kEagerGlobal},
    {"bilateral", Coherence::kBilateral},
};

using GridCell = std::tuple<std::string, SchemeUnderTest>;

/// Every (benchmark, scheme) pair, for INSTANTIATE_TEST_SUITE_P.
inline auto grid() {
  std::vector<std::string> names;
  for (const bench::Benchmark* b : bench::suite()) names.push_back(b->name());
  return ::testing::Combine(::testing::ValuesIn(names),
                            ::testing::ValuesIn(kSchemes));
}

/// gtest names are alphanumeric: "Barnes-Hut" under local is
/// "BarnesHut_local".
inline std::string grid_name(const ::testing::TestParamInfo<GridCell>& info) {
  std::string s;
  for (char c : std::get<0>(info.param)) {
    if (std::isalnum(static_cast<unsigned char>(c))) s += c;
  }
  return s + "_" + std::get<1>(info.param).name;
}

}  // namespace olden::test
