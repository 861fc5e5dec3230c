// FNV-1a over a run's binary trace. The equivalence suites pin these
// digests to recorded values, so a change that moves one cycle, one
// counter or one event anywhere in a run fails against the pinned value,
// not only against a second run of the same code.
#pragma once

#include <cstdint>
#include <string_view>

namespace olden::test {

inline std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace olden::test
