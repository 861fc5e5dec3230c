// Fundamental scalar types shared by every Olden module.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>

namespace olden {

/// Identifier of a (virtual) processor. Olden encodes the processor name in
/// the top bits of a global heap address, so the machine size is bounded.
using ProcId = std::uint32_t;

/// Virtual time, in processor cycles (the CM-5 nodes ran at 33 MHz).
using Cycles = std::uint64_t;

/// Identifier of a pointer-dereference site in the (mini-)compiled program.
/// The mechanism-selection heuristic assigns each site either computation
/// migration or software caching; the runtime consults the decision table
/// at every access through that site.
using SiteId = std::uint32_t;

/// Identifier of an Olden thread (for statistics and debugging).
using ThreadId = std::uint64_t;

/// Upper bound on machine size. 64 lets us keep processor sets in a single
/// word, which is how the runtime tracks "processors written since the last
/// migration" for the return-stub invalidation optimization.
inline constexpr ProcId kMaxProcs = 64;

/// CM-5 node clock rate; converts virtual cycles to reported seconds.
inline constexpr double kClockHz = 33.0e6;

/// The remote-access mechanism chosen for a dereference site (§3): either
/// migrate the computation to the data, or cache the data at the
/// computation. The compile-time heuristic of §4 makes this choice.
enum class Mechanism : std::uint8_t {
  kMigrate,
  kCache,
};

[[nodiscard]] constexpr const char* to_string(Mechanism m) {
  return m == Mechanism::kMigrate ? "migrate" : "cache";
}

/// The one site-grading rule: the mechanism a site's observed access mix
/// argues for, holding it to the paper's bars (§4) in exact integers. Of
/// `total` accesses, `local` needed no mechanism; of `reads` remote cached
/// reads, `hits` hit. A migrate site that moves the thread on more than
/// 10% of its accesses (local < 90%) is bouncing, and caching the data
/// would be cheaper. A cache site flips only on positive evidence: the
/// same low affinity AND a hit rate below 50% (write-only traffic carries
/// no reuse signal and never flips it). A `--profile` run grades every
/// site with this, and its recommendations are what the feedback document
/// it writes (--heuristic=profile:FILE) applies.
[[nodiscard]] constexpr Mechanism graded_mechanism(Mechanism chosen,
                                                   std::uint64_t total,
                                                   std::uint64_t local,
                                                   std::uint64_t reads,
                                                   std::uint64_t hits) {
  const bool low_affinity = local * 10 < total * 9;
  if (chosen == Mechanism::kMigrate) {
    return low_affinity ? Mechanism::kCache : Mechanism::kMigrate;
  }
  return low_affinity && reads > 0 && hits * 2 < reads ? Mechanism::kMigrate
                                                        : Mechanism::kCache;
}

/// A set of processors, one bit per ProcId.
class ProcSet {
 public:
  constexpr ProcSet() = default;

  // Shifting by >= 64 is undefined behavior, so p must be a real ProcId;
  // Machine's constructor guarantees nprocs <= kMaxProcs up front.
  constexpr void add(ProcId p) {
    assert(p < kMaxProcs);
    bits_ |= (std::uint64_t{1} << p);
  }
  constexpr void remove(ProcId p) {
    assert(p < kMaxProcs);
    bits_ &= ~(std::uint64_t{1} << p);
  }
  [[nodiscard]] constexpr bool contains(ProcId p) const {
    assert(p < kMaxProcs);
    return (bits_ >> p) & 1U;
  }
  constexpr void clear() { bits_ = 0; }
  [[nodiscard]] constexpr bool empty() const { return bits_ == 0; }
  [[nodiscard]] constexpr std::uint64_t raw() const { return bits_; }
  [[nodiscard]] int count() const { return std::popcount(bits_); }

  /// Calls fn(ProcId) for every member.
  template <class Fn>
  void for_each(Fn&& fn) const {
    std::uint64_t b = bits_;
    while (b != 0) {
      const int p = std::countr_zero(b);
      fn(static_cast<ProcId>(p));
      b &= b - 1;
    }
  }

 private:
  std::uint64_t bits_ = 0;
};

inline double cycles_to_seconds(Cycles c) {
  return static_cast<double>(c) / kClockHz;
}

}  // namespace olden
