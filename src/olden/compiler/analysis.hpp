// Update matrices and the two-pass mechanism-selection heuristic (§4.2-4.3).
//
// Step 1 (dataflow): for every control loop — iterative While or recursive
// procedure — compute its update matrix. Entry (s, t) holds the
// path-affinity of the update if `s` at the end of an iteration equals `t`
// from the beginning of the iteration dereferenced through some field path.
// Merge rules, exactly as in the paper:
//   * straight-line composition multiplies affinities along the path;
//   * an if-then-else join averages the two branches' updates, and omits
//     the update entirely if it does not appear in both branches;
//   * multiple recursive call sites combine as 1 - prod(1 - a_i) ("the
//     probability that at least one will be local"), and are not subject
//     to the join rule because the calls occur before the branch ends;
//   * variables assigned inside a nested loop have no expressible update
//     in the enclosing loop (bottom).
//
// Step 2 (pass 1): per loop, select the induction variable (diagonal
// entry) with the strongest update affinity. Migrate it if the affinity
// reaches the threshold or the loop is parallelizable; otherwise cache it.
// Every other variable's dereferences are cached. A loop with no induction
// variable inherits its parent's selection.
//
// Step 3 (pass 2): bottleneck analysis. Inside a parallel loop, if an
// inner loop's induction variable is not updated by the parent loop, its
// initial value repeats across parent iterations and migration would
// serialize every thread on one processor — force caching for it.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "olden/compiler/ir.hpp"
#include "olden/support/types.hpp"

namespace olden::ir {

/// One control loop's update matrix: (target, source) -> affinity.
class UpdateMatrix {
 public:
  void set(const std::string& target, const std::string& source, Affinity a) {
    entries_[{target, source}] = a;
  }
  [[nodiscard]] std::optional<Affinity> get(const std::string& target,
                                            const std::string& source) const {
    auto it = entries_.find({target, source});
    if (it == entries_.end()) return std::nullopt;
    return it->second;
  }
  [[nodiscard]] std::optional<Affinity> diagonal(const std::string& v) const {
    return get(v, v);
  }
  /// True if `v` is the target of any update in this loop.
  [[nodiscard]] bool updates_target(const std::string& v) const {
    for (const auto& [key, a] : entries_) {
      (void)a;
      if (key.first == v) return true;
    }
    return false;
  }
  [[nodiscard]] const auto& entries() const { return entries_; }

 private:
  std::map<std::pair<std::string, std::string>, Affinity> entries_;
};

/// Result of analyzing one control loop.
struct LoopDecision {
  int loop_id = -1;
  int parent_id = -1;  ///< smallest enclosing control loop, or -1
  std::string proc;    ///< owning procedure
  bool is_recursion = false;
  bool parallelizable = false;  ///< contains futurecalls (§4.3)
  UpdateMatrix matrix;

  std::string selected;  ///< induction variable chosen (may be empty)
  Affinity selected_affinity = 0.0;
  Mechanism selected_mech = Mechanism::kCache;
  bool inherited = false;         ///< took the parent's selection
  bool bottleneck_forced = false; ///< pass 2 demoted migration to caching
};

struct Selection {
  /// Program::name, carried through so report() and consumers can print
  /// stable "<program>#<site>" uids.
  std::string program_name;
  std::vector<LoopDecision> loops;
  /// Mechanism per dereference site, ready for
  /// Machine::set_site_mechanisms. Sites the program never mentions
  /// default to caching.
  std::vector<Mechanism> site_table;

  [[nodiscard]] const LoopDecision* loop(int id) const {
    for (const auto& l : loops) {
      if (l.loop_id == id) return &l;
    }
    return nullptr;
  }
  [[nodiscard]] Mechanism site(SiteId s) const {
    return s < site_table.size() ? site_table[s] : Mechanism::kCache;
  }

  /// Human-readable dump (used by bench/fig34_heuristic and debugging).
  [[nodiscard]] std::string report() const;
};

/// Run the full analysis. `num_sites` sizes the site table.
Selection analyze(const Program& program, std::size_t num_sites);

}  // namespace olden::ir
