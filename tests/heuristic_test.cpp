// The mechanism-selection heuristic, pinned to the paper's own examples:
//  * Figure 3 — iterative loop with induction variables s and t,
//    non-induction u;
//  * Figure 4 — TreeAdd: recursion combine 90/70 -> 97, migrate;
//  * Figure 5 — WalkAndTraverse (bottleneck -> cache) vs TraverseAndWalk
//    (no bottleneck -> migrate);
//  * §4 list example — blocked layout migrates, cyclic layout caches;
//  * §4.3 defaults — list traversals cache, tree traversals migrate, tree
//    searches cache.
#include <gtest/gtest.h>

#include "olden/compiler/analysis.hpp"

namespace olden::ir {
namespace {

FieldRef F(std::string s, std::string f) { return {std::move(s), std::move(f)}; }

// --- Figure 3: a simple loop with induction variables --------------------
//
//   while (s) { s = s->left; t = t->right->left; u = s->right; }
//   (affinity of left 90, right 70)

Program figure3() {
  Program p;
  p.structs = {{"tree", {{"left", 0.90}, {"right", 0.70}}}};
  Procedure loop;
  loop.name = "main";
  loop.params = {"s", "t", "u"};
  While w;
  w.loop_id = 0;
  w.body.push_back(
      assign("t", "t", {F("tree", "right"), F("tree", "left")}, SiteId{1}));
  w.body.push_back(assign("u", "s", {F("tree", "right")}, SiteId{2}));
  w.body.push_back(assign("s", "s", {F("tree", "left")}, SiteId{0}));
  loop.body.push_back(w);
  p.procs.push_back(std::move(loop));
  return p;
}

TEST(Heuristic, Figure3UpdateMatrix) {
  const Selection sel = analyze(figure3(), 3);
  const LoopDecision* l = sel.loop(0);
  ASSERT_NE(l, nullptr);
  // s updated by itself along left: (s,s) = 90.
  EXPECT_DOUBLE_EQ(l->matrix.get("s", "s").value(), 0.90);
  // t updated by itself along right.left: 0.70 * 0.90 = 63.
  EXPECT_NEAR(l->matrix.get("t", "t").value(), 0.63, 1e-12);
  // u updated by s along right: (u,s) = 70 — off-diagonal, not induction.
  EXPECT_DOUBLE_EQ(l->matrix.get("u", "s").value(), 0.70);
  EXPECT_FALSE(l->matrix.get("u", "u").has_value());
}

TEST(Heuristic, Figure3SelectsStrongestInduction) {
  const Selection sel = analyze(figure3(), 3);
  const LoopDecision* l = sel.loop(0);
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->selected, "s");  // 90 beats 63
  // 90 meets the 90% threshold: migrate s, cache everything else.
  EXPECT_EQ(l->selected_mech, Mechanism::kMigrate);
  EXPECT_EQ(sel.site(0), Mechanism::kMigrate);  // s->left deref
  EXPECT_EQ(sel.site(1), Mechanism::kCache);    // t->right->left deref
}

// Site 2 dereferences s, the selected variable, inside the same loop — the
// paper migrates all dereferences of the selected variable, so check that.
TEST(Heuristic, SelectedVariableDerefsAllMigrate) {
  const Selection sel = analyze(figure3(), 3);
  EXPECT_EQ(sel.site(2), Mechanism::kMigrate);
}

// --- Figure 4: TreeAdd -----------------------------------------------------

Program treeadd(std::optional<double> left_aff, std::optional<double> right_aff,
                bool parallel) {
  Program p;
  p.structs = {{"tree", {{"left", left_aff}, {"right", right_aff}}}};
  Procedure t;
  t.name = "TreeAdd";
  t.params = {"t"};
  t.rec_loop_id = 0;
  If branch;
  Call cl;
  cl.callee = "TreeAdd";
  cl.args = {{"t", {F("tree", "left")}}};
  cl.future = parallel;
  Call cr;
  cr.callee = "TreeAdd";
  cr.args = {{"t", {F("tree", "right")}}};
  branch.else_branch.push_back(cl);
  branch.else_branch.push_back(cr);
  branch.else_branch.push_back(deref("t", SiteId{0}));  // t->val
  t.body.push_back(branch);
  p.procs.push_back(std::move(t));
  return p;
}

TEST(Heuristic, Figure4RecursionCombine) {
  // Affinities 90/70: both remote with probability .1*.3 = 3%, so the
  // update affinity is 97% — the paper's exact number.
  const Selection sel = analyze(treeadd(0.90, 0.70, false), 1);
  const LoopDecision* l = sel.loop(0);
  ASSERT_NE(l, nullptr);
  EXPECT_TRUE(l->is_recursion);
  EXPECT_NEAR(l->matrix.get("t", "t").value(), 0.97, 1e-12);
  EXPECT_EQ(l->selected_mech, Mechanism::kMigrate);  // 97 >= 90
  EXPECT_EQ(sel.site(0), Mechanism::kMigrate);
}

TEST(Heuristic, DefaultAffinityTreeTraversalMigrates) {
  // Defaults (70/70): combine = 1 - .3*.3 = 91% >= 90 — by design, tree
  // traversals migrate with no hints at all (§4.3).
  const Selection sel = analyze(treeadd(std::nullopt, std::nullopt, false), 1);
  const LoopDecision* l = sel.loop(0);
  ASSERT_NE(l, nullptr);
  EXPECT_NEAR(l->matrix.get("t", "t").value(), 0.91, 1e-12);
  EXPECT_EQ(l->selected_mech, Mechanism::kMigrate);
}

// A tree *search* follows only one child per call: a single update at the
// default 70% stays below the threshold, so searches cache (§4.3).
TEST(Heuristic, TreeSearchCaches) {
  Program p;
  p.structs = {{"tree", {{"left", std::nullopt}, {"right", std::nullopt}}}};
  Procedure s;
  s.name = "Search";
  s.params = {"t"};
  s.rec_loop_id = 0;
  If branch;
  Call go_left;
  go_left.callee = "Search";
  go_left.args = {{"t", {F("tree", "left")}}};
  branch.then_branch.push_back(go_left);
  Call go_right;
  go_right.callee = "Search";
  go_right.args = {{"t", {F("tree", "right")}}};
  branch.else_branch.push_back(go_right);
  branch.else_branch.push_back(deref("t", SiteId{0}));
  s.body.push_back(branch);
  p.procs.push_back(std::move(s));

  const Selection sel = analyze(p, 1);
  const LoopDecision* l = sel.loop(0);
  ASSERT_NE(l, nullptr);
  // Each invocation takes exactly one of the two calls; the rec-binding
  // combine treats both as executed only when they are — here the combine
  // still merges both call sites, but a search annotated with the actual
  // branch structure... the paper's design point is the default: a 70%
  // single-path update caches. Both updates combine to 91 only when both
  // execute; a search's calls are in *different* branches, so at most one
  // executes. We model this by the affinity staying at the single-call
  // strength.
  EXPECT_LT(l->matrix.get("t", "t").value_or(0.0), 0.90);
  EXPECT_EQ(l->selected_mech, Mechanism::kCache);
  EXPECT_EQ(sel.site(0), Mechanism::kCache);
}

// List traversal at the default affinity: a single 70% update — cache.
TEST(Heuristic, ListTraversalCachesByDefault) {
  Program p;
  p.structs = {{"list", {{"next", std::nullopt}}}};
  Procedure w;
  w.name = "Walk";
  w.params = {"l"};
  While loop;
  loop.loop_id = 0;
  loop.body.push_back(deref("l", SiteId{0}));
  loop.body.push_back(assign("l", "l", {F("list", "next")}, SiteId{1}));
  w.body.push_back(loop);
  p.procs.push_back(std::move(w));

  const Selection sel = analyze(p, 2);
  EXPECT_EQ(sel.loop(0)->selected_mech, Mechanism::kCache);
  EXPECT_EQ(sel.site(0), Mechanism::kCache);
  EXPECT_EQ(sel.site(1), Mechanism::kCache);
}

// §4 / Figure 2: the same list code with layout-derived affinities. A
// blocked distribution of N items over P processors has next-affinity
// 1 - (P-1)/(N-1) ~ 1: migrate. A cyclic distribution has affinity 0: cache.
TEST(Heuristic, Figure2BlockedMigratesCyclicCaches) {
  auto walk_with_affinity = [](double aff) {
    Program p;
    p.structs = {{"list", {{"next", aff}}}};
    Procedure w;
    w.name = "Walk";
    w.params = {"l"};
    While loop;
    loop.loop_id = 0;
    loop.body.push_back(assign("l", "l", {F("list", "next")}, SiteId{0}));
    w.body.push_back(loop);
    p.procs.push_back(std::move(w));
    return analyze(p, 1);
  };
  const double blocked = 1.0 - 31.0 / 1023.0;  // P=32, N=1024
  EXPECT_EQ(walk_with_affinity(blocked).site(0), Mechanism::kMigrate);
  EXPECT_EQ(walk_with_affinity(0.0).site(0), Mechanism::kCache);
}

// A parallelizable loop below the threshold still migrates, because only
// migration lets the runtime generate new threads (§4.3).
TEST(Heuristic, ParallelizableLoopMigratesBelowThreshold) {
  const Selection sel = analyze(treeadd(0.5, 0.5, /*parallel=*/true), 1);
  const LoopDecision* l = sel.loop(0);
  ASSERT_NE(l, nullptr);
  EXPECT_LT(l->selected_affinity, 0.90);
  EXPECT_TRUE(l->parallelizable);
  EXPECT_EQ(l->selected_mech, Mechanism::kMigrate);
}

// --- Figure 5: bottleneck analysis -----------------------------------------

// WalkAndTraverse: for each body b in l, in parallel, Traverse(t) — every
// iteration passes the *same* tree root, so migrating the traversal would
// serialize all threads on the root's owner.
Program walk_and_traverse() {
  Program p;
  p.structs = {{"list", {{"next", std::nullopt}}},
               {"tree", {{"left", std::nullopt}, {"right", std::nullopt}}}};

  Procedure trav;
  trav.name = "Traverse";
  trav.params = {"t"};
  trav.rec_loop_id = 1;
  If br;
  Call cl;
  cl.callee = "Traverse";
  cl.args = {{"t", {F("tree", "left")}}};
  Call cr;
  cr.callee = "Traverse";
  cr.args = {{"t", {F("tree", "right")}}};
  br.else_branch.push_back(cl);
  br.else_branch.push_back(cr);
  br.else_branch.push_back(deref("t", SiteId{0}));
  trav.body.push_back(br);
  p.procs.push_back(std::move(trav));

  Procedure wat;
  wat.name = "WalkAndTraverse";
  wat.params = {"l", "t"};
  While loop;
  loop.loop_id = 0;
  Call visit;
  visit.callee = "Traverse";
  visit.args = {{"t", {}}};
  visit.future = true;  // do in parallel
  loop.body.push_back(visit);
  loop.body.push_back(assign("l", "l", {F("list", "next")}, SiteId{1}));
  wat.body.push_back(loop);
  p.procs.push_back(std::move(wat));
  return p;
}

TEST(Heuristic, Figure5WalkAndTraverseBottleneck) {
  const Selection sel = analyze(walk_and_traverse(), 2);
  const LoopDecision* rec = sel.loop(1);
  ASSERT_NE(rec, nullptr);
  // Pass 1 would migrate the tree traversal (91%), but t is not updated in
  // the parallel parent loop: bottleneck — force caching.
  EXPECT_TRUE(rec->bottleneck_forced);
  EXPECT_EQ(rec->selected_mech, Mechanism::kCache);
  EXPECT_EQ(sel.site(0), Mechanism::kCache);
}

// TraverseAndWalk: for each tree node, in parallel, walk the list stored
// at that node — t->list differs every iteration: no bottleneck.
Program traverse_and_walk() {
  Program p;
  p.structs = {{"tree",
                {{"left", std::nullopt},
                 {"right", std::nullopt},
                 {"list", 0.95}}},
               {"list", {{"next", 0.95}}}};

  Procedure walk;
  walk.name = "Walk";
  walk.params = {"l"};
  While loop;
  loop.loop_id = 2;
  loop.body.push_back(deref("l", SiteId{0}));
  loop.body.push_back(assign("l", "l", {F("list", "next")}, SiteId{1}));
  walk.body.push_back(loop);
  p.procs.push_back(std::move(walk));

  Procedure taw;
  taw.name = "TraverseAndWalk";
  taw.params = {"t"};
  taw.rec_loop_id = 3;
  If br;
  Call cl;
  cl.callee = "TraverseAndWalk";
  cl.args = {{"t", {F("tree", "left")}}};
  cl.future = true;
  Call cr;
  cr.callee = "TraverseAndWalk";
  cr.args = {{"t", {F("tree", "right")}}};
  cr.future = true;
  Call w;
  w.callee = "Walk";
  w.args = {{"t", {F("tree", "list")}}};
  br.else_branch.push_back(cl);
  br.else_branch.push_back(cr);
  br.else_branch.push_back(w);
  taw.body.push_back(br);
  p.procs.push_back(std::move(taw));
  return p;
}

TEST(Heuristic, Figure5TraverseAndWalkNoBottleneck) {
  const Selection sel = analyze(traverse_and_walk(), 2);
  const LoopDecision* rec = sel.loop(3);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->selected_mech, Mechanism::kMigrate);  // tree: 91 + parallel
  const LoopDecision* inner = sel.loop(2);
  ASSERT_NE(inner, nullptr);
  // The walk's induction variable originates from t, which *is* updated in
  // the parent (recursion) loop — no bottleneck, so pass 1's decision for
  // the 95%-affinity list stands: migrate.
  EXPECT_FALSE(inner->bottleneck_forced);
  EXPECT_EQ(inner->selected_mech, Mechanism::kMigrate);
}

// A loop with no induction variable inherits the parent's selection and
// migrates it (§4.3).
TEST(Heuristic, NoInductionVariableInheritsParent) {
  Program p;
  p.structs = {{"tree", {{"left", 0.95}, {"right", 0.95}}}};
  Procedure m;
  m.name = "main";
  m.params = {"t", "u"};
  While outer;
  outer.loop_id = 0;
  outer.body.push_back(assign("t", "t", {F("tree", "left")}, SiteId{0}));
  While inner;
  inner.loop_id = 1;
  // u jumps around unpredictably: assigned from a path off t each inner
  // iteration — (u,t) entries only, no diagonal.
  inner.body.push_back(assign("u", "t", {F("tree", "right")}, SiteId{1}));
  inner.body.push_back(deref("t", SiteId{2}));
  outer.body.push_back(inner);
  m.body.push_back(outer);
  p.procs.push_back(std::move(m));

  const Selection sel = analyze(p, 3);
  const LoopDecision* inner_d = sel.loop(1);
  ASSERT_NE(inner_d, nullptr);
  EXPECT_TRUE(inner_d->inherited);
  EXPECT_EQ(inner_d->selected, "t");
  EXPECT_EQ(inner_d->selected_mech, Mechanism::kMigrate);
  // Dereferences of t inside the inner loop follow the inherited choice —
  // including the one on the right-hand side of u's assignment.
  EXPECT_EQ(sel.site(2), Mechanism::kMigrate);
  EXPECT_EQ(sel.site(1), Mechanism::kMigrate);
}

// Join rule: update present in only one branch is omitted.
TEST(Heuristic, JoinOmitsOneSidedUpdates) {
  Program p;
  p.structs = {{"list", {{"next", 0.95}}}};
  Procedure m;
  m.name = "main";
  m.params = {"l"};
  While loop;
  loop.loop_id = 0;
  If br;
  br.then_branch.push_back(assign("l", "l", {F("list", "next")}, SiteId{0}));
  // else: l untouched
  loop.body.push_back(br);
  m.body.push_back(loop);
  p.procs.push_back(std::move(m));

  const Selection sel = analyze(p, 1);
  const LoopDecision* l = sel.loop(0);
  ASSERT_NE(l, nullptr);
  EXPECT_FALSE(l->matrix.get("l", "l").has_value());
  EXPECT_TRUE(l->selected.empty());
}

// Join rule: update present in both branches averages the affinities.
TEST(Heuristic, JoinAveragesTwoSidedUpdates) {
  Program p;
  p.structs = {{"tree", {{"left", 0.90}, {"right", 0.70}}}};
  Procedure m;
  m.name = "main";
  m.params = {"t"};
  While loop;
  loop.loop_id = 0;
  If br;
  br.then_branch.push_back(assign("t", "t", {F("tree", "left")}, SiteId{0}));
  br.else_branch.push_back(assign("t", "t", {F("tree", "right")}, SiteId{1}));
  loop.body.push_back(br);
  m.body.push_back(loop);
  p.procs.push_back(std::move(m));

  const Selection sel = analyze(p, 2);
  const LoopDecision* l = sel.loop(0);
  ASSERT_NE(l, nullptr);
  EXPECT_NEAR(l->matrix.get("t", "t").value(), 0.80, 1e-12);  // (90+70)/2
}

}  // namespace
}  // namespace olden::ir
