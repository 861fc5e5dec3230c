// Regenerates Figures 3 and 4: the update matrices and heuristic
// selections for the paper's two worked examples.
//
//  Figure 3: while (s) { t = t->right->left; u = s->right; s = s->left; }
//            with affinity(left)=90, affinity(right)=70.
//  Figure 4: TreeAdd — two recursive calls combine 90/70 -> 97.
#include <cstdio>

#include "olden/compiler/analysis.hpp"

using namespace olden;
using namespace olden::ir;

namespace {

FieldRef F(const char* s, const char* f) { return {s, f}; }

void dump(const char* title, const Program& p, std::size_t sites) {
  const Selection sel = analyze(p, sites);
  std::printf("=== %s ===\n%s\n", title, sel.report().c_str());
}

}  // namespace

int main(int argc, char**) {
  // Pure compiler analysis: no Machine runs, so there is nothing to
  // observe and no flag to take.
  if (argc > 1) {
    std::fprintf(stderr, "usage: fig34_heuristic (takes no arguments)\n");
    return 2;
  }
  {
    Program p;
    p.name = "Figure3";
    p.structs = {{"tree", {{"left", 0.90}, {"right", 0.70}}}};
    Procedure loop;
    loop.name = "main";
    loop.params = {"s", "t", "u"};
    While w;
    w.loop_id = 0;
    w.body.push_back(assign("t", "t", {F("tree", "right"), F("tree", "left")},
                            SiteId{1}));
    w.body.push_back(assign("u", "s", {F("tree", "right")}, SiteId{2}));
    w.body.push_back(assign("s", "s", {F("tree", "left")}, SiteId{0}));
    loop.body.push_back(std::move(w));
    p.procs.push_back(std::move(loop));
    dump("Figure 3: induction variables s (90) and t (63); u updated by s",
         p, 3);
  }
  {
    Program p;
    p.name = "TreeAdd";
    p.structs = {{"tree", {{"left", 0.90}, {"right", 0.70}}}};
    Procedure ta;
    ta.name = "TreeAdd";
    ta.params = {"t"};
    ta.rec_loop_id = 0;
    If br;
    Call cl;
    cl.callee = "TreeAdd";
    cl.args = {{"t", {F("tree", "left")}}};
    Call cr;
    cr.callee = "TreeAdd";
    cr.args = {{"t", {F("tree", "right")}}};
    br.else_branch.push_back(cl);
    br.else_branch.push_back(cr);
    br.else_branch.push_back(deref("t", SiteId{0}));
    ta.body.push_back(std::move(br));
    p.procs.push_back(std::move(ta));
    dump("Figure 4: TreeAdd recursion, 1-(1-.9)(1-.7) = 97% -> migrate", p, 1);
  }
  {
    // The same TreeAdd with no hints: defaults (70/70) combine to 91%,
    // still above the 90% threshold — tree traversals migrate by default
    // (the design point of §4.3).
    Program p;
    p.name = "TreeAdd";
    p.structs = {{"tree", {{"left", std::nullopt}, {"right", std::nullopt}}}};
    Procedure ta;
    ta.name = "TreeAdd";
    ta.params = {"t"};
    ta.rec_loop_id = 0;
    If br;
    Call cl;
    cl.callee = "TreeAdd";
    cl.args = {{"t", {F("tree", "left")}}};
    Call cr;
    cr.callee = "TreeAdd";
    cr.args = {{"t", {F("tree", "right")}}};
    br.else_branch.push_back(cl);
    br.else_branch.push_back(cr);
    br.else_branch.push_back(deref("t", SiteId{0}));
    ta.body.push_back(std::move(br));
    p.procs.push_back(std::move(ta));
    dump("Defaults: TreeAdd with no hints, 1-(.3)^2 = 91% -> migrate", p, 1);
  }
  return 0;
}
