//===- AnalysisTest.cpp - CFG/dominator/loop/alias analysis tests -------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/AliasAnalysis.h"
#include "analysis/CFG.h"
#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"

#include <gtest/gtest.h>

using namespace llvmmd;
using namespace llvmmd::testutil;

namespace {

BasicBlock *blockNamed(Function *F, const std::string &Name) {
  for (const auto &BB : F->blocks())
    if (BB->getName() == Name)
      return BB;
  return nullptr;
}

const char *DiamondSrc = R"(
define i32 @f(i1 %c) {
entry:
  br i1 %c, label %t, label %e
t:
  br label %j
e:
  br label %j
j:
  ret i32 0
}
)";

const char *LoopSrc = R"(
define i32 @f(i32 %n) {
entry:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %i2, %latch ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %x
body:
  br label %latch
latch:
  %i2 = add i32 %i, 1
  br label %h
x:
  ret i32 %i
}
)";

const char *NestedLoopSrc = R"(
define void @f(i32 %n) {
entry:
  br label %oh
oh:
  %i = phi i32 [ 0, %entry ], [ %i2, %ol ]
  %oc = icmp slt i32 %i, %n
  br i1 %oc, label %ih, label %done
ih:
  %j = phi i32 [ 0, %oh ], [ %j2, %ib ]
  %ic = icmp slt i32 %j, 4
  br i1 %ic, label %ib, label %ol
ib:
  %j2 = add i32 %j, 1
  br label %ih
ol:
  %i2 = add i32 %i, 1
  br label %oh
done:
  ret void
}
)";

} // namespace

TEST(CFG, RPOOrder) {
  Context Ctx;
  auto M = parseOrDie(Ctx, DiamondSrc);
  Function *F = M->getFunction("f");
  auto RPO = computeRPO(*F);
  ASSERT_EQ(RPO.size(), 4u);
  EXPECT_EQ(RPO.front()->getName(), "entry");
  EXPECT_EQ(RPO.back()->getName(), "j");
}

TEST(CFG, UnreachableBlocksExcluded) {
  Context Ctx;
  auto M = parseOrDie(Ctx, R"(
define void @f() {
entry:
  ret void
island:
  br label %island
}
)");
  EXPECT_EQ(computeRPO(*M->getFunction("f")).size(), 1u);
  EXPECT_EQ(reachableBlocks(*M->getFunction("f")).size(), 1u);
}

TEST(Dominators, Diamond) {
  Context Ctx;
  auto M = parseOrDie(Ctx, DiamondSrc);
  Function *F = M->getFunction("f");
  DominatorTree DT(*F);
  BasicBlock *Entry = blockNamed(F, "entry");
  BasicBlock *T = blockNamed(F, "t");
  BasicBlock *E = blockNamed(F, "e");
  BasicBlock *J = blockNamed(F, "j");
  EXPECT_EQ(DT.getIDom(Entry), nullptr);
  EXPECT_EQ(DT.getIDom(T), Entry);
  EXPECT_EQ(DT.getIDom(E), Entry);
  EXPECT_EQ(DT.getIDom(J), Entry);
  EXPECT_TRUE(DT.dominates(Entry, J));
  EXPECT_TRUE(DT.dominates(J, J));
  EXPECT_FALSE(DT.dominates(T, J));
  EXPECT_FALSE(DT.properlyDominates(J, J));
}

TEST(Dominators, LoopHeaderDominatesBody) {
  Context Ctx;
  auto M = parseOrDie(Ctx, LoopSrc);
  Function *F = M->getFunction("f");
  DominatorTree DT(*F);
  EXPECT_TRUE(DT.dominates(blockNamed(F, "h"), blockNamed(F, "latch")));
  EXPECT_TRUE(DT.dominates(blockNamed(F, "h"), blockNamed(F, "x")));
  EXPECT_FALSE(DT.dominates(blockNamed(F, "body"), blockNamed(F, "x")));
  // Preorder visits idoms before children.
  auto Pre = DT.preorder();
  EXPECT_EQ(Pre.front()->getName(), "entry");
}

TEST(LoopInfoTest, SimpleLoop) {
  Context Ctx;
  auto M = parseOrDie(Ctx, LoopSrc);
  Function *F = M->getFunction("f");
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  EXPECT_FALSE(LI.isIrreducible());
  ASSERT_EQ(LI.getTopLevelLoops().size(), 1u);
  Loop *L = LI.getTopLevelLoops().front();
  EXPECT_EQ(L->getHeader()->getName(), "h");
  EXPECT_TRUE(LI.isLoopHeader(blockNamed(F, "h")));
  EXPECT_TRUE(L->contains(blockNamed(F, "body")));
  EXPECT_TRUE(L->contains(blockNamed(F, "latch")));
  EXPECT_FALSE(L->contains(blockNamed(F, "x")));
  ASSERT_EQ(L->getLatches().size(), 1u);
  EXPECT_EQ(L->getLatches().front()->getName(), "latch");
  ASSERT_EQ(L->getExitBlocks().size(), 1u);
  EXPECT_EQ(L->getExitBlocks().front()->getName(), "x");
  // entry -> h is the only entering edge but entry has one successor, so
  // it qualifies as a preheader.
  EXPECT_EQ(L->getPreheader(), blockNamed(F, "entry"));
}

TEST(LoopInfoTest, NestedLoops) {
  Context Ctx;
  auto M = parseOrDie(Ctx, NestedLoopSrc);
  Function *F = M->getFunction("f");
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  ASSERT_EQ(LI.getTopLevelLoops().size(), 1u);
  Loop *Outer = LI.getTopLevelLoops().front();
  ASSERT_EQ(Outer->getSubLoops().size(), 1u);
  Loop *Inner = Outer->getSubLoops().front();
  EXPECT_EQ(Inner->getParent(), Outer);
  EXPECT_EQ(Inner->getDepth(), 2u);
  EXPECT_EQ(LI.getLoopFor(blockNamed(F, "ib")), Inner);
  EXPECT_EQ(LI.getLoopFor(blockNamed(F, "ol")), Outer);
  auto InnermostFirst = LI.getLoopsInnermostFirst();
  ASSERT_EQ(InnermostFirst.size(), 2u);
  EXPECT_EQ(InnermostFirst[0], Inner);
  EXPECT_EQ(InnermostFirst[1], Outer);
}

TEST(LoopInfoTest, IrreducibleDetected) {
  Context Ctx;
  auto M = parseOrDie(Ctx, R"(
define void @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %b
b:
  br i1 %c, label %a, label %x
x:
  ret void
}
)");
  Function *F = M->getFunction("f");
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  EXPECT_TRUE(LI.isIrreducible());
}

// Edge cases of the CFG queries: a conditional branch with both targets
// equal, a self-loop, and predecessors that are unreachable — one placed
// before the reachable blocks in function order, one after them.
const char *EdgeCaseCFGSrc = R"(
define i32 @f(i1 %c) {
entry:
  br i1 %c, label %x, label %x
u1:
  br label %y
x:
  br i1 %c, label %x, label %y
y:
  ret i32 0
u2:
  br i1 %c, label %y, label %y
}
)";

std::vector<std::string> names(const std::vector<BasicBlock *> &Blocks) {
  std::vector<std::string> Out;
  for (const BasicBlock *BB : Blocks)
    Out.push_back(BB->getName());
  return Out;
}

TEST(CFG, SuccessorsListEveryTerminatorTarget) {
  Context Ctx;
  auto M = parseOrDie(Ctx, EdgeCaseCFGSrc);
  Function *F = M->getFunction("f");
  BasicBlock *Entry = blockNamed(F, "entry");
  BasicBlock *X = blockNamed(F, "x");
  BasicBlock *Y = blockNamed(F, "y");
  EXPECT_TRUE(Y->successors().empty()); // ret: 0 successors
  ASSERT_EQ(blockNamed(F, "u1")->successors().size(), 1u);
  EXPECT_EQ(blockNamed(F, "u1")->successors().front(), Y);
  // Both targets of `br %c, %x, %x` are listed, as the terminator has them.
  SuccessorRange EntrySuccs = Entry->successors();
  ASSERT_EQ(EntrySuccs.size(), 2u);
  EXPECT_EQ(EntrySuccs[0], X);
  EXPECT_EQ(EntrySuccs[1], X);
  std::vector<BasicBlock *> XSuccs;
  for (BasicBlock *Succ : X->successors())
    XSuccs.push_back(Succ);
  EXPECT_EQ(names(XSuccs), (std::vector<std::string>{"x", "y"}));
}

TEST(CFG, PredecessorsInBlockOrderEachOnce) {
  Context Ctx;
  auto M = parseOrDie(Ctx, EdgeCaseCFGSrc);
  Function *F = M->getFunction("f");
  BasicBlock *Entry = blockNamed(F, "entry");
  BasicBlock *X = blockNamed(F, "x");
  BasicBlock *Y = blockNamed(F, "y");
  EXPECT_TRUE(Entry->predecessors().empty());
  // entry reaches x over two edges but is listed once; the self-loop lists
  // x itself.
  EXPECT_EQ(names(X->predecessors()),
            (std::vector<std::string>{"entry", "x"}));
  // Unreachable predecessors are listed too, in function block order; u2's
  // two edges count once.
  EXPECT_EQ(names(Y->predecessors()),
            (std::vector<std::string>{"u1", "x", "u2"}));

  // The dominator tree's index answers exactly the same for every
  // reachable block, and nothing for an unreachable one.
  DominatorTree DT(*F);
  for (BasicBlock *BB : F->blocks()) {
    SCOPED_TRACE(BB->getName());
    BlockRange Indexed = DT.predecessors(BB);
    std::vector<BasicBlock *> FromIndex(Indexed.begin(), Indexed.end());
    if (DT.isReachable(BB))
      EXPECT_EQ(FromIndex, BB->predecessors());
    else
      EXPECT_TRUE(FromIndex.empty());
  }
}

TEST(CFG, DominatorsAndLoopsOnEdgeCaseCFG) {
  Context Ctx;
  auto M = parseOrDie(Ctx, EdgeCaseCFGSrc);
  Function *F = M->getFunction("f");
  BasicBlock *Entry = blockNamed(F, "entry");
  BasicBlock *X = blockNamed(F, "x");
  BasicBlock *Y = blockNamed(F, "y");
  DominatorTree DT(*F);
  EXPECT_EQ(names(DT.getRPO()), (std::vector<std::string>{"entry", "x", "y"}));
  EXPECT_FALSE(DT.isReachable(blockNamed(F, "u1")));
  EXPECT_FALSE(DT.isReachable(blockNamed(F, "u2")));
  EXPECT_EQ(DT.getIDom(Entry), nullptr);
  EXPECT_EQ(DT.getIDom(X), Entry);
  // Unreachable predecessors do not weaken dominance.
  EXPECT_EQ(DT.getIDom(Y), X);
  EXPECT_TRUE(DT.dominates(X, Y));
  EXPECT_FALSE(DT.dominates(Y, X));
  EXPECT_EQ(DT.getIDom(blockNamed(F, "u1")), nullptr);

  // The self-loop is a one-block loop; entry enters it over two edges, so
  // it is the loop's only entering block but not a preheader.
  LoopInfo LI(*F, DT);
  EXPECT_FALSE(LI.isIrreducible());
  ASSERT_EQ(LI.getTopLevelLoops().size(), 1u);
  Loop *L = LI.getTopLevelLoops().front();
  EXPECT_EQ(L->getHeader(), X);
  EXPECT_EQ(names(L->getBlocks()), (std::vector<std::string>{"x"}));
  EXPECT_EQ(names(L->getLatches()), (std::vector<std::string>{"x"}));
  EXPECT_EQ(names(L->getEntering()), (std::vector<std::string>{"entry"}));
  EXPECT_EQ(L->getPreheader(), nullptr);
  EXPECT_EQ(names(L->getExitingBlocks()), (std::vector<std::string>{"x"}));
  EXPECT_EQ(names(L->getExitBlocks()), (std::vector<std::string>{"y"}));
  EXPECT_EQ(LI.getLoopFor(Y), nullptr);
}

TEST(Alias, DistinctAllocasNoAlias) {
  Context Ctx;
  auto M = parseOrDie(Ctx, R"(
define i32 @f() {
entry:
  %p = alloca i32
  %q = alloca i32
  store i32 1, ptr %p
  store i32 2, ptr %q
  %v = load i32, ptr %p
  ret i32 %v
}
)");
  Function *F = M->getFunction("f");
  AliasAnalysis AA(*F);
  std::vector<Value *> Allocas;
  for (Instruction *I : *F->getEntryBlock())
    if (isa<AllocaInst>(I))
      Allocas.push_back(I);
  ASSERT_EQ(Allocas.size(), 2u);
  EXPECT_EQ(AA.alias(Allocas[0], 4, Allocas[1], 4), AliasResult::NoAlias);
  EXPECT_EQ(AA.alias(Allocas[0], 4, Allocas[0], 4), AliasResult::MustAlias);
  EXPECT_TRUE(AA.isNonEscapingAlloca(Allocas[0]));
}

TEST(Alias, GEPConstantOffsets) {
  Context Ctx;
  auto M = parseOrDie(Ctx, R"(
define i32 @f(i64 %i) {
entry:
  %p = alloca i32, i64 8
  %a = getelementptr i32, ptr %p, i64 1
  %b = getelementptr i32, ptr %p, i64 2
  %c = getelementptr i32, ptr %p, i64 %i
  store i32 1, ptr %a
  store i32 2, ptr %b
  store i32 3, ptr %c
  %v = load i32, ptr %a
  ret i32 %v
}
)");
  Function *F = M->getFunction("f");
  AliasAnalysis AA(*F);
  std::map<std::string, Value *> ByName;
  for (Instruction *I : *F->getEntryBlock())
    if (I->hasName())
      ByName[I->getName()] = I;
  EXPECT_EQ(AA.alias(ByName["a"], 4, ByName["b"], 4), AliasResult::NoAlias);
  EXPECT_EQ(AA.alias(ByName["a"], 4, ByName["a"], 4), AliasResult::MustAlias);
  // Variable index: may alias.
  EXPECT_EQ(AA.alias(ByName["a"], 4, ByName["c"], 4), AliasResult::MayAlias);
  // Overlapping ranges (byte offset 4..8 vs 8..12 disjoint; 4-wide at 4 vs
  // 8-wide at 0 overlaps).
  EXPECT_EQ(AA.alias(ByName["a"], 8, ByName["b"], 4), AliasResult::MayAlias);
}

TEST(Alias, EscapedAllocaIsConservative) {
  Context Ctx;
  auto M = parseOrDie(Ctx, R"(
declare void @sink(ptr)
define i32 @f(ptr %unknown) {
entry:
  %p = alloca i32
  call void @sink(ptr %p)
  %v = load i32, ptr %p
  ret i32 %v
}
)");
  Function *F = M->getFunction("f");
  AliasAnalysis AA(*F);
  Value *P = nullptr;
  for (Instruction *I : *F->getEntryBlock())
    if (isa<AllocaInst>(I))
      P = I;
  EXPECT_FALSE(AA.isNonEscapingAlloca(P));
  // Escaped alloca vs unknown pointer: still distinct identified object vs
  // argument decomposition gives MayAlias.
  EXPECT_EQ(AA.alias(P, 4, F->getArg(0), 4), AliasResult::MayAlias);
}

TEST(Alias, GlobalsAndAllocas) {
  Context Ctx;
  auto M = parseOrDie(Ctx, R"(
@g = global i32 0
@h = global i32 0
define i32 @f() {
entry:
  %p = alloca i32
  store i32 1, ptr @g
  %v = load i32, ptr %p
  ret i32 %v
}
)");
  Function *F = M->getFunction("f");
  AliasAnalysis AA(*F);
  Value *P = nullptr;
  for (Instruction *I : *F->getEntryBlock())
    if (isa<AllocaInst>(I))
      P = I;
  EXPECT_EQ(AA.alias(M->getGlobal("g"), 4, M->getGlobal("h"), 4),
            AliasResult::NoAlias);
  EXPECT_EQ(AA.alias(M->getGlobal("g"), 4, P, 4), AliasResult::NoAlias);
}
