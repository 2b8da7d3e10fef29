//===- AnalysisCacheTest.cpp - Shared CFG analyses match fresh ones -------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
// The optimizer shares one DominatorTree and LoopInfo per function version
// (FunctionAnalyses): a pass that keeps the CFG hands its analyses to the
// next, and a pass that changes the CFG invalidates them. This test runs the
// paper pipeline over every Table-1 function one pass at a time and, after
// each pass, compares whatever the cache still holds with analyses built
// from scratch: RPO, immediate dominators, child and predecessor order, and
// every loop's header, blocks, latches, entering, exiting and exit blocks,
// preheader and nesting. A pass that changes the CFG without invalidating
// leaves a stale tree behind, and the comparison after it fails.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "ir/Cloning.h"
#include "ir/Context.h"
#include "ir/Module.h"
#include "opt/Pass.h"
#include "workload/Generator.h"
#include "workload/Profiles.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace llvmmd;

namespace {

std::vector<BasicBlock *> toVector(BlockRange R) {
  return std::vector<BasicBlock *>(R.begin(), R.end());
}

/// Compares \p Cached with a tree built now; \p Where names the function and
/// the pass just run.
void expectSameDomTree(const Function &F, const DominatorTree &Cached,
                       const std::string &Where) {
  DominatorTree Fresh(F);
  ASSERT_EQ(Cached.getRPO(), Fresh.getRPO()) << Where << ": RPO";
  for (const BasicBlock *BB : F.blocks()) {
    const std::string At = Where + " at " + BB->getName();
    ASSERT_EQ(Cached.isReachable(BB), Fresh.isReachable(BB)) << At;
    EXPECT_EQ(Cached.getRPOIndex(BB), Fresh.getRPOIndex(BB)) << At;
    EXPECT_EQ(Cached.getIDom(BB), Fresh.getIDom(BB)) << At << ": idom";
    EXPECT_EQ(toVector(Cached.getChildren(BB)),
              toVector(Fresh.getChildren(BB)))
        << At << ": children";
    EXPECT_EQ(toVector(Cached.predecessors(BB)),
              toVector(Fresh.predecessors(BB)))
        << At << ": predecessors";
  }
}

const BasicBlock *headerOf(const Loop *L) {
  return L ? L->getHeader() : nullptr;
}

std::vector<const BasicBlock *> headersOf(const std::vector<Loop *> &Loops) {
  std::vector<const BasicBlock *> Out;
  for (const Loop *L : Loops)
    Out.push_back(L->getHeader());
  return Out;
}

/// Compares \p Cached with a loop nest built now, loop by loop in the order
/// passes visit them (innermost first).
void expectSameLoopInfo(const Function &F, const LoopInfo &Cached,
                        const std::string &Where) {
  DominatorTree DT(F);
  LoopInfo Fresh(F, DT);
  ASSERT_EQ(Cached.isIrreducible(), Fresh.isIrreducible()) << Where;
  EXPECT_EQ(headersOf(Cached.getTopLevelLoops()),
            headersOf(Fresh.getTopLevelLoops()))
      << Where << ": top-level loops";
  std::vector<Loop *> A = Cached.getLoopsInnermostFirst();
  std::vector<Loop *> B = Fresh.getLoopsInnermostFirst();
  ASSERT_EQ(headersOf(A), headersOf(B)) << Where << ": loops";
  for (size_t I = 0; I < A.size(); ++I) {
    const std::string At = Where + " loop " + A[I]->getHeader()->getName();
    EXPECT_EQ(A[I]->getBlocks(), B[I]->getBlocks()) << At << ": blocks";
    EXPECT_EQ(A[I]->getLatches(), B[I]->getLatches()) << At << ": latches";
    EXPECT_EQ(A[I]->getEntering(), B[I]->getEntering()) << At;
    EXPECT_EQ(A[I]->getExitingBlocks(), B[I]->getExitingBlocks()) << At;
    EXPECT_EQ(A[I]->getExitBlocks(), B[I]->getExitBlocks()) << At;
    EXPECT_EQ(A[I]->getPreheader(), B[I]->getPreheader()) << At;
    EXPECT_EQ(headerOf(A[I]->getParent()), headerOf(B[I]->getParent()))
        << At << ": parent";
    EXPECT_EQ(headersOf(A[I]->getSubLoops()), headersOf(B[I]->getSubLoops()))
        << At << ": subloops";
    EXPECT_EQ(A[I]->getDepth(), B[I]->getDepth()) << At;
  }
  for (const BasicBlock *BB : F.blocks())
    EXPECT_EQ(headerOf(Cached.getLoopFor(BB)), headerOf(Fresh.getLoopFor(BB)))
        << Where << " at " << BB->getName() << ": innermost loop";
}

} // namespace

TEST(AnalysisCache, CachedAnalysesMatchFreshOnesAfterEveryPass) {
  Context Ctx;
  PassManager PM;
  ASSERT_TRUE(PM.parsePipeline(getPaperPipeline()));
  unsigned Functions = 0, DomChecks = 0, LoopChecks = 0;
  for (const BenchmarkProfile &P : getPaperSuite()) {
    std::unique_ptr<Module> M = generateBenchmark(Ctx, P);
    std::unique_ptr<Module> Opt = cloneModule(*M);
    for (Function *F : Opt->definedFunctions()) {
      ++Functions;
      FunctionAnalyses FA(*F);
      for (const auto &Pass : PM.passes()) {
        Pass->run(*F, FA);
        const std::string Where = F->getName() + " after " + Pass->getName();
        if (const DominatorTree *DT = FA.cachedDomTree()) {
          ++DomChecks;
          expectSameDomTree(*F, *DT, Where);
        }
        if (const LoopInfo *LI = FA.cachedLoopInfo()) {
          ++LoopChecks;
          expectSameLoopInfo(*F, *LI, Where);
        }
        if (HasFailure())
          return;
      }
    }
  }
  // Not vacuous: most functions hand a tree and a loop nest on to later
  // passes (measured: 2,519 and 1,860 checks over 468 functions).
  EXPECT_EQ(Functions, 468u);
  EXPECT_GT(DomChecks, 2 * Functions);
  EXPECT_GT(LoopChecks, 2 * Functions);
}

/// Small functions on which each CFG-changing pass of the pipeline (and
/// simplifycfg) does change the CFG: a loop without a preheader for licm, a
/// constant branch for sccp and simplifycfg, a dead loop for loop-deletion
/// and an invariant branch for loop-unswitch. The Table-1 suite alone never
/// makes licm create a preheader.
struct CFGCase {
  const char *Pass;
  const char *IR;
};

const CFGCase CFGCases[] = {
    {"licm", R"(
define i32 @f(i1 %c, i32 %n, i32 %a) {
entry:
  br i1 %c, label %h, label %other
other:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ 0, %other ], [ %i2, %h2 ]
  %s = phi i32 [ 1, %entry ], [ 2, %other ], [ %s2, %h2 ]
  %cc = icmp slt i32 %i, %n
  br i1 %cc, label %h2, label %x
h2:
  %inv = add i32 %a, 5
  %s2 = xor i32 %s, %inv
  %i2 = add i32 %i, 1
  br label %h
x:
  ret i32 %s
}
)"},
    {"sccp", R"(
define i32 @f(i32 %a) {
entry:
  %c = icmp slt i32 3, 5
  br i1 %c, label %t, label %e
t:
  br label %j
e:
  br label %j
j:
  %x = phi i32 [ 1, %t ], [ 2, %e ]
  ret i32 %x
}
)"},
    {"simplifycfg", R"(
define i32 @f(i32 %a) {
entry:
  br i1 true, label %t, label %e
t:
  br label %j
e:
  br label %j
j:
  %x = phi i32 [ 1, %t ], [ %a, %e ]
  ret i32 %x
}
)"},
    {"loop-deletion", R"(
define i32 @f(i32 %n, i32 %a) {
entry:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %i2, %b ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %b, label %x
b:
  %i2 = add i32 %i, 1
  br label %h
x:
  ret i32 %a
}
)"},
    {"loop-unswitch", R"(
define i32 @f(i32 %n, i1 %p) {
entry:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %i2, %l ]
  %s = phi i32 [ 0, %entry ], [ %s2, %l ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %b, label %x
b:
  br i1 %p, label %bt, label %be
bt:
  %vt = add i32 %s, %i
  br label %j
be:
  %ve = sub i32 %s, %i
  br label %j
j:
  %s2 = phi i32 [ %vt, %bt ], [ %ve, %be ]
  br label %l
l:
  %i2 = add i32 %i, 1
  br label %h
x:
  ret i32 %s
}
)"},
};

TEST(AnalysisCache, PassesThatChangeTheCFGLeaveNoStaleAnalyses) {
  for (const CFGCase &C : CFGCases) {
    Context Ctx;
    std::unique_ptr<Module> M = testutil::parseOrDie(Ctx, C.IR);
    ASSERT_TRUE(M);
    Function *F = M->getFunction("f");
    FunctionAnalyses FA(*F);
    const std::vector<BasicBlock *> RPOBefore = FA.getDomTree().getRPO();
    FA.getLoopInfo();
    std::unique_ptr<FunctionPass> P = createPass(C.Pass);
    ASSERT_TRUE(P->run(*F, FA)) << C.Pass;
    EXPECT_NE(DominatorTree(*F).getRPO(), RPOBefore)
        << C.Pass << " left the CFG as it was";
    const std::string Where = std::string("f after ") + C.Pass;
    if (const DominatorTree *DT = FA.cachedDomTree())
      expectSameDomTree(*F, *DT, Where);
    if (const LoopInfo *LI = FA.cachedLoopInfo())
      expectSameLoopInfo(*F, *LI, Where);
  }
}

TEST(AnalysisCache, BuildsOnceAndDropsOnInvalidate) {
  Context Ctx;
  BenchmarkProfile P = getProfile("sjeng");
  P.FunctionCount = 1;
  std::unique_ptr<Module> M = generateBenchmark(Ctx, P);
  Function *F = M->definedFunctions().front();
  FunctionAnalyses FA(*F);
  EXPECT_EQ(FA.cachedDomTree(), nullptr);
  LoopInfo &LI = FA.getLoopInfo(); // builds the tree too
  DominatorTree &DT = FA.getDomTree();
  EXPECT_EQ(FA.cachedDomTree(), &DT);
  EXPECT_EQ(FA.cachedLoopInfo(), &LI);
  EXPECT_EQ(&FA.getLoopInfo(), &LI);
  FA.invalidateCFG();
  EXPECT_EQ(FA.cachedDomTree(), nullptr);
  EXPECT_EQ(FA.cachedLoopInfo(), nullptr);
}
