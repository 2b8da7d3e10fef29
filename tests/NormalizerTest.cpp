//===- NormalizerTest.cpp - Rewrite rule unit tests -----------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
// Each test builds a small graph, normalizes it under a controlled rule
// mask, and checks the root's final shape — one test per paper rule.
//
//===----------------------------------------------------------------------===//

#include "normalize/Normalizer.h"

#include "ir/Cloning.h"
#include "ir/Context.h"
#include "ir/Module.h"
#include "opt/Pass.h"
#include "vg/GraphBuilder.h"
#include "workload/Generator.h"
#include "workload/Profiles.h"

#include <gtest/gtest.h>

using namespace llvmmd;

namespace {

struct NormFixture : ::testing::Test {
  Context Ctx;
  ValueGraph G;
  Type *I32 = Ctx.getInt32Ty();
  Type *I1 = Ctx.getInt1Ty();

  NodeId normalize(NodeId Root, unsigned Mask) {
    RuleConfig C;
    C.Mask = Mask;
    normalizeGraph(G, {Root}, C);
    return G.find(Root);
  }

  NodeId constant(int64_t V) { return G.getConstInt(I32, V); }
  NodeId boolConst(bool B) { return G.getConstBool(I1, B); }

  void expectConst(NodeId N, int64_t V) {
    const Node &Nd = G.node(N);
    ASSERT_EQ(Nd.Kind, NodeKind::ConstInt);
    EXPECT_EQ(Nd.IntVal, V);
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Boolean rules (1)-(4)
//===----------------------------------------------------------------------===//

TEST_F(NormFixture, Rule1_EqSelf) {
  NodeId A = G.getParam(0, I32);
  NodeId Cmp = G.getOp(Opcode::ICmp, I1, {A, A},
                       static_cast<uint8_t>(ICmpPred::EQ));
  EXPECT_EQ(normalize(Cmp, RS_Boolean), boolConst(true));
}

TEST_F(NormFixture, Rule2_NeSelf) {
  NodeId A = G.getParam(0, I32);
  NodeId Cmp = G.getOp(Opcode::ICmp, I1, {A, A},
                       static_cast<uint8_t>(ICmpPred::NE));
  EXPECT_EQ(normalize(Cmp, RS_Boolean), boolConst(false));
}

TEST_F(NormFixture, Rules34_CompareWithBoolConstant) {
  NodeId C = G.getParam(0, I1);
  NodeId EqTrue = G.getOp(Opcode::ICmp, I1, {C, boolConst(true)},
                          static_cast<uint8_t>(ICmpPred::EQ));
  EXPECT_EQ(normalize(EqTrue, RS_Boolean), G.find(C));
  NodeId NeFalse = G.getOp(Opcode::ICmp, I1, {C, boolConst(false)},
                           static_cast<uint8_t>(ICmpPred::NE));
  EXPECT_EQ(normalize(NeFalse, RS_Boolean), G.find(C));
}

TEST_F(NormFixture, BooleanAlgebra) {
  NodeId C = G.getParam(0, I1);
  EXPECT_EQ(normalize(G.getOp(Opcode::And, I1, {C, boolConst(true)}),
                      RS_Boolean),
            G.find(C));
  EXPECT_EQ(normalize(G.getOp(Opcode::And, I1, {C, boolConst(false)}),
                      RS_Boolean),
            boolConst(false));
  EXPECT_EQ(normalize(G.getOp(Opcode::Or, I1, {C, boolConst(true)}),
                      RS_Boolean),
            boolConst(true));
  NodeId NotC = G.getOp(Opcode::Xor, I1, {C, boolConst(true)});
  NodeId NotNotC = G.getOp(Opcode::Xor, I1, {NotC, boolConst(true)});
  EXPECT_EQ(normalize(NotNotC, RS_Boolean), G.find(C));
}

//===----------------------------------------------------------------------===//
// Gamma rules (5)-(6)
//===----------------------------------------------------------------------===//

TEST_F(NormFixture, Rule5_TrueBranchWins) {
  NodeId V1 = constant(10), V2 = constant(20);
  NodeId Gamma = G.getGamma(I32, {{boolConst(true), V1},
                                  {boolConst(false), V2}});
  EXPECT_EQ(normalize(Gamma, RS_PhiSimplify), V1);
}

TEST_F(NormFixture, Rule6_AllBranchesAgree) {
  NodeId C = G.getParam(0, I1);
  NodeId NotC = G.getOp(Opcode::Xor, I1, {C, boolConst(true)});
  NodeId V = constant(7);
  NodeId Gamma = G.getGamma(I32, {{C, V}, {NotC, V}});
  EXPECT_EQ(normalize(Gamma, RS_PhiSimplify), V);
}

TEST_F(NormFixture, Rule6_SingleBranch) {
  NodeId C = G.getParam(0, I1);
  NodeId V = G.getParam(1, I32);
  NodeId Gamma = G.getGamma(I32, {{C, V}});
  EXPECT_EQ(normalize(Gamma, RS_PhiSimplify), G.find(V));
}

TEST_F(NormFixture, GammaDropsFalseBranches) {
  NodeId C = G.getParam(0, I1);
  NodeId V1 = G.getParam(1, I32), V2 = G.getParam(2, I32);
  NodeId Gamma =
      G.getGamma(I32, {{C, V1}, {boolConst(false), V2}});
  // Dropping the dead branch leaves a single-branch γ, which collapses.
  EXPECT_EQ(normalize(Gamma, RS_PhiSimplify), G.find(V1));
}

TEST_F(NormFixture, PaperSection4Example) {
  // x → φ(φ(c,1,2) == φ(c,1,2), φ(c,1,1), 0) ↓ 1 using rules (1),(5),(6).
  NodeId C = G.getParam(0, I1);
  NodeId NotC = G.getOp(Opcode::Xor, I1, {C, boolConst(true)});
  NodeId AB = G.getGamma(I32, {{C, constant(1)}, {NotC, constant(2)}});
  NodeId Cond = G.getOp(Opcode::ICmp, I1, {AB, AB},
                        static_cast<uint8_t>(ICmpPred::EQ));
  NodeId D = G.getGamma(I32, {{C, constant(1)}, {NotC, constant(1)}});
  NodeId NotCond = G.getOp(Opcode::Xor, I1, {Cond, boolConst(true)});
  NodeId X = G.getGamma(I32, {{Cond, D}, {NotCond, constant(0)}});
  NodeId Result = normalize(X, RS_Boolean | RS_PhiSimplify);
  expectConst(Result, 1);
}

//===----------------------------------------------------------------------===//
// Eta/Mu rules (7)-(9)
//===----------------------------------------------------------------------===//

TEST_F(NormFixture, Rule7_LoopNeverExecutes) {
  NodeId Init = G.getParam(0, I32);
  NodeId Mu = G.makeMu(I32);
  G.setMuOperands(Mu, Init, G.getOp(Opcode::Add, I32, {Mu, constant(1)}));
  NodeId Eta = G.getEta(I32, boolConst(false), Mu);
  EXPECT_EQ(normalize(Eta, RS_EtaMu), G.find(Init));
}

TEST_F(NormFixture, Rule7_FirstIterationGuardFolds) {
  // η over a loop `for (i=0; i<0; ...)`: the guard contains the μ, and is
  // false with the μ at its initial value.
  NodeId Zero = constant(0);
  NodeId Mu = G.makeMu(I32);
  G.setMuOperands(Mu, Zero, G.getOp(Opcode::Add, I32, {Mu, constant(1)}));
  NodeId Guard = G.getOp(Opcode::ICmp, I1, {Mu, Zero},
                         static_cast<uint8_t>(ICmpPred::SLT));
  NodeId Eta = G.getEta(I32, Guard, Mu);
  EXPECT_EQ(normalize(Eta, RS_EtaMu), Zero);
}

TEST_F(NormFixture, Rule8_ConstantMu) {
  // The paper's LICM example: η(c, μ(a+3, a+3)) ↓ a+3.
  NodeId A = G.getParam(0, I32);
  NodeId Inv = G.getOp(Opcode::Add, I32, {A, constant(3)});
  NodeId Mu = G.makeMu(I32);
  G.setMuOperands(Mu, Inv, Inv);
  NodeId Eta = G.getEta(I32, G.getParam(1, I1), Mu);
  EXPECT_EQ(normalize(Eta, RS_EtaMu), G.find(Inv));
}

TEST_F(NormFixture, Rule9_SelfReferentialMu) {
  NodeId X = G.getParam(0, I32);
  NodeId Mu = G.makeMu(I32);
  G.setMuOperands(Mu, X, Mu);
  NodeId Eta = G.getEta(I32, G.getParam(1, I1), Mu);
  EXPECT_EQ(normalize(Eta, RS_EtaMu), G.find(X));
}

TEST_F(NormFixture, Rule9_Generalized_SelfBehindInnerEta) {
  // μ whose next is η(c, μ): an inner loop that never modified the value.
  NodeId X = G.getParam(0, I32);
  NodeId Mu = G.makeMu(I32);
  NodeId InnerEta = G.getEta(I32, G.getParam(1, I1), Mu);
  G.setMuOperands(Mu, X, InnerEta);
  NodeId Eta = G.getEta(I32, G.getParam(2, I1), Mu);
  EXPECT_EQ(normalize(Eta, RS_EtaMu), G.find(X));
}

TEST_F(NormFixture, EtaOverLoopFreeValue) {
  NodeId V = G.getOp(Opcode::Add, I32, {G.getParam(0, I32), constant(5)});
  NodeId Eta = G.getEta(I32, G.getParam(1, I1), V);
  EXPECT_EQ(normalize(Eta, RS_EtaMu), G.find(V));
}

TEST_F(NormFixture, EtaKeepsVaryingLoops) {
  NodeId Mu = G.makeMu(I32);
  G.setMuOperands(Mu, constant(0),
                  G.getOp(Opcode::Add, I32, {Mu, constant(1)}));
  NodeId Eta = G.getEta(I32, G.getParam(0, I1), Mu);
  NodeId After = normalize(Eta, RS_EtaMu);
  EXPECT_EQ(G.node(After).Kind, NodeKind::Eta);
}

//===----------------------------------------------------------------------===//
// Constant folding and canonicalization
//===----------------------------------------------------------------------===//

TEST_F(NormFixture, ConstantFolding) {
  expectConst(normalize(G.getOp(Opcode::Add, I32,
                                {constant(3), constant(3)}),
                        RS_ConstFold),
              6);
  expectConst(normalize(G.getOp(Opcode::Mul, I32,
                                {constant(3), constant(2)}),
                        RS_ConstFold),
              6);
  expectConst(normalize(G.getOp(Opcode::Sub, I32,
                                {constant(3), constant(2)}),
                        RS_ConstFold),
              1);
  // Division by zero never folds.
  NodeId Div =
      G.getOp(Opcode::SDiv, I32, {G.getParam(0, I32), constant(0)});
  EXPECT_EQ(G.node(normalize(Div, RS_ConstFold)).Kind, NodeKind::Op);
}

TEST_F(NormFixture, ConstantIdentities) {
  NodeId A = G.getParam(0, I32);
  EXPECT_EQ(normalize(G.getOp(Opcode::Add, I32, {A, constant(0)}),
                      RS_ConstFold),
            G.find(A));
  expectConst(normalize(G.getOp(Opcode::Mul, I32, {A, constant(0)}),
                        RS_ConstFold),
              0);
  expectConst(normalize(G.getOp(Opcode::Xor, I32, {A, A}), RS_ConstFold),
              0);
  EXPECT_EQ(normalize(G.getOp(Opcode::And, I32, {A, A}), RS_ConstFold),
            G.find(A));
}

TEST_F(NormFixture, Canonicalization) {
  NodeId A = G.getParam(0, I32);
  // a + a ↓ shl a 1.
  NodeId Dbl = normalize(G.getOp(Opcode::Add, I32, {A, A}),
                         RS_Canonicalize);
  EXPECT_EQ(G.node(Dbl).Op, Opcode::Shl);
  // mul a 4 ↓ shl a 2.
  NodeId M4 = normalize(G.getOp(Opcode::Mul, I32, {A, constant(4)}),
                        RS_Canonicalize);
  ASSERT_EQ(G.node(M4).Op, Opcode::Shl);
  expectConst(G.operand(M4, 1), 2);
  // add a (-5) ↓ sub a 5.
  NodeId Sub = normalize(G.getOp(Opcode::Add, I32, {A, constant(-5)}),
                         RS_Canonicalize);
  ASSERT_EQ(G.node(Sub).Op, Opcode::Sub);
  expectConst(G.operand(Sub, 1), 5);
  // gt 10 a ↓ lt a 10 (constant moves right, predicate swaps).
  NodeId Cmp = normalize(G.getOp(Opcode::ICmp, I1, {constant(10), A},
                                 static_cast<uint8_t>(ICmpPred::SGT)),
                         RS_Canonicalize);
  EXPECT_EQ(static_cast<ICmpPred>(G.node(Cmp).Pred), ICmpPred::SLT);
  EXPECT_EQ(G.operand(Cmp, 0), G.find(A));
}

TEST_F(NormFixture, FloatFoldIsOptIn) {
  NodeId Sum = G.getOp(Opcode::FAdd, Ctx.getFloatTy(),
                       {G.getConstFloat(Ctx.getFloatTy(), 1.5),
                        G.getConstFloat(Ctx.getFloatTy(), 2.0)});
  // Without the extension, no folding (a paper false-alarm source).
  EXPECT_EQ(G.node(normalize(Sum, RS_Paper)).Kind, NodeKind::Op);
  NodeId Folded = normalize(Sum, RS_Paper | RS_FloatFold);
  ASSERT_EQ(G.node(Folded).Kind, NodeKind::ConstFloat);
  EXPECT_DOUBLE_EQ(G.node(Folded).FloatVal, 3.5);
}

//===----------------------------------------------------------------------===//
// Load/store rules (10)-(11) and friends
//===----------------------------------------------------------------------===//

namespace {

struct MemFixture : NormFixture {
  NodeId Mem0, AllocA, MemA, AllocB, MemB;

  void SetUp() override {
    Mem0 = G.getInitialMem();
    NodeId One = G.getConstInt(Ctx.getInt64Ty(), 1);
    AllocA = G.getAlloc(One, Mem0, 4);
    MemA = G.getAllocMem(AllocA);
    AllocB = G.getAlloc(One, MemA, 4);
    MemB = G.getAllocMem(AllocB);
  }
};

} // namespace

TEST_F(MemFixture, Rule11_LoadOfStoredValue) {
  NodeId X = G.getParam(0, I32);
  NodeId M1 = G.getStore(X, AllocA, MemB);
  NodeId Ld = G.getLoad(I32, AllocA, M1);
  EXPECT_EQ(normalize(Ld, RS_LoadStore), G.find(X));
}

TEST_F(MemFixture, Rule10_LoadJumpsNoAliasStore) {
  NodeId X = G.getParam(0, I32), Y = G.getParam(1, I32);
  NodeId M1 = G.getStore(X, AllocA, MemB);
  NodeId M2 = G.getStore(Y, AllocB, M1);
  NodeId Ld = G.getLoad(I32, AllocA, M2);
  // The load jumps over the store to B and reads X.
  EXPECT_EQ(normalize(Ld, RS_LoadStore), G.find(X));
}

TEST_F(MemFixture, LoadStopsAtMayAliasStore) {
  NodeId P = G.getParam(0, Ctx.getPtrTy());
  NodeId Q = G.getParam(1, Ctx.getPtrTy());
  NodeId M1 = G.getStore(G.getParam(2, I32), P, Mem0);
  NodeId Ld = G.getLoad(I32, Q, M1);
  EXPECT_EQ(G.node(normalize(Ld, RS_LoadStore)).Kind, NodeKind::Load);
}

TEST_F(MemFixture, StoreOverStoreCollapses) {
  NodeId X = G.getParam(0, I32), Y = G.getParam(1, I32);
  NodeId M1 = G.getStore(X, AllocA, MemB);
  NodeId M2 = G.getStore(Y, AllocA, M1);
  NodeId After = normalize(M2, RS_LoadStore);
  // The outer store now chains directly past the overwritten one... and
  // since nothing reads the allocations, the dead-store rule may erase
  // both. Either way X must no longer be reachable from the root.
  std::string Dump = G.dump({After});
  EXPECT_EQ(G.node(G.find(X)).Kind, NodeKind::Param);
}

TEST_F(MemFixture, DeadStoreToLocalAllocation) {
  NodeId X = G.getParam(0, I32);
  NodeId M1 = G.getStore(X, AllocA, MemB);
  NodeId Ret = G.getRet(InvalidNode, M1);
  RuleConfig C;
  C.Mask = RS_LoadStore;
  normalizeGraph(G, {Ret}, C);
  // The store to the never-read local allocation is gone; so are the
  // allocations themselves (their pointers are unused afterwards).
  EXPECT_EQ(G.operand(G.find(Ret), 0), Mem0);
}

TEST_F(MemFixture, EscapedAllocationStoresStay) {
  // Store the pointer itself somewhere: the allocation escapes.
  NodeId P = G.getParam(0, Ctx.getPtrTy());
  NodeId MEsc = G.getStore(AllocA, P, MemB);
  NodeId M1 = G.getStore(G.getParam(1, I32), AllocA, MEsc);
  NodeId Ret = G.getRet(InvalidNode, M1);
  RuleConfig C;
  C.Mask = RS_LoadStore;
  normalizeGraph(G, {Ret}, C);
  EXPECT_EQ(G.node(G.operand(G.find(Ret), 0)).Kind, NodeKind::Store);
}

TEST_F(MemFixture, GlobalFoldExtension) {
  Module M(Ctx);
  M.createGlobal(I32, "answer", Ctx.getInt32(42), /*IsConstant=*/true);
  NodeId GAddr = G.getGlobal("answer", true, Ctx.getPtrTy());
  NodeId Ld = G.getLoad(I32, GAddr, Mem0);
  RuleConfig C;
  C.Mask = RS_Paper;
  C.M = &M;
  normalizeGraph(G, {Ld}, C);
  EXPECT_EQ(G.node(G.find(Ld)).Kind, NodeKind::Load) << "needs extension";
  C.Mask = RS_Paper | RS_GlobalFold;
  normalizeGraph(G, {Ld}, C);
  expectConst(G.find(Ld), 42);
}

TEST_F(MemFixture, LibcCallJumpsOverDisjointStore) {
  // strlen(p) over a store to a non-escaping local: with RS_Libc the call
  // reads the earlier memory state.
  NodeId P = G.getParam(0, Ctx.getPtrTy());
  NodeId M1 = G.getStore(G.getParam(1, I32), AllocA, MemB);
  NodeId Call = G.getCall("strlen", MemoryEffect::ReadOnly,
                          Ctx.getInt64Ty(), {P, M1});
  NodeId CallClean = G.getCall("strlen", MemoryEffect::ReadOnly,
                               Ctx.getInt64Ty(), {P, MemB});
  EXPECT_NE(G.find(Call), G.find(CallClean));
  RuleConfig C;
  C.Mask = RS_Paper | RS_Libc;
  normalizeGraph(G, {Call, CallClean}, C);
  // Both collapse to strlen over the initial memory (the allocations are
  // transparent to a readonly call).
  EXPECT_EQ(G.find(Call), G.find(CallClean));
}

TEST_F(MemFixture, MemsetReadBack) {
  NodeId Fill = constant(65);
  NodeId Len = G.getConstInt(Ctx.getInt64Ty(), 8);
  NodeId Call = G.getCall("memset", MemoryEffect::ReadWrite,
                          Ctx.getVoidTy(), {AllocA, Fill, Len, MemB});
  NodeId MemAfter = G.getCallMem(Call);
  NodeId Ld = G.getLoad(Ctx.getInt8Ty(), AllocA, MemAfter);
  RuleConfig C;
  C.Mask = RS_Paper | RS_Libc;
  normalizeGraph(G, {Ld}, C);
  const Node &After = G.node(G.find(Ld));
  ASSERT_EQ(After.Kind, NodeKind::ConstInt);
  EXPECT_EQ(After.IntVal, 65);
}

//===----------------------------------------------------------------------===//
// Termination by construction
//===----------------------------------------------------------------------===//

TEST(NormalizerTermination, CmpCanonicalizationLintTable) {
  // Every icmp predicate, each operand constant or not, operands created in
  // both node-id orders. After normalizing, one more sweep must find no rule
  // to apply: no canon.cmp-* rule may fire on another's output, not even as
  // a no-op.
  Context Ctx;
  Type *I32 = Ctx.getInt32Ty(), *I1 = Ctx.getInt1Ty();
  for (unsigned Pred = 0; Pred <= unsigned(ICmpPred::UGE); ++Pred)
    for (bool ConstL : {false, true})
      for (bool ConstR : {false, true})
        for (bool LeftFirst : {false, true}) {
          SCOPED_TRACE(std::string(getPredName(ICmpPred(Pred))) +
                       (ConstL ? " const" : " param") +
                       (ConstR ? ", const" : ", param") +
                       (LeftFirst ? " (left created first)"
                                  : " (right created first)"));
          ValueGraph G;
          auto Make = [&](bool Const, unsigned Index) {
            return Const ? G.getConstInt(I32, Index ? 3 : 7)
                         : G.getParam(Index, I32);
          };
          NodeId L, R;
          if (LeftFirst) {
            L = Make(ConstL, 0);
            R = Make(ConstR, 1);
          } else {
            R = Make(ConstR, 1);
            L = Make(ConstL, 0);
          }
          NodeId Cmp = G.getOp(Opcode::ICmp, I1, {L, R}, uint8_t(Pred));
          RuleConfig C;
          normalizeGraph(G, {Cmp}, C);

          RuleConfig Once = C;
          Once.MaxIterations = 1;
          NormalizeStats Again = normalizeGraph(G, {Cmp}, Once);
          EXPECT_EQ(Again.Rewrites, 0u);
          EXPECT_EQ(Again.NoopRewrites, 0u);
          EXPECT_EQ(Again.Stop, NormalizeStop::Fixpoint);

          // And the surviving compare is in the canonical orientation.
          if (G.node(Cmp).Kind != NodeKind::Op)
            continue; // two constants folded away
          NodeId A = G.operand(Cmp, 0), B = G.operand(Cmp, 1);
          bool CA = G.node(A).Kind == NodeKind::ConstInt;
          bool CB = G.node(B).Kind == NodeKind::ConstInt;
          EXPECT_FALSE(CA && !CB) << "constant left of a non-constant";
          if (!CA && !CB)
            EXPECT_LT(A, B) << "non-constants not in node order";
        }
}

TEST(NormalizerTermination, EveryTable1PairStopsBeforeTheBudget) {
  // Every (original, optimized) pair of the 12 Table-1 profiles under the
  // engine's default rules: normalization ends because the roots merged or
  // because a sweep changed nothing, never because the budget ran out, and
  // that fixpoint is real: one more sweep merges nothing.
  Context Ctx;
  unsigned Pairs = 0, Fixpoints = 0;
  for (const BenchmarkProfile &P : getPaperSuite()) {
    std::unique_ptr<Module> Orig = generateBenchmark(Ctx, P);
    std::unique_ptr<Module> Opt = cloneModule(*Orig);
    PassManager PM;
    ASSERT_TRUE(PM.parsePipeline(getPaperPipeline()));
    RuleConfig Rules;
    Rules.M = Orig.get();
    RuleConfig Once = Rules;
    Once.MaxIterations = 1;
    for (Function *FO : Opt->definedFunctions()) {
      if (!PM.run(*FO))
        continue;
      ValueGraph G;
      BuildResult A = buildValueGraph(G, *Orig->getFunction(FO->getName()));
      BuildResult B = buildValueGraph(G, *FO);
      if (!A.Supported || !B.Supported)
        continue;
      ++Pairs;
      SCOPED_TRACE(FO->getName());
      NormalizeStats S = normalizeGraph(G, {A.Ret, B.Ret}, Rules);
      EXPECT_NE(S.Stop, NormalizeStop::Budget)
          << S.Iterations << " sweeps, " << S.Rewrites << " rewrites";
      if (S.Stop != NormalizeStop::Fixpoint)
        continue;
      ++Fixpoints;
      // The unswitch allowance bounds graph growth per run, so a fresh run
      // may unswitch again where the first spent all of it. Check those
      // pairs without the commuting rules; nothing else may fire.
      RuleConfig Check = Once;
      auto Unswitched = S.RuleFires.find("commute.unswitch");
      if (Unswitched != S.RuleFires.end() &&
          Unswitched->second == MaxUnswitchesPerRun)
        Check.Mask &= ~RS_Commuting;
      NormalizeStats Again = normalizeGraph(G, {A.Ret, B.Ret}, Check);
      EXPECT_EQ(Again.Rewrites, 0u);
      EXPECT_EQ(Again.SharingMerges, 0u);
      EXPECT_EQ(Again.Stop, NormalizeStop::Fixpoint);
    }
  }
  // Not vacuous: the suite has hundreds of pairs and ~100 rejections.
  EXPECT_GT(Pairs, 400u);
  EXPECT_GT(Fixpoints, 50u);
}
