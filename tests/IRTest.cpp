//===- IRTest.cpp - Core IR data structure tests ------------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "ir/Cloning.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "opt/Pass.h"
#include "support/Hashing.h"
#include "workload/Generator.h"
#include "workload/Profiles.h"

#include <gtest/gtest.h>

#include <set>

using namespace llvmmd;

TEST(Types, Interning) {
  Context Ctx;
  EXPECT_EQ(Ctx.getInt32Ty(), Ctx.getIntTy(32));
  EXPECT_NE(Ctx.getInt32Ty(), Ctx.getInt64Ty());
  EXPECT_EQ(Ctx.getPtrTy(), Ctx.getPtrTy());
  EXPECT_TRUE(Ctx.getInt1Ty()->isBool());
  EXPECT_EQ(Ctx.getInt32Ty()->getName(), "i32");
  EXPECT_EQ(Ctx.getInt32Ty()->getStoreSize(), 4u);
  EXPECT_EQ(Ctx.getInt1Ty()->getStoreSize(), 1u);
  EXPECT_EQ(Ctx.getFloatTy()->getStoreSize(), 8u);
}

TEST(Types, FunctionTypeInterning) {
  Context Ctx;
  FunctionType *A = Ctx.getFunctionTy(Ctx.getInt32Ty(), {Ctx.getInt32Ty()});
  FunctionType *B = Ctx.getFunctionTy(Ctx.getInt32Ty(), {Ctx.getInt32Ty()});
  FunctionType *C = Ctx.getFunctionTy(Ctx.getInt32Ty(), {Ctx.getInt64Ty()});
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
}

TEST(Constants, IntInterningAndCanonicalization) {
  Context Ctx;
  EXPECT_EQ(Ctx.getInt32(7), Ctx.getInt32(7));
  EXPECT_NE(Ctx.getInt32(7), Ctx.getInt64(7));
  // Values canonicalize by sign extension from the width.
  ConstantInt *A = Ctx.getInt(Ctx.getInt8Ty(), 0xFF);
  EXPECT_EQ(A->getSExtValue(), -1);
  EXPECT_EQ(A->getZExtValue(), 0xFFu);
  EXPECT_EQ(A, Ctx.getInt(Ctx.getInt8Ty(), -1));
}

TEST(Constants, Predicates) {
  Context Ctx;
  EXPECT_TRUE(Ctx.getInt32(0)->isZero());
  EXPECT_TRUE(Ctx.getInt32(1)->isOne());
  EXPECT_TRUE(Ctx.getTrue()->isTrue());
  EXPECT_TRUE(Ctx.getFalse()->isFalse());
  EXPECT_TRUE(Ctx.getInt32(64)->isPowerOf2());
  EXPECT_FALSE(Ctx.getInt32(65)->isPowerOf2());
  EXPECT_FALSE(Ctx.getInt32(0)->isPowerOf2());
}

TEST(Constants, FloatAndSpecials) {
  Context Ctx;
  EXPECT_EQ(Ctx.getFloat(2.5), Ctx.getFloat(2.5));
  EXPECT_NE(Ctx.getFloat(2.5), Ctx.getFloat(2.25));
  EXPECT_EQ(Ctx.getNullPtr(), Ctx.getNullPtr());
  EXPECT_EQ(Ctx.getUndef(Ctx.getInt32Ty()), Ctx.getUndef(Ctx.getInt32Ty()));
  EXPECT_NE(Ctx.getUndef(Ctx.getInt32Ty()), Ctx.getUndef(Ctx.getInt64Ty()));
}

namespace {

/// Builds `f(a, b) { x = a + b; y = x * a; ret y }` for use-list tests.
struct SimpleFunc {
  Context Ctx;
  std::unique_ptr<Module> M;
  Function *F;
  Value *X, *Y;

  SimpleFunc() {
    M = std::make_unique<Module>(Ctx);
    Type *I32 = Ctx.getInt32Ty();
    F = M->createFunction(Ctx.getFunctionTy(I32, {I32, I32}), "f");
    IRBuilder B(Ctx);
    B.setInsertPoint(F->createBlock("entry"));
    X = B.createAdd(F->getArg(0), F->getArg(1), "x");
    Y = B.createMul(X, F->getArg(0), "y");
    B.createRet(Y);
  }
};

} // namespace

TEST(UseLists, TrackUses) {
  SimpleFunc S;
  EXPECT_EQ(S.X->getNumUses(), 1u);
  EXPECT_TRUE(S.X->hasOneUse());
  // arg0 is used by both the add and the mul.
  EXPECT_EQ(S.F->getArg(0)->getNumUses(), 2u);
  EXPECT_EQ(S.Y->getNumUses(), 1u); // the return
}

TEST(UseLists, ReplaceAllUsesWith) {
  SimpleFunc S;
  Value *C = S.Ctx.getInt32(5);
  S.X->replaceAllUsesWith(C);
  EXPECT_TRUE(S.X->use_empty());
  auto *Mul = cast<Instruction>(S.Y);
  EXPECT_EQ(Mul->getOperand(0), C);
}

TEST(UseLists, SetOperandMaintainsLists) {
  SimpleFunc S;
  auto *Mul = cast<Instruction>(S.Y);
  size_t ArgUses = S.F->getArg(0)->getNumUses();
  Mul->setOperand(1, S.F->getArg(1));
  EXPECT_EQ(S.F->getArg(0)->getNumUses(), ArgUses - 1);
}

TEST(Instructions, OpcodeClassification) {
  EXPECT_TRUE(isIntBinaryOp(Opcode::Add));
  EXPECT_TRUE(isFloatBinaryOp(Opcode::FMul));
  EXPECT_FALSE(isIntBinaryOp(Opcode::FMul));
  EXPECT_TRUE(isCommutativeOp(Opcode::Mul));
  EXPECT_FALSE(isCommutativeOp(Opcode::Sub));
  EXPECT_TRUE(isTerminatorOp(Opcode::Ret));
  EXPECT_TRUE(isCastOp(Opcode::SExt));
}

TEST(Instructions, PredHelpers) {
  EXPECT_EQ(swapPred(ICmpPred::SLT), ICmpPred::SGT);
  EXPECT_EQ(swapPred(ICmpPred::EQ), ICmpPred::EQ);
  EXPECT_EQ(invertPred(ICmpPred::SLT), ICmpPred::SGE);
  EXPECT_EQ(invertPred(ICmpPred::NE), ICmpPred::EQ);
  for (auto P : {ICmpPred::EQ, ICmpPred::NE, ICmpPred::SLT, ICmpPred::SLE,
                 ICmpPred::SGT, ICmpPred::SGE, ICmpPred::ULT, ICmpPred::ULE,
                 ICmpPred::UGT, ICmpPred::UGE}) {
    EXPECT_EQ(swapPred(swapPred(P)), P);
    EXPECT_EQ(invertPred(invertPred(P)), P);
  }
}

TEST(Instructions, SideEffectQueries) {
  SimpleFunc S;
  IRBuilder B(S.Ctx);
  Function *F2 = S.M->createFunction(
      S.Ctx.getFunctionTy(S.Ctx.getVoidTy(), {S.Ctx.getPtrTy()}), "w");
  B.setInsertPoint(S.F->getEntryBlock());
  // Build detached checks through fresh instructions in a scratch block.
  Function *RO = S.M->createFunction(
      S.Ctx.getFunctionTy(S.Ctx.getInt32Ty(), {}), "ro");
  RO->setMemoryEffect(MemoryEffect::ReadOnly);
  Function *RN = S.M->createFunction(
      S.Ctx.getFunctionTy(S.Ctx.getInt32Ty(), {}), "rn");
  RN->setMemoryEffect(MemoryEffect::ReadNone);
  BasicBlock *BB = S.F->createBlock("scratch");
  B.setInsertPoint(BB);
  Value *P = B.createAlloca(S.Ctx.getInt32Ty());
  Instruction *St = B.createStore(S.Ctx.getInt32(1), P);
  Value *Ld = B.createLoad(S.Ctx.getInt32Ty(), P);
  Value *CW = B.createCall(F2, {P});
  Value *CR = B.createCall(RO, {}, "cr");
  Value *CN = B.createCall(RN, {}, "cn");
  EXPECT_TRUE(St->hasSideEffects());
  EXPECT_TRUE(cast<Instruction>(Ld)->mayReadMemory());
  EXPECT_FALSE(cast<Instruction>(Ld)->mayWriteMemory());
  EXPECT_TRUE(cast<Instruction>(CW)->hasSideEffects());
  EXPECT_FALSE(cast<Instruction>(CR)->mayWriteMemory());
  EXPECT_TRUE(cast<Instruction>(CR)->mayReadMemory());
  EXPECT_FALSE(cast<Instruction>(CN)->mayReadMemory());
}

TEST(BasicBlocks, SuccessorsAndPredecessors) {
  Context Ctx;
  Module M(Ctx);
  Type *I32 = Ctx.getInt32Ty();
  Function *F = M.createFunction(
      Ctx.getFunctionTy(I32, {Ctx.getInt1Ty()}), "f");
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *T = F->createBlock("t");
  BasicBlock *E = F->createBlock("e");
  IRBuilder B(Ctx);
  B.setInsertPoint(Entry);
  B.createCondBr(F->getArg(0), T, E);
  B.setInsertPoint(T);
  B.createRet(Ctx.getInt32(1));
  B.setInsertPoint(E);
  B.createRet(Ctx.getInt32(2));

  auto Succs = Entry->successors();
  ASSERT_EQ(Succs.size(), 2u);
  EXPECT_EQ(Succs[0], T);
  EXPECT_EQ(Succs[1], E);
  auto Preds = T->predecessors();
  ASSERT_EQ(Preds.size(), 1u);
  EXPECT_EQ(Preds[0], Entry);
  EXPECT_TRUE(E->predecessors().size() == 1);
  EXPECT_EQ(Entry->getTerminator()->getOpcode(), Opcode::Br);
}

TEST(BasicBlocks, PhiHelpers) {
  Context Ctx;
  Module M(Ctx);
  Type *I32 = Ctx.getInt32Ty();
  Function *F = M.createFunction(Ctx.getFunctionTy(I32, {}), "f");
  BasicBlock *A = F->createBlock("a");
  BasicBlock *BJ = F->createBlock("j");
  IRBuilder B(Ctx);
  B.setInsertPoint(BJ);
  PhiNode *P = B.createPhi(I32, "p");
  P->addIncoming(Ctx.getInt32(1), A);
  EXPECT_EQ(P->getNumIncoming(), 1u);
  EXPECT_EQ(P->getIncomingValueForBlock(A), Ctx.getInt32(1));
  EXPECT_EQ(P->getBlockIndex(A), 0);
  P->removeIncoming(0);
  EXPECT_EQ(P->getNumIncoming(), 0u);
  // Phis group at the head; getFirstNonPhi skips them.
  PhiNode *P2 = B.createPhi(I32, "p2");
  B.createRet(P2);
  EXPECT_EQ(*BJ->getFirstNonPhi(), BJ->getTerminator());
  EXPECT_EQ(BJ->phis().size(), 2u);
}

namespace {

/// A block of five adds a0..a4 (each a chain on the previous) and a ret.
struct ListFunc {
  Context Ctx;
  Module M{Ctx};
  Function *F;
  BasicBlock *BB;
  std::vector<Instruction *> Adds;

  ListFunc() {
    Type *I32 = Ctx.getInt32Ty();
    F = M.createFunction(Ctx.getFunctionTy(I32, {I32}), "f");
    BB = F->createBlock("entry");
    IRBuilder B(Ctx);
    B.setInsertPoint(BB);
    Value *V = F->getArg(0);
    for (int I = 0; I < 5; ++I) {
      V = B.createAdd(V, Ctx.getInt32(I), "a" + std::to_string(I));
      Adds.push_back(cast<Instruction>(V));
    }
    B.createRet(V);
  }

  /// Instruction names front to back, then checked back to front through
  /// the iterators and the neighbour links.
  std::vector<std::string> order() const {
    std::vector<std::string> Fwd, Bwd;
    for (const Instruction *I : *BB)
      Fwd.push_back(I->hasName() ? I->getName() : "ret");
    for (auto It = BB->end(); It != BB->begin();) {
      --It;
      Bwd.insert(Bwd.begin(), (*It)->hasName() ? (*It)->getName() : "ret");
    }
    EXPECT_EQ(Fwd, Bwd);
    EXPECT_EQ(Fwd.size(), BB->size());
    for (const Instruction *I : *BB) {
      if (I->getNextNode()) {
        EXPECT_EQ(I->getNextNode()->getPrevNode(), I);
      }
      EXPECT_EQ(I->getParent(), BB);
    }
    EXPECT_EQ(BB->front()->getPrevNode(), nullptr);
    EXPECT_EQ(BB->back()->getNextNode(), nullptr);
    return Fwd;
  }
};

using Names = std::vector<std::string>;

} // namespace

TEST(BasicBlocks, RemoveAtHeadMiddleAndTailKeepsOrder) {
  ListFunc L;
  EXPECT_EQ(L.order(), (Names{"a0", "a1", "a2", "a3", "a4", "ret"}));
  L.BB->remove(L.Adds[0]); // head
  EXPECT_EQ(L.order(), (Names{"a1", "a2", "a3", "a4", "ret"}));
  L.BB->remove(L.Adds[2]); // middle
  EXPECT_EQ(L.order(), (Names{"a1", "a3", "a4", "ret"}));
  Instruction *Ret = L.BB->back();
  L.BB->remove(Ret); // tail
  EXPECT_EQ(L.order(), (Names{"a1", "a3", "a4"}));
  EXPECT_EQ(L.BB->getTerminator(), nullptr);
  // A removed instruction is unlinked and may be inserted again.
  EXPECT_EQ(L.Adds[0]->getParent(), nullptr);
  EXPECT_EQ(L.Adds[0]->getNextNode(), nullptr);
  L.BB->append(Ret);
  L.BB->insert(L.BB->begin(), L.Adds[0]);
  L.BB->insert(BasicBlock::iterator(L.Adds[3], L.BB), L.Adds[2]);
  EXPECT_EQ(L.order(), (Names{"a0", "a1", "a2", "a3", "a4", "ret"}));
  EXPECT_EQ(L.BB->getTerminator(), Ret);
  // Inserting before end() appends; decrementing end() reaches the tail.
  auto Last = L.BB->end();
  --Last;
  EXPECT_EQ(*Last, Ret);
  // Removing every instruction empties the block; appending them again
  // restores it.
  std::vector<Instruction *> All(L.BB->begin(), L.BB->end());
  while (!L.BB->empty())
    L.BB->remove(L.BB->front());
  EXPECT_EQ(L.BB->size(), 0u);
  EXPECT_EQ(L.BB->begin(), L.BB->end());
  for (Instruction *I : All)
    L.BB->append(I);
  EXPECT_EQ(L.order(), (Names{"a0", "a1", "a2", "a3", "a4", "ret"}));
  // Moving keeps an instruction's number.
  unsigned N = L.Adds[1]->getNumber();
  L.BB->remove(L.Adds[1]);
  L.BB->insert(BasicBlock::iterator(L.Adds[0], L.BB), L.Adds[1]);
  EXPECT_EQ(L.Adds[1]->getNumber(), N);
}

TEST(BasicBlocks, PhiViewStopsAtTheFirstNonPhiAndSurvivesErasure) {
  Context Ctx;
  Module M(Ctx);
  Type *I32 = Ctx.getInt32Ty();
  Function *F = M.createFunction(Ctx.getFunctionTy(I32, {I32}), "f");
  BasicBlock *A = F->createBlock("a");
  BasicBlock *J = F->createBlock("j");
  IRBuilder B(Ctx);
  B.setInsertPoint(A);
  B.createBr(J);
  B.setInsertPoint(J);
  std::vector<PhiNode *> Made;
  for (int I = 0; I < 3; ++I) {
    PhiNode *P = B.createPhi(I32, "p" + std::to_string(I));
    P->addIncoming(F->getArg(0), A);
    Made.push_back(P);
  }
  B.createRet(F->getArg(0));
  std::vector<PhiNode *> Seen(J->phis().begin(), J->phis().end());
  EXPECT_EQ(Seen, Made);
  // `*It++` steps before the body runs, so erasing the visited phi is safe.
  PhiRange Phis = J->phis();
  for (auto It = Phis.begin(); It != Phis.end();) {
    PhiNode *P = *It++;
    if (P != Made[2])
      J->erase(P);
  }
  EXPECT_EQ(J->phis().size(), 1u);
  EXPECT_EQ(*J->phis().begin(), Made[2]);
  J->erase(Made[2]);
  EXPECT_TRUE(J->phis().empty());
  EXPECT_EQ(J->size(), 1u);
}

TEST(Numbering, UniqueWithinABodyAndResetByDropBody) {
  Context Ctx;
  BenchmarkProfile P = getProfile("hmmer");
  P.FunctionCount = 4;
  std::unique_ptr<Module> M = generateBenchmark(Ctx, P);
  std::unique_ptr<Module> Opt = cloneModule(*M);
  PassManager PM;
  ASSERT_TRUE(PM.parsePipeline(getPaperPipeline()));
  for (Function *F : Opt->definedFunctions()) {
    // The optimizer erases instructions and blocks and creates others:
    // numbers stay unique and below the bounds, and none is reused.
    unsigned ValuesBefore = F->getMaxValueNumber();
    PM.run(*F);
    EXPECT_GE(F->getMaxValueNumber(), ValuesBefore);
    std::set<unsigned> Values, Blocks;
    for (unsigned I = 0; I < F->getNumArgs(); ++I) {
      EXPECT_EQ(F->getArg(I)->getNumber(), I);
      Values.insert(I);
    }
    for (const BasicBlock *BB : F->blocks()) {
      EXPECT_LT(BB->getNumber(), F->getMaxBlockNumber());
      EXPECT_TRUE(Blocks.insert(BB->getNumber()).second) << BB->getName();
      for (const Instruction *I : *BB) {
        EXPECT_LT(I->getNumber(), F->getMaxValueNumber());
        EXPECT_TRUE(Values.insert(I->getNumber()).second) << I->getName();
      }
    }
    // A fresh clone is numbered densely, in block order.
    Function *G = Opt->createFunction(F->getFunctionType(),
                                      F->getName() + ".copy");
    cloneFunctionBody(*F, *G);
    EXPECT_EQ(G->getMaxBlockNumber(), G->getNumBlocks());
    EXPECT_EQ(G->getMaxValueNumber(),
              G->getNumArgs() + G->getInstructionCount());
    unsigned Next = G->getNumArgs(), NextBlock = 0;
    for (const BasicBlock *BB : G->blocks()) {
      EXPECT_EQ(BB->getNumber(), NextBlock++);
      for (const Instruction *I : *BB)
        EXPECT_EQ(I->getNumber(), Next++);
    }
    // dropBody restarts the numbering; arguments keep theirs.
    G->dropBody();
    EXPECT_EQ(G->getMaxBlockNumber(), 0u);
    EXPECT_EQ(G->getMaxValueNumber(), G->getNumArgs());
    cloneFunctionBody(*F, *G);
    EXPECT_EQ(G->getMaxValueNumber(),
              G->getNumArgs() + G->getInstructionCount());
    EXPECT_EQ(G->getEntryBlock()->getNumber(), 0u);
  }
}

TEST(Numbering, CloneOfAnOptimizedBodyFingerprintsLikeItsSource) {
  // An optimized body's numbers have holes (erased instructions and
  // blocks); its clone is numbered densely. Fingerprints number values in
  // block order, so the two hash the same.
  Context Ctx;
  for (const char *Name : {"sqlite", "gcc", "sjeng"}) {
    BenchmarkProfile P = getProfile(Name);
    P.FunctionCount = 6;
    std::unique_ptr<Module> M = generateBenchmark(Ctx, P);
    std::unique_ptr<Module> Opt = cloneModule(*M);
    PassManager PM;
    ASSERT_TRUE(PM.parsePipeline(getPaperPipeline()));
    unsigned WithHoles = 0;
    for (Function *F : Opt->definedFunctions()) {
      PM.run(*F);
      WithHoles += F->getMaxValueNumber() >
                   F->getNumArgs() + F->getInstructionCount();
      Function *G = Opt->createFunction(F->getFunctionType(),
                                        F->getName() + ".copy");
      cloneFunctionBody(*F, *G);
      EXPECT_EQ(fingerprintFunction(*G), fingerprintFunction(*F))
          << F->getName();
    }
    EXPECT_GT(WithHoles, 0u) << Name;
  }
}

TEST(Module, LookupAndGlobals) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = M.createFunction(Ctx.getFunctionTy(Ctx.getVoidTy(), {}),
                                 "foo");
  EXPECT_EQ(M.getFunction("foo"), F);
  EXPECT_EQ(M.getFunction("bar"), nullptr);
  GlobalVariable *G = M.createGlobal(Ctx.getInt32Ty(), "g", Ctx.getInt32(3),
                                     true);
  EXPECT_EQ(M.getGlobal("g"), G);
  EXPECT_TRUE(G->isConstantGlobal());
  EXPECT_EQ(cast<ConstantInt>(G->getInitializer())->getSExtValue(), 3);
  EXPECT_TRUE(F->isDeclaration());
  EXPECT_EQ(M.definedFunctions().size(), 0u);
}
