//===- CloningTest.cpp - Module/function/block cloning tests --------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "ir/Cloning.h"
#include "support/Arena.h"
#include "ir/Interpreter.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <thread>
#include <unordered_set>

using namespace llvmmd;
using namespace llvmmd::testutil;

TEST(Cloning, ModuleDeepCopyIsIndependent) {
  Context Ctx;
  auto M = parseOrDie(Ctx, R"(
@g = global i32 10
declare i64 @strlen(ptr) readonly
define i32 @f(i32 %a) {
entry:
  %v = load i32, ptr @g
  %r = add i32 %v, %a
  store i32 %r, ptr @g
  ret i32 %r
}
)");
  auto Clone = cloneModule(*M);
  expectVerified(*Clone);
  // Structural copy...
  EXPECT_EQ(printModule(*M), printModule(*Clone));
  // ...that references its own globals, not the original's.
  GlobalVariable *G1 = M->getGlobal("g");
  GlobalVariable *G2 = Clone->getGlobal("g");
  ASSERT_NE(G2, nullptr);
  EXPECT_NE(G1, G2);
  for (const auto &BB : Clone->getFunction("f")->blocks())
    for (Instruction *I : *BB)
      for (Value *Op : I->operands())
        EXPECT_NE(Op, static_cast<Value *>(G1))
            << "clone still references the original module's global";
  // Callee declarations are remapped too.
  EXPECT_EQ(Clone->getFunction("strlen")->getMemoryEffect(),
            MemoryEffect::ReadOnly);
  // Mutating the clone leaves the original untouched.
  Clone->getFunction("f")->dropBody();
  expectVerified(*M);
  EXPECT_EQ(M->getFunction("f")->getNumBlocks(), 1u);
}

TEST(Cloning, ClonePreservesBehavior) {
  Context Ctx;
  auto M = generateBenchmark(Ctx, [] {
    BenchmarkProfile P = getProfile("mcf");
    P.FunctionCount = 5;
    return P;
  }());
  auto Clone = cloneModule(*M);
  expectVerified(*Clone);
  Interpreter IA(*M), IB(*Clone);
  uint64_t SA = IA.materializeString("s");
  uint64_t SB = IB.materializeString("s");
  for (Function *F : M->definedFunctions()) {
    Function *FC = Clone->getFunction(F->getName());
    for (int T = 0; T < 3; ++T) {
      auto RA = IA.run(*F, {RtValue::makeInt(T), RtValue::makeInt(-T),
                            RtValue::makePtr(SA)});
      auto RB = IB.run(*FC, {RtValue::makeInt(T), RtValue::makeInt(-T),
                             RtValue::makePtr(SB)});
      ASSERT_EQ(RA.Status, RB.Status);
      if (RA.Status == ExecStatus::OK) {
        EXPECT_TRUE(RA.Value == RB.Value);
      }
    }
  }
}

TEST(Cloning, CloneInstructionCoversAllOpcodes) {
  Context Ctx;
  auto M = parseOrDie(Ctx, R"(
declare i32 @abs(i32) readnone
define i32 @f(i32 %a, ptr %p, i1 %c) {
entry:
  %add = add i32 %a, 1
  %cmp = icmp slt i32 %add, 5
  %sel = select i1 %cmp, i32 %add, i32 0
  %al = alloca i32, i64 2
  %gep = getelementptr i32, ptr %al, i64 1
  store i32 %sel, ptr %gep
  %ld = load i32, ptr %gep
  %cl = call i32 @abs(i32 %ld)
  %zx = zext i32 %cl to i64
  %tr = trunc i64 %zx to i32
  br i1 %c, label %t, label %e
t:
  br label %j
e:
  br label %j
j:
  %phi = phi i32 [ %tr, %t ], [ 0, %e ]
  ret i32 %phi
}
)");
  Function *F = M->getFunction("f");
  Arena Scratch;
  for (const auto &BB : F->blocks()) {
    for (Instruction *I : *BB) {
      Instruction *C = cloneInstruction(I, Scratch);
      EXPECT_EQ(C->getOpcode(), I->getOpcode());
      EXPECT_EQ(C->getNumOperands(), I->getNumOperands());
      for (unsigned K = 0; K < I->getNumOperands(); ++K)
        EXPECT_EQ(C->getOperand(K), I->getOperand(K));
      C->dropAllReferences();
    }
  }
}

TEST(Cloning, CloneBlocksRemapsInternalEdges) {
  Context Ctx;
  auto M = parseOrDie(Ctx, R"(
define i32 @f(i32 %n) {
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
  ret i32 %i
}
)");
  Function *F = M->getFunction("f");
  std::vector<BasicBlock *> LoopBlocks;
  for (const auto &BB : F->blocks())
    if (BB->getName() == "h" || BB->getName() == "b")
      LoopBlocks.push_back(BB);
  CloneMap Map;
  auto Clones = cloneBlocks(*F, LoopBlocks, Map, ".c");
  ASSERT_EQ(Clones.size(), 2u);
  EXPECT_EQ(Map.lookup(LoopBlocks[0]), Clones[0]);
  EXPECT_EQ(Map.lookup(Clones[0]), nullptr);
  // The cloned latch branches to the cloned header, not the original.
  BasicBlock *ClonedB = Map.lookup(LoopBlocks[1]);
  auto *Br = cast<BranchInst>(ClonedB->getTerminator());
  EXPECT_EQ(Br->getSuccessor(0), Map.lookup(LoopBlocks[0]));
  // The cloned phi keeps its external entry (from `entry`) unmapped and
  // remaps the latch entry.
  auto *ClonedPhi = cast<PhiNode>(Map.lookup(LoopBlocks[0])->front());
  bool SawEntry = false, SawClonedLatch = false;
  for (unsigned K = 0; K < ClonedPhi->getNumIncoming(); ++K) {
    SawEntry |= ClonedPhi->getIncomingBlock(K)->getName() == "entry";
    SawClonedLatch |= ClonedPhi->getIncomingBlock(K) == ClonedB;
  }
  EXPECT_TRUE(SawEntry);
  EXPECT_TRUE(SawClonedLatch);
  // The cloned add uses the cloned phi.
  auto *ClonedAdd = cast<Instruction>(Map.lookup(
      *std::next(LoopBlocks[1]->begin(), 0)));
  EXPECT_EQ(ClonedAdd->getOperand(0), Map.lookup(LoopBlocks[0]->front()));
  // Values outside the cloned blocks have no copy.
  EXPECT_EQ(Map.lookup(F->getArg(0)), nullptr);
}

TEST(Cloning, ShellThenBodiesMatchesCloneModule) {
  Context Ctx;
  auto M = generateBenchmark(Ctx, [] {
    BenchmarkProfile P = getProfile("hmmer");
    P.FunctionCount = 6;
    return P;
  }());
  ModuleCloneMap Map;
  auto Shell = cloneModuleShell(*M, Map);
  // The shell holds every global and function, bodies excluded.
  ASSERT_EQ(Shell->globals().size(), M->globals().size());
  ASSERT_EQ(Shell->functions().size(), M->functions().size());
  EXPECT_EQ(Map.size(), M->globals().size() + M->functions().size());
  for (size_t I = 0; I < M->functions().size(); ++I) {
    EXPECT_TRUE(Shell->functions()[I]->isDeclaration());
    EXPECT_EQ(Map.at(M->functions()[I]), Shell->functions()[I]);
  }
  // Bodies cloned in any order give what cloneModule gives.
  for (size_t I = M->functions().size(); I-- > 0;)
    if (!M->functions()[I]->isDeclaration())
      cloneFunctionBody(*M->functions()[I], *Shell->functions()[I], &Map);
  expectVerified(*Shell);
  EXPECT_EQ(printModule(*Shell), printModule(*cloneModule(*M)));
  EXPECT_EQ(printModule(*Shell), printModule(*M));
  // Globals and callees were re-pointed through the map.
  std::unordered_set<const Value *> Source(M->globals().begin(),
                                           M->globals().end());
  Source.insert(M->functions().begin(), M->functions().end());
  for (const Function *F : Shell->definedFunctions())
    for (const BasicBlock *BB : F->blocks())
      for (const Instruction *I : *BB) {
        for (const Value *Op : I->operands())
          EXPECT_FALSE(Source.count(Op)) << F->getName();
        if (const auto *Call = dyn_cast<CallInst>(I)) {
          EXPECT_FALSE(Source.count(Call->getCallee())) << F->getName();
        }
      }
}

TEST(Cloning, CopiesListUsersInTextualOrder) {
  // %i2 is used by the header phi (a forward reference: the phi comes
  // first in the text) and by %d. The parser lists %d first (forward
  // references are patched at the end of the function); a copy lists its
  // users in text order, which the optimizer passes walk.
  Context Ctx;
  auto M = parseOrDie(Ctx, R"(
define i32 @f(i32 %n) {
entry:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %i2, %b ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %b, label %x
b:
  %i2 = add i32 %i, 1
  %d = mul i32 %i2, 2
  br label %h
x:
  ret i32 %i
}
)");
  auto Clone = cloneModule(*M);
  expectVerified(*Clone);
  EXPECT_EQ(printModule(*Clone), printModule(*M));
  const Function *F = Clone->getFunction("f");
  const BasicBlock *H = F->blocks()[1], *B = F->blocks()[2];
  const Instruction *Phi = H->front();
  const Instruction *I2 = B->front();
  const Instruction *D = *std::next(B->begin());
  ASSERT_EQ(I2->getName(), "i2");
  ASSERT_EQ(I2->getNumUses(), 2u);
  EXPECT_EQ(I2->users()[0], Phi);
  EXPECT_EQ(I2->users()[1], D);
  // The phi's placeholder was replaced by the copy, not left as undef.
  EXPECT_EQ(cast<PhiNode>(Phi)->getIncomingValue(1), I2);
}

TEST(Cloning, ConcurrentClonesLeaveTheSourceUntouched) {
  // Four threads clone the same const function 50 times each, each into
  // its own shell. Cloning only reads its source, so the source's use
  // lists come out exactly as they went in (and TSan sees no write).
  Context Ctx;
  auto M = generateBenchmark(Ctx, [] {
    BenchmarkProfile P = getProfile("sjeng");
    P.FunctionCount = 3;
    return P;
  }());
  const Function *Src = M->definedFunctions().front();
  std::vector<std::pair<const Value *, std::vector<User *>>> Before;
  for (unsigned I = 0; I < Src->getNumArgs(); ++I)
    Before.push_back({Src->getArg(I), Src->getArg(I)->users()});
  for (const BasicBlock *BB : Src->blocks())
    for (const Instruction *I : *BB)
      Before.push_back({I, I->users()});
  const std::string Expected = printFunction(*Src);

  // Shells are built up front: module structure is mutated sequentially.
  constexpr unsigned Threads = 4, Rounds = 50;
  std::vector<ModuleCloneMap> Maps(Threads);
  std::vector<std::unique_ptr<Module>> Shells;
  for (unsigned T = 0; T < Threads; ++T)
    Shells.push_back(cloneModuleShell(*M, Maps[T]));
  std::vector<std::string> Failures(Threads);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      auto *Dst = cast<Function>(Maps[T].at(Src));
      for (unsigned R = 0; R < Rounds; ++R) {
        Dst->dropBody();
        cloneFunctionBody(*Src, *Dst, &Maps[T]);
        if (printFunction(*Dst) != Expected) {
          Failures[T] = "round " + std::to_string(R) + ": copy differs";
          return;
        }
      }
    });
  for (std::thread &W : Workers)
    W.join();
  for (unsigned T = 0; T < Threads; ++T)
    EXPECT_EQ(Failures[T], "") << "thread " << T;
  for (const auto &[V, Users] : Before)
    EXPECT_EQ(V->users(), Users) << V->getName();
}
