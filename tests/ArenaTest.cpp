//===- ArenaTest.cpp - Bump-arena allocation layer tests ------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
// The arena underpins the whole IR memory model: every instruction, block,
// function, argument, global, interned constant and value-graph node lives
// in one. These tests pin down the allocator contract (alignment, LIFO
// destructor order, slab recycling on reset) and the IR-level consequences
// (clone-into-arena equivalence, dropBody/re-clone reuse, per-module
// isolation when eight threads mutate their own modules concurrently).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "ir/Cloning.h"
#include "opt/Pass.h"
#include "support/Arena.h"
#include "validator/Validator.h"
#include "workload/Generator.h"
#include "workload/Profiles.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

using namespace llvmmd;
using namespace llvmmd::testutil;

namespace {

const char *SampleIR = R"(
@g = global i32 10
declare i64 @strlen(ptr) readonly
define i32 @f(i32 %a, i32 %b) {
entry:
  %v = load i32, ptr @g
  %c = icmp slt i32 %a, %b
  br i1 %c, label %then, label %join
then:
  %s = add i32 %v, %a
  store i32 %s, ptr @g
  br label %join
join:
  %p = phi i32 [ %v, %entry ], [ %s, %then ]
  ret i32 %p
}
)";

} // namespace

//===----------------------------------------------------------------------===//
// Allocator contract
//===----------------------------------------------------------------------===//

TEST(ArenaTest, AllocationsRespectAlignment) {
  Arena A;
  // Interleave odd sizes with every alignment the IR classes could demand;
  // each pointer must honor its own alignment regardless of what came
  // before it.
  for (size_t Align : {size_t(1), size_t(2), size_t(4), size_t(8), size_t(16),
                       size_t(32), size_t(64)}) {
    for (size_t Size : {size_t(1), size_t(3), size_t(17), size_t(256)}) {
      void *P = A.allocate(Size, Align);
      ASSERT_NE(P, nullptr);
      EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % Align, 0u)
          << "size " << Size << " align " << Align;
      // The byte range is writable and really ours.
      std::memset(P, 0xab, Size);
    }
  }
  EXPECT_GT(A.bytesAllocated(), 0u);
  EXPECT_GE(A.bytesReserved(), A.bytesAllocated());
}

TEST(ArenaTest, OversizedAllocationsWork) {
  Arena A(64); // tiny first slab: everything below is "oversized"
  void *P = A.allocate(1 << 20, 16);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % 16, 0u);
  std::memset(P, 0, 1 << 20);
  // A later small allocation still succeeds (the bump slab is intact).
  void *Q = A.allocate(8, 8);
  ASSERT_NE(Q, nullptr);
}

namespace {
struct OrderRecorder {
  explicit OrderRecorder(std::vector<int> *Log, int Id) : Log(Log), Id(Id) {}
  ~OrderRecorder() { Log->push_back(Id); }
  std::vector<int> *Log;
  int Id;
};
} // namespace

TEST(ArenaTest, DestructorsRunLIFO) {
  std::vector<int> Log;
  {
    Arena A;
    for (int I = 0; I < 5; ++I)
      A.create<OrderRecorder>(&Log, I);
  }
  // LIFO matters for the IR: a Function registered after its Arguments is
  // destroyed before them, so ~Function may still touch them.
  EXPECT_EQ(Log, (std::vector<int>{4, 3, 2, 1, 0}));
}

TEST(ArenaTest, ResetRunsDestructorsAndRecyclesOneSlab) {
  std::vector<int> Log;
  Arena A(256);
  for (int I = 0; I < 100; ++I)
    A.create<OrderRecorder>(&Log, I);
  ASSERT_GT(A.numSlabs(), 1u) << "test needs multiple slabs to be meaningful";
  size_t ReservedBefore = A.bytesReserved();

  A.reset();
  EXPECT_EQ(Log.size(), 100u);
  EXPECT_EQ(Log.front(), 99) << "reset must destroy LIFO too";
  EXPECT_EQ(A.bytesAllocated(), 0u);
  EXPECT_EQ(A.numSlabs(), 1u) << "reset keeps exactly the largest slab";
  EXPECT_LE(A.bytesReserved(), ReservedBefore);
  EXPECT_GT(A.bytesReserved(), 0u);

  // The recycled slab serves the next generation without growing: this is
  // the warm-memory property dropBody/re-clone relies on.
  size_t ReservedAfterReset = A.bytesReserved();
  for (int I = 0; I < 8; ++I)
    A.create<OrderRecorder>(&Log, I);
  EXPECT_EQ(A.bytesReserved(), ReservedAfterReset);
}

//===----------------------------------------------------------------------===//
// IR-level consequences
//===----------------------------------------------------------------------===//

TEST(ArenaTest, CloneIntoArenaIsEquivalent) {
  Context Ctx;
  auto M = parseOrDie(Ctx, SampleIR);
  auto Clone = cloneModule(*M);
  expectVerified(*Clone);
  EXPECT_EQ(printModule(*M), printModule(*Clone));

  // Single-instruction clones land in whatever arena the caller passes and
  // copy every field.
  Arena Scratch;
  Function *F = M->getFunction("f");
  for (BasicBlock *BB : F->blocks())
    for (Instruction *I : *BB) {
      Instruction *C = cloneInstruction(I, Scratch);
      EXPECT_EQ(C->getOpcode(), I->getOpcode());
      EXPECT_EQ(C->getType(), I->getType());
      EXPECT_EQ(C->getNumOperands(), I->getNumOperands());
    }
  EXPECT_GT(Scratch.bytesAllocated(), 0u);
}

TEST(ArenaTest, DropBodyAndRecloneReusesTheSlab) {
  Context Ctx;
  auto M = parseOrDie(Ctx, SampleIR);
  auto Pristine = cloneModule(*M);
  Function *F = M->getFunction("f");
  std::string Expected = printModule(*M);

  // The engine's snapshot/revert cycle: drop the body, re-clone it from the
  // pristine copy. The text must round-trip every time and, after the first
  // cycle primes the slab, the body arena must stop growing.
  F->dropBody();
  EXPECT_TRUE(F->isDeclaration());
  cloneFunctionBody(*Pristine->getFunction("f"), *F);
  remapModuleReferences(*F, *M);
  size_t WarmReserved = F->bodyArena().bytesReserved();
  EXPECT_EQ(printModule(*M), Expected);

  for (int Cycle = 0; Cycle < 10; ++Cycle) {
    F->dropBody();
    cloneFunctionBody(*Pristine->getFunction("f"), *F);
    remapModuleReferences(*F, *M);
    EXPECT_EQ(printModule(*M), Expected) << "cycle " << Cycle;
    EXPECT_EQ(F->bodyArena().bytesReserved(), WarmReserved)
        << "body arena grew on cycle " << Cycle;
  }
  expectVerified(*M);
}

TEST(ArenaTest, DropBodyForgetsEveryUseAndRevalidatesIdentically) {
  // dropBody clears the use lists of a body's arguments and instructions
  // wholesale rather than unregistering operands one at a time. Afterwards
  // no argument may keep a user, and a body re-cloned into the function
  // must validate exactly like the body it replaced.
  Context Ctx;
  BenchmarkProfile P = getProfile("sqlite");
  P.FunctionCount = 8;
  auto Orig = generateBenchmark(Ctx, P);
  auto Opt = cloneModule(*Orig);
  PassManager PM;
  ASSERT_TRUE(PM.parsePipeline(getPaperPipeline()));
  PM.run(*Opt);
  auto Pristine = cloneModule(*Opt);
  RuleConfig Rules;
  Rules.M = Orig.get();

  unsigned ArgsWithUses = 0;
  for (Function *F : Opt->definedFunctions()) {
    const Function &Src = *Orig->getFunction(F->getName());
    ValidationResult Before = validatePair(Src, *F, Rules);
    for (unsigned A = 0; A < F->getNumArgs(); ++A)
      ArgsWithUses += !F->getArg(A)->use_empty();

    F->dropBody();
    for (unsigned A = 0; A < F->getNumArgs(); ++A)
      EXPECT_TRUE(F->getArg(A)->use_empty())
          << F->getName() << " arg " << A << " kept a user";
    cloneFunctionBody(*Pristine->getFunction(F->getName()), *F);
    remapModuleReferences(*F, *Opt);

    ValidationResult After = validatePair(Src, *F, Rules);
    EXPECT_EQ(After.Validated, Before.Validated) << F->getName();
    EXPECT_EQ(After.Reason, Before.Reason) << F->getName();
    EXPECT_EQ(After.GraphNodes, Before.GraphNodes) << F->getName();
    EXPECT_EQ(After.LiveNodes, Before.LiveNodes) << F->getName();
    EXPECT_EQ(After.Rewrites, Before.Rewrites) << F->getName();
    EXPECT_EQ(After.SharingMerges, Before.SharingMerges) << F->getName();
    EXPECT_EQ(After.Iterations, Before.Iterations) << F->getName();
  }
  EXPECT_GT(ArgsWithUses, 0u) << "no argument had a use to drop";
  expectVerified(*Opt);
  EXPECT_EQ(printModule(*Opt), printModule(*Pristine));
}

TEST(ArenaTest, EightThreadsMutateTheirOwnModulesInIsolation) {
  // One shared Context (its intern arena is lock-protected), eight threads
  // each owning a module: the per-function body arenas and per-module
  // object arenas must never bleed into each other. Run the full
  // build/clone/drop/re-clone churn concurrently and check every thread's
  // module still prints and verifies exactly like a single-threaded one.
  Context Ctx;
  std::string Expected;
  {
    auto Ref = parseOrDie(Ctx, SampleIR);
    Expected = printModule(*Ref);
  }

  constexpr unsigned Threads = 8;
  std::vector<std::string> Failures(Threads);
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      for (int Round = 0; Round < 20; ++Round) {
        ParseResult R = parseModule(Ctx, SampleIR);
        if (!R) {
          Failures[T] = "parse failed: " + R.Error;
          return;
        }
        auto Clone = cloneModule(*R.M);
        Function *F = Clone->getFunction("f");
        F->dropBody();
        cloneFunctionBody(*R.M->getFunction("f"), *F);
        remapModuleReferences(*F, *Clone);
        if (printModule(*Clone) != Expected) {
          Failures[T] = "round " + std::to_string(Round) +
                        ": clone diverged after re-clone";
          return;
        }
        std::vector<std::string> Errors;
        if (!verifyModule(*Clone, Errors)) {
          Failures[T] = "round " + std::to_string(Round) + ": verify failed";
          return;
        }
      }
    });
  for (std::thread &Th : Pool)
    Th.join();
  for (unsigned T = 0; T < Threads; ++T)
    EXPECT_TRUE(Failures[T].empty()) << "thread " << T << ": " << Failures[T];
}

TEST(ArenaTest, ModuleTeardownIsSafeAfterHeavyChurn) {
  // Generate a realistic module, optimize nothing, just destroy it: the
  // single-free teardown path must handle interleaved functions, globals,
  // and bodies of very different sizes. (ASan would flag any double-free
  // or use-after-free here.)
  Context Ctx;
  BenchmarkProfile P = getProfile("sqlite");
  P.FunctionCount = 12;
  auto M = generateBenchmark(Ctx, P);
  size_t Dropped = 0;
  for (Function *F : M->definedFunctions()) {
    if (++Dropped % 2 == 0)
      F->dropBody(); // half the bodies die early, half at module teardown
  }
  M.reset();
  SUCCEED();
}
