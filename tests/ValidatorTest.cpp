//===- ValidatorTest.cpp - End-to-end validator tests on paper examples --------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "ir/Cloning.h"
#include "opt/BugInjector.h"
#include "opt/Pass.h"
#include "validator/LLVMMD.h"
#include "validator/Validator.h"

#include <gtest/gtest.h>

using namespace llvmmd;
using namespace llvmmd::testutil;

namespace {

struct PairFixture : ::testing::Test {
  Context Ctx;
  std::vector<std::unique_ptr<Module>> Keep;

  ValidationResult
  validate(const char *A, const char *B, unsigned Mask = RS_Paper,
           unsigned MaxIterations = RuleConfig().MaxIterations) {
    auto MA = parseOrDie(Ctx, A);
    auto MB = parseOrDie(Ctx, B);
    RuleConfig C;
    C.Mask = Mask;
    C.MaxIterations = MaxIterations;
    C.M = MA.get();
    ValidationResult R = validatePair(*MA->definedFunctions().front(),
                                      *MB->definedFunctions().front(), C);
    Keep.push_back(std::move(MA));
    Keep.push_back(std::move(MB));
    return R;
  }
};

} // namespace

TEST_F(PairFixture, PaperSection31BasicBlocks) {
  // B1: x1=3+3; x2=a*x1; x3=x2+x2  vs  B2: y1=a*6; y2=y1<<1.
  auto R = validate(R"(
define i32 @f(i32 %a) {
entry:
  %x1 = add i32 3, 3
  %x2 = mul i32 %a, %x1
  %x3 = add i32 %x2, %x2
  ret i32 %x3
}
)",
                    R"(
define i32 @f(i32 %a) {
entry:
  %y1 = mul i32 %a, 6
  %y2 = shl i32 %y1, 1
  ret i32 %y2
}
)");
  EXPECT_TRUE(R.Validated);
  EXPECT_FALSE(R.EqualOnConstruction);
  EXPECT_GE(R.Rewrites, 2u); // constant fold + add-self
}

TEST_F(PairFixture, IdenticalPairIsO1) {
  const char *Src = R"(
define i32 @f(i32 %a, i32 %b) {
entry:
  %x = add i32 %a, %b
  %y = mul i32 %x, %x
  ret i32 %y
}
)";
  auto R = validate(Src, Src);
  EXPECT_TRUE(R.Validated);
  EXPECT_TRUE(R.EqualOnConstruction) << "best case must need no rewriting";
  EXPECT_EQ(R.Rewrites, 0u);
}

TEST_F(PairFixture, BudgetCutoffIsReportedAsSuch) {
  // x + 0 folds to x in the first sweep; only the sharing round after it
  // makes the two products one node, so b - c cancels in the second sweep.
  const char *Orig = R"(
define i32 @f(i32 %x, i32 %y) {
entry:
  %a = add i32 %x, 0
  %b = mul i32 %a, %y
  %c = mul i32 %x, %y
  %d = sub i32 %b, %c
  ret i32 %d
}
)";
  const char *Zero = R"(
define i32 @f(i32 %x, i32 %y) {
entry:
  ret i32 0
}
)";
  auto R = validate(Orig, Zero);
  EXPECT_TRUE(R.Validated) << R.Reason;
  EXPECT_EQ(R.Iterations, 2u) << "Iterations counts sweeps";

  auto Cut = validate(Orig, Zero, RS_Paper, /*MaxIterations=*/1);
  EXPECT_FALSE(Cut.Validated);
  EXPECT_EQ(Cut.Reason, "iteration budget exhausted");
  EXPECT_EQ(Cut.Iterations, 1u);

  // A genuine mismatch reaches a fixpoint well inside the budget.
  auto Wrong = validate(Orig, R"(
define i32 @f(i32 %x, i32 %y) {
entry:
  ret i32 1
}
)");
  EXPECT_FALSE(Wrong.Validated);
  EXPECT_EQ(Wrong.Reason, "graphs did not merge");
  EXPECT_LT(Wrong.Iterations, RuleConfig().MaxIterations);
}

TEST_F(PairFixture, PaperSection4GvnSccpExample) {
  // if (c) {a=1;b=1;d=a;} else {a=2;b=2;d=1;} if (a==b) x=d else x=0;
  // return x  ==>  return 1.
  auto R = validate(R"(
define i32 @f(i1 %c) {
entry:
  br i1 %c, label %t, label %e
t:
  br label %mid
e:
  br label %mid
mid:
  %a = phi i32 [ 1, %t ], [ 2, %e ]
  %b = phi i32 [ 1, %t ], [ 2, %e ]
  %d = phi i32 [ 1, %t ], [ 1, %e ]
  %cc = icmp eq i32 %a, %b
  br i1 %cc, label %t2, label %e2
t2:
  br label %done
e2:
  br label %done
done:
  %x = phi i32 [ %d, %t2 ], [ 0, %e2 ]
  ret i32 %x
}
)",
                    R"(
define i32 @f(i1 %c) {
entry:
  ret i32 1
}
)");
  EXPECT_TRUE(R.Validated);
}

TEST_F(PairFixture, PaperSection4LicmLoopDeletionExample) {
  // x=a+3; c=3; for(i=0;i<n;i++){x=a+c;} return x ==> return a+3.
  auto R = validate(R"(
define i32 @f(i32 %a, i32 %n) {
entry:
  %x0 = add i32 %a, 3
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %i2, %b ]
  %x = phi i32 [ %x0, %entry ], [ %x2, %b ]
  %cmp = icmp slt i32 %i, %n
  br i1 %cmp, label %b, label %out
b:
  %x2 = add i32 %a, 3
  %i2 = add i32 %i, 1
  br label %h
out:
  ret i32 %x
}
)",
                    R"(
define i32 @f(i32 %a, i32 %n) {
entry:
  %x = add i32 %a, 3
  ret i32 %x
}
)");
  EXPECT_TRUE(R.Validated) << R.Reason;
}

TEST_F(PairFixture, PaperSection42ExtendedExample) {
  // The paper's headline example: loops, aliasing, gated φs — the function
  // reduces to m << 1 (returns m+m).
  auto R = validate(R"(
define i32 @f(i32 %n, i32 %m) {
entry:
  %t1 = alloca i32
  %t2 = alloca i32
  store i32 1, ptr %t1
  store i32 %m, ptr %t2
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %i2, %latch ]
  %x = phi i32 [ 0, %entry ], [ %x2, %latch ]
  %y = phi i32 [ 0, %entry ], [ %y2, %latch ]
  %t = phi ptr [ %t1, %entry ], [ %t3, %latch ]
  %cmp = icmp slt i32 %i, %n
  br i1 %cmp, label %body, label %out
body:
  %mod = srem i32 %i, 3
  %odd = icmp ne i32 %mod, 0
  br i1 %odd, label %bt, label %be
bt:
  br label %bj
be:
  br label %bj
bj:
  %x2 = phi i32 [ 1, %bt ], [ 2, %be ]
  %y2 = phi i32 [ 1, %bt ], [ 2, %be ]
  %eq = icmp eq i32 %x2, %y2
  br i1 %eq, label %st, label %se
st:
  br label %latch
se:
  br label %latch
latch:
  %t3 = phi ptr [ %t1, %st ], [ %t2, %se ]
  %i2 = add i32 %i, 1
  br label %h
out:
  store i32 42, ptr %t
  %v = load i32, ptr %t2
  %r = add i32 %v, %v
  ret i32 %r
}
)",
                    R"(
define i32 @f(i32 %n, i32 %m) {
entry:
  %r = shl i32 %m, 1
  ret i32 %r
}
)");
  EXPECT_TRUE(R.Validated) << R.Reason;
}

TEST_F(PairFixture, RejectsWrongConstant) {
  auto R = validate(R"(
define i32 @f(i32 %a) {
entry:
  %x = add i32 %a, 1
  ret i32 %x
}
)",
                    R"(
define i32 @f(i32 %a) {
entry:
  %x = add i32 %a, 2
  ret i32 %x
}
)");
  EXPECT_FALSE(R.Validated);
}

TEST_F(PairFixture, RejectsSwappedBranches) {
  auto R = validate(R"(
define i32 @f(i32 %a, i32 %b) {
entry:
  %c = icmp slt i32 %a, %b
  br i1 %c, label %t, label %e
t:
  br label %j
e:
  br label %j
j:
  %p = phi i32 [ 1, %t ], [ 2, %e ]
  ret i32 %p
}
)",
                    R"(
define i32 @f(i32 %a, i32 %b) {
entry:
  %c = icmp sge i32 %a, %b
  br i1 %c, label %t, label %e
t:
  br label %j
e:
  br label %j
j:
  %p = phi i32 [ 1, %t ], [ 2, %e ]
  ret i32 %p
}
)");
  EXPECT_FALSE(R.Validated)
      << "a >= b must not be confused with a < b (gated φ, §3.2)";
}

TEST_F(PairFixture, RejectsDroppedObservableStore) {
  auto R = validate(R"(
@g = global i32 0
define void @f(i32 %a) {
entry:
  store i32 %a, ptr @g
  ret void
}
)",
                    R"(
@g = global i32 0
define void @f(i32 %a) {
entry:
  ret void
}
)");
  EXPECT_FALSE(R.Validated) << "stores to globals are observable";
}

TEST_F(PairFixture, AcceptsDroppedLocalStore) {
  auto R = validate(R"(
define i32 @f(i32 %a) {
entry:
  %p = alloca i32
  store i32 %a, ptr %p
  ret i32 %a
}
)",
                    R"(
define i32 @f(i32 %a) {
entry:
  ret i32 %a
}
)");
  EXPECT_TRUE(R.Validated) << "dead local stores are unobservable";
}

TEST_F(PairFixture, ReadOnlyCallReorderingIsFree) {
  // §5.3's atoi example: readonly calls do not produce a new memory state
  // in the monadic encoding, so swapping them yields the same graph.
  auto R = validate(R"(
declare i32 @atoi(ptr) readonly
define i32 @f(ptr %p, ptr %q) {
entry:
  %x = call i32 @atoi(ptr %p)
  %y = call i32 @atoi(ptr %q)
  %s = sub i32 %x, %y
  ret i32 %s
}
)",
                    R"(
declare i32 @atoi(ptr) readonly
define i32 @f(ptr %p, ptr %q) {
entry:
  %y = call i32 @atoi(ptr %q)
  %x = call i32 @atoi(ptr %p)
  %s = sub i32 %x, %y
  ret i32 %s
}
)");
  EXPECT_TRUE(R.Validated);
  EXPECT_TRUE(R.EqualOnConstruction);
}

TEST_F(PairFixture, UnsupportedIrreducibleReported) {
  auto R = validate(R"(
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
)",
                    R"(
define void @f(i1 %c) {
entry:
  ret void
}
)");
  EXPECT_FALSE(R.Validated);
  EXPECT_TRUE(R.Unsupported);
}

//===----------------------------------------------------------------------===//
// The llvm-md driver
//===----------------------------------------------------------------------===//

TEST(LLVMMDDriver, RevertsUnvalidatedFunctions) {
  Context Ctx;
  auto M = parseOrDie(Ctx, R"(
define float @fp(i32 %a) {
entry:
  %x = fadd float 1.5, 2.5
  %y = fmul float %x, 2.0
  ret float %y
}
define i32 @ok(i32 %a) {
entry:
  %x = add i32 2, 3
  %y = add i32 %x, %a
  ret i32 %y
}
)");
  PassManager PM;
  ASSERT_TRUE(PM.parsePipeline("sccp"));
  RuleConfig C; // paper rules: no float folding
  LLVMMDReport Report;
  auto Out = runLLVMMD(*M, PM, C, Report);
  expectVerified(*Out);
  ASSERT_EQ(Report.Functions.size(), 2u);
  const FunctionReport *FP = nullptr, *OK = nullptr;
  for (const auto &FR : Report.Functions) {
    if (FR.Name == "fp")
      FP = &FR;
    if (FR.Name == "ok")
      OK = &FR;
  }
  ASSERT_NE(FP, nullptr);
  ASSERT_NE(OK, nullptr);
  EXPECT_TRUE(FP->Transformed);
  EXPECT_FALSE(FP->Validated);
  EXPECT_TRUE(FP->Reverted);
  EXPECT_TRUE(OK->Transformed);
  EXPECT_TRUE(OK->Validated);
  // The reverted function still contains the original float arithmetic.
  bool HasFAdd = false;
  for (const auto &BB : Out->getFunction("fp")->blocks())
    for (Instruction *I : *BB)
      HasFAdd |= I->getOpcode() == Opcode::FAdd;
  EXPECT_TRUE(HasFAdd);
  // The validated function is folded.
  EXPECT_LT(Out->getFunction("ok")->getInstructionCount(), 3u);
  EXPECT_DOUBLE_EQ(Report.validationRate(), 0.5);
}

//===----------------------------------------------------------------------===//
// Soundness property: injected miscompiles are always rejected
//===----------------------------------------------------------------------===//

class SoundnessSweep : public ::testing::TestWithParam<int> {};

TEST_P(SoundnessSweep, InjectedBugsNeverValidate) {
  Context Ctx;
  auto M = parseOrDie(Ctx, R"(
@g = global i32 5
define i32 @f(i32 %a, i32 %b) {
entry:
  %c = icmp slt i32 %a, %b
  br i1 %c, label %t, label %e
t:
  %x = add i32 %a, %b
  store i32 %x, ptr @g
  br label %j
e:
  %y = sub i32 %a, %b
  br label %j
j:
  %p = phi i32 [ %x, %t ], [ %y, %e ]
  %q = mul i32 %p, 3
  ret i32 %q
}
)");
  auto Mutant = cloneModule(*M);
  std::string Desc =
      injectBug(*Mutant->getFunction("f"), static_cast<uint64_t>(GetParam()));
  ASSERT_FALSE(Desc.empty());
  RuleConfig C;
  C.Mask = RS_All;
  C.M = M.get();
  auto R = validatePair(*M->getFunction("f"), *Mutant->getFunction("f"), C);
  EXPECT_FALSE(R.Validated) << "accepted a miscompile: " << Desc;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoundnessSweep, ::testing::Range(1, 40));
