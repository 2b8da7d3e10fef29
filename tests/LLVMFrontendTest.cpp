//===- LLVMFrontendTest.cpp - .ll-subset importer + ModuleLoader tests ----===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
//
// Covers the `.ll` ingest frontend and the unified ModuleLoader API:
//   - accepted-subset round-trips (import -> print -> reparse -> verify)
//   - every named reject-reason class
//   - per-function isolation (one bad function never sinks the module)
//   - spec grammar / format sniffing of ModuleLoader
//   - the frozen fixture pair end to end through the ValidationEngine,
//     with unsupported accounting present in the JSON report
//
//===----------------------------------------------------------------------===//

#include "driver/ModuleLoader.h"
#include "driver/ValidationEngine.h"
#include "frontend/llvm/LLFrontend.h"
#include "ir/Context.h"
#include "ir/Module.h"
#include "ir/Printer.h"
#include "opt/Pass.h"
#include "support/Trace.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <thread>

using namespace llvmmd;
using testutil::expectVerified;

namespace {

std::string fixturePath(const char *Name) {
  return std::string(LLVMMD_SOURCE_DIR) + "/tests/fixtures/llvm/" + Name;
}

std::string readFileOrDie(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Imports, expecting module-level success and zero per-function rejects.
std::unique_ptr<Module> importOrDie(Context &Ctx, const std::string &Text) {
  LLImportResult R = importLLModule(Ctx, Text);
  EXPECT_TRUE(static_cast<bool>(R)) << "import error: " << R.Error;
  for (const LLFunctionReject &Rej : R.Rejected)
    ADD_FAILURE() << "unexpected reject: " << Rej.Function << ": "
                  << Rej.Reason << " (" << Rej.Detail << ")";
  return std::move(R.M);
}

/// Full round-trip: import the .ll text, verify, print to mini-IR syntax,
/// reparse with the native parser, verify again.
void roundTrip(const std::string &LL) {
  Context Ctx;
  std::unique_ptr<Module> M = importOrDie(Ctx, LL);
  ASSERT_TRUE(M);
  expectVerified(*M);
  std::string Printed = printModule(*M);
  Context Ctx2;
  std::unique_ptr<Module> M2 = testutil::parseOrDie(Ctx2, Printed);
  ASSERT_TRUE(M2);
  expectVerified(*M2);
  EXPECT_EQ(Printed, printModule(*M2));
}

/// Imports text expected to produce exactly one rejected function with the
/// given reason class; the rest of the module must still be intact.
LLFunctionReject expectSingleReject(const std::string &LL,
                                    const char *Reason) {
  Context Ctx;
  LLImportResult R = importLLModule(Ctx, LL);
  EXPECT_TRUE(static_cast<bool>(R)) << "module-level error: " << R.Error;
  EXPECT_EQ(R.Rejected.size(), 1u);
  if (R.Rejected.empty())
    return LLFunctionReject{};
  EXPECT_EQ(R.Rejected[0].Reason, Reason)
      << "detail: " << R.Rejected[0].Detail;
  // A function rejected for its *body* survives as a declaration; one
  // rejected for its *signature* cannot be represented at all (callers
  // reject with unsupported-callee instead).
  if (R.M) {
    if (Function *F = R.M->getFunction(R.Rejected[0].Function))
      EXPECT_TRUE(F->isDeclaration());
  }
  return R.Rejected[0];
}

//===----------------------------------------------------------------------===//
// Accepted subset round-trips
//===----------------------------------------------------------------------===//

TEST(LLVMFrontendTest, RoundTripIntArithmetic) {
  roundTrip(R"(
define i32 @arith(i32 %a, i32 %b) {
entry:
  %s = add nsw i32 %a, %b
  %d = sub i32 %s, 7
  %m = mul nuw i32 %d, %a
  %q = sdiv i32 %m, %b
  %r = srem i32 %q, 13
  %sh = shl i32 %r, 2
  %lr = lshr exact i32 %sh, 1
  %ar = ashr i32 %lr, 1
  %an = and i32 %ar, 255
  %o = or i32 %an, 16
  %x = xor i32 %o, %a
  ret i32 %x
}
)");
}

TEST(LLVMFrontendTest, RoundTripFloatOpsAndCasts) {
  roundTrip(R"(
define double @f(double %x, double %y, i32 %n) {
entry:
  %a = fadd double %x, %y
  %s = fsub double %a, 1.5
  %m = fmul fast double %s, %x
  %d = fdiv double %m, %y
  %neg = fneg double %d
  %w = sext i32 %n to i64
  %t = trunc i64 %w to i8
  %z = zext i8 %t to i32
  %c = icmp sgt i32 %z, 0
  %sel = select i1 %c, double %neg, double %y
  ret double %sel
}
)");
}

TEST(LLVMFrontendTest, RoundTripControlFlowPhiAndCmp) {
  roundTrip(R"(
define i32 @max(i32 %a, i32 %b) {
entry:
  %c = icmp sgt i32 %a, %b
  br i1 %c, label %left, label %right
left:
  br label %join
right:
  br label %join
join:
  %r = phi i32 [ %a, %left ], [ %b, %right ]
  ret i32 %r
}
)");
}

TEST(LLVMFrontendTest, RoundTripMemoryGlobalsAndGEP) {
  roundTrip(R"(
@counter = global i32 41, align 4
@table = global [4 x i32] [i32 10, i32 20, i32 30, i32 40]

define i32 @mem(i64 %i) {
entry:
  %p = alloca i32, align 4
  store i32 5, ptr %p
  %v = load i32, ptr %p, align 4
  %g = load i32, ptr @counter
  %slot = getelementptr inbounds [4 x i32], ptr @table, i64 0, i64 %i
  %tv = load i32, ptr %slot
  %s = add i32 %v, %g
  %t = add i32 %s, %tv
  ret i32 %t
}
)");
}

TEST(LLVMFrontendTest, RoundTripCallToKnownDeclaration) {
  roundTrip(R"(
declare i64 @strlen(ptr noundef)

define i64 @len2(ptr %a, ptr %b) {
entry:
  %la = call i64 @strlen(ptr noundef %a)
  %lb = tail call i64 @strlen(ptr %b)
  %s = add i64 %la, %lb
  ret i64 %s
}
)");
}

TEST(LLVMFrontendTest, SwitchLowersToBranchChain) {
  Context Ctx;
  std::unique_ptr<Module> M = importOrDie(Ctx, R"(
define i32 @classify(i32 %c) {
entry:
  switch i32 %c, label %dflt [
    i32 0, label %a
    i32 1, label %b
  ]
a:
  br label %out
b:
  br label %out
dflt:
  br label %out
out:
  %r = phi i32 [ 10, %a ], [ 20, %b ], [ -1, %dflt ]
  ret i32 %r
}
)");
  ASSERT_TRUE(M);
  expectVerified(*M);
  // The printed module must contain no `switch` — only br/condbr.
  std::string Printed = printModule(*M);
  EXPECT_EQ(Printed.find("switch"), std::string::npos);
  Context Ctx2;
  std::unique_ptr<Module> M2 = testutil::parseOrDie(Ctx2, Printed);
  expectVerified(*M2);
}

TEST(LLVMFrontendTest, ForwardReferencesResolve) {
  // %v is used in a phi before its textual definition.
  roundTrip(R"(
define i32 @fwd(i32 %n) {
entry:
  br label %loop
loop:
  %i = phi i32 [ 0, %entry ], [ %next, %loop ]
  %next = add i32 %i, 1
  %done = icmp sge i32 %next, %n
  br i1 %done, label %out, label %loop
out:
  ret i32 %i
}
)");
}

TEST(LLVMFrontendTest, RealWorldNoiseIsTolerated) {
  Context Ctx;
  std::unique_ptr<Module> M = importOrDie(Ctx, R"(
; ModuleID = 'noise.c'
source_filename = "noise.c"
target datalayout = "e-m:e-i64:64-f80:128-n8:16:32:64-S128"
target triple = "x86_64-unknown-linux-gnu"

@g = dso_local local_unnamed_addr global i32 0, align 4

; Function Attrs: nounwind uwtable
define dso_local i32 @noisy(i32 noundef %a) local_unnamed_addr #0 {
entry:
  %v = load i32, ptr @g, align 4, !tbaa !5
  %s = add nsw i32 %v, %a
  ret i32 %s
}

attributes #0 = { nounwind uwtable "target-cpu"="x86-64" }

!llvm.module.flags = !{!0}
!0 = !{i32 1, !"wchar_size", i32 4}
!5 = !{!6, !6, i64 0}
!6 = !{!"int", !7, i64 0}
!7 = !{!"omnipotent char", !8, i64 0}
!8 = !{!"Simple C/C++ TBAA"}
)");
  ASSERT_TRUE(M);
  expectVerified(*M);
  Function *F = M->getFunction("noisy");
  ASSERT_NE(F, nullptr);
  EXPECT_FALSE(F->isDeclaration());
}

//===----------------------------------------------------------------------===//
// Reject-reason classes — one test per class
//===----------------------------------------------------------------------===//

TEST(LLVMFrontendTest, RejectVectorType) {
  expectSingleReject(R"(
define <4 x i32> @v(<4 x i32> %a) {
entry:
  ret <4 x i32> %a
}
)",
                     llreject::VectorType);
}

TEST(LLVMFrontendTest, RejectAggregateType) {
  expectSingleReject(R"(
define i32 @s({ i32, i32 } %p) {
entry:
  ret i32 0
}
)",
                     llreject::AggregateType);
}

TEST(LLVMFrontendTest, RejectUnsupportedType) {
  LLFunctionReject R = expectSingleReject(R"(
define half @h(half %x) {
entry:
  ret half %x
}
)",
                                          llreject::UnsupportedType);
  EXPECT_NE(R.Detail.find("half"), std::string::npos);
}

TEST(LLVMFrontendTest, RejectUnsupportedInstruction) {
  LLFunctionReject R = expectSingleReject(R"(
define i32 @c(double %x) {
entry:
  %v = fptosi double %x to i32
  ret i32 %v
}
)",
                                          llreject::UnsupportedInstruction);
  EXPECT_NE(R.Detail.find("fptosi"), std::string::npos);
}

TEST(LLVMFrontendTest, RejectUnsupportedPredicate) {
  // Unordered fcmp predicates are outside the subset.
  expectSingleReject(R"(
define i1 @u(double %a, double %b) {
entry:
  %c = fcmp uno double %a, %b
  ret i1 %c
}
)",
                     llreject::UnsupportedPredicate);
}

TEST(LLVMFrontendTest, RejectMultiIndexGEP) {
  expectSingleReject(R"(
define ptr @g(ptr %p, i64 %i, i64 %j) {
entry:
  %q = getelementptr i32, ptr %p, i64 %i, i64 %j
  ret ptr %q
}
)",
                     llreject::MultiIndexGEP);
}

TEST(LLVMFrontendTest, RejectIndirectCall) {
  expectSingleReject(R"(
define i32 @ind(ptr %fp) {
entry:
  %r = call i32 %fp(i32 1)
  ret i32 %r
}
)",
                     llreject::IndirectCall);
}

TEST(LLVMFrontendTest, RejectVarargsCall) {
  expectSingleReject(R"(
declare i32 @printf(ptr, ...)

define void @p(ptr %fmt) {
entry:
  %r = call i32 (ptr, ...) @printf(ptr %fmt)
  ret void
}
)",
                     llreject::VarargsCall);
}

TEST(LLVMFrontendTest, RejectUnsupportedCallee) {
  LLFunctionReject R = expectSingleReject(R"(
define i32 @caller(i32 %x) {
entry:
  %r = call i32 @no_such_fn(i32 %x)
  ret i32 %r
}
)",
                                          llreject::UnsupportedCallee);
  EXPECT_NE(R.Detail.find("no_such_fn"), std::string::npos);
}

TEST(LLVMFrontendTest, RejectUnsupportedConstant) {
  // A constant expression operand is outside the subset.
  expectSingleReject(R"(
@g = global [4 x i32] zeroinitializer

define i32 @ce() {
entry:
  %v = load i32, ptr getelementptr inbounds ([4 x i32], ptr @g, i64 0, i64 2)
  ret i32 %v
}
)",
                     llreject::UnsupportedConstant);
}

TEST(LLVMFrontendTest, RejectSyntaxErrorPerFunction) {
  // Garbage inside one function body rejects that function, not the module.
  expectSingleReject(R"(
define i32 @bad(i32 %a) {
entry:
  %v = frobnicate i32 %a
  ret i32 %v
}
)",
                     llreject::SyntaxError);
}

TEST(LLVMFrontendTest, ModuleLevelErrorHasLineInfo) {
  Context Ctx;
  LLImportResult R = importLLModule(Ctx, "define i32 @f(\n@@@garbage@@@\n");
  EXPECT_FALSE(static_cast<bool>(R));
  EXPECT_FALSE(R.Error.empty());
  EXPECT_GT(R.ErrorLine, 0u);
}

//===----------------------------------------------------------------------===//
// Per-function isolation
//===----------------------------------------------------------------------===//

TEST(LLVMFrontendTest, OneBadFunctionDoesNotSinkTheModule) {
  Context Ctx;
  LLImportResult R = importLLModule(Ctx, R"(
define i32 @good1(i32 %a) {
entry:
  %v = add i32 %a, 1
  ret i32 %v
}

define i32 @bad(double %x) {
entry:
  %v = fptosi double %x to i32
  ret i32 %v
}

define i32 @good2(i32 %a) {
entry:
  %v = mul i32 %a, 3
  ret i32 %v
}
)");
  ASSERT_TRUE(static_cast<bool>(R)) << R.Error;
  ASSERT_EQ(R.Rejected.size(), 1u);
  EXPECT_EQ(R.Rejected[0].Function, "bad");
  EXPECT_EQ(R.Rejected[0].Reason, llreject::UnsupportedInstruction);

  Function *G1 = R.M->getFunction("good1");
  Function *G2 = R.M->getFunction("good2");
  Function *B = R.M->getFunction("bad");
  ASSERT_TRUE(G1 && G2 && B);
  EXPECT_FALSE(G1->isDeclaration());
  EXPECT_FALSE(G2->isDeclaration());
  EXPECT_TRUE(B->isDeclaration());
  expectVerified(*R.M);

  // And the engine produces verdicts for exactly the two good functions.
  EngineConfig Cfg;
  Cfg.Threads = 1;
  ValidationEngine Engine(Cfg);
  EngineRun Run = Engine.run(*R.M, getPaperPipeline());
  EXPECT_EQ(Run.Report.total(), 2u);
}

TEST(LLVMFrontendTest, CallToRejectedFunctionStaysWellFormed) {
  // A rejected function survives as a declaration precisely so that later
  // callers still import: its rejection is isolated, not contagious.
  Context Ctx;
  LLImportResult R = importLLModule(Ctx, R"(
define i32 @bad(double %x) {
entry:
  %v = fptosi double %x to i32
  ret i32 %v
}

define i32 @caller(double %x) {
entry:
  %v = call i32 @bad(double %x)
  ret i32 %v
}
)");
  ASSERT_TRUE(static_cast<bool>(R)) << R.Error;
  ASSERT_EQ(R.Rejected.size(), 1u);
  EXPECT_EQ(R.Rejected[0].Function, "bad");
  Function *Caller = R.M->getFunction("caller");
  ASSERT_NE(Caller, nullptr);
  EXPECT_FALSE(Caller->isDeclaration());
  expectVerified(*R.M);
}

//===----------------------------------------------------------------------===//
// Format sniffing + ModuleLoader spec grammar
//===----------------------------------------------------------------------===//

TEST(LLVMFrontendTest, FormatSniffing) {
  // Sniffing keys on noise real clang/opt output always carries and the
  // mini-IR printer never emits — not on the (shared) instruction syntax.
  EXPECT_EQ(detectModuleFormat("target triple = \"x86_64\"\n"),
            ModuleFormat::LLVMIR);
  EXPECT_EQ(detectModuleFormat("define dso_local i32 @f(i32 noundef %a) "
                               "{\nentry:\n  ret i32 %a\n}\n"),
            ModuleFormat::LLVMIR);
  EXPECT_EQ(
      detectModuleFormat("  %v = load i32, ptr @g, align 4\n"),
      ModuleFormat::LLVMIR);
  // Marker-free define syntax is the shared subset: treated as mini-IR.
  EXPECT_EQ(detectModuleFormat(
                "define i32 @f(i32 %a) {\nentry:\n  ret i32 %a\n}\n"),
            ModuleFormat::MiniIR);
  // What the mini printer emits must always sniff as mini.
  Context Ctx;
  std::unique_ptr<Module> M = testutil::parseOrDie(Ctx, R"(
define i32 @f(i32 %a) {
entry:
  %v = add i32 %a, 1
  ret i32 %v
}
)");
  std::string Mini = printModule(*M);
  EXPECT_EQ(detectModuleFormat(Mini), ModuleFormat::MiniIR);
  EXPECT_FALSE(looksLikeLLVMIR(Mini));
  // Both fixtures sniff as real LLVM IR.
  EXPECT_TRUE(looksLikeLLVMIR(readFileOrDie(fixturePath("kernels_O0.ll"))));
  EXPECT_TRUE(looksLikeLLVMIR(readFileOrDie(fixturePath("kernels_opt.ll"))));
}

TEST(LLVMFrontendTest, SpecGrammarParsing) {
  ModuleSpec S1 = parseModuleSpec("tests/x.ll");
  EXPECT_EQ(S1.From, ModuleSpec::Source::File);
  EXPECT_EQ(S1.Value, "tests/x.ll");

  ModuleSpec S2 = parseModuleSpec("-");
  EXPECT_EQ(S2.From, ModuleSpec::Source::Stdin);

  ModuleSpec S3 = parseModuleSpec("profile:gcc");
  EXPECT_EQ(S3.From, ModuleSpec::Source::Profile);
  EXPECT_EQ(S3.Value, "gcc");
}

TEST(LLVMFrontendTest, LoaderAutoDetectsBothFormats) {
  Context Ctx;
  ModuleSpec LL;
  LL.From = ModuleSpec::Source::Inline;
  LL.Value = "define dso_local i32 @f(i32 noundef %a) {\nentry:\n  %v = add "
             "nsw i32 %a, 1\n  ret i32 %v\n}\n";
  LoadResult R1 = loadModule(Ctx, LL);
  ASSERT_TRUE(static_cast<bool>(R1)) << R1.Error;
  ASSERT_EQ(R1.Modules.size(), 1u);
  EXPECT_EQ(R1.Modules[0].Format, ModuleFormat::LLVMIR);

  ModuleSpec Mini;
  Mini.From = ModuleSpec::Source::Inline;
  Mini.Value = "define i32 @g(i32 %a) {\nentry:\n  %v = add i32 %a, 1\n  "
               "ret i32 %v\n}\n";
  LoadResult R2 = loadModule(Ctx, Mini);
  ASSERT_TRUE(static_cast<bool>(R2)) << R2.Error;
  EXPECT_EQ(R2.Modules[0].Format, ModuleFormat::MiniIR);

  ModuleSpec Prof = parseModuleSpec("profile:gcc");
  Prof.ProfileFnCount = 4;
  LoadResult R3 = loadModule(Ctx, Prof);
  ASSERT_TRUE(static_cast<bool>(R3)) << R3.Error;
  EXPECT_EQ(R3.Modules[0].Format, ModuleFormat::MiniIR);
  EXPECT_TRUE(R3.Modules[0].Unsupported.empty());
}

TEST(LLVMFrontendTest, LoaderErrorsCarryLineDiagnostics) {
  Context Ctx;
  ModuleSpec Bad;
  Bad.From = ModuleSpec::Source::Inline;
  Bad.Value = "target triple = \"x\"\ndefine i32 @f(\n@@@\n";
  Bad.Name = "bad.ll";
  LoadResult R = loadModule(Ctx, Bad);
  EXPECT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.Error.find("bad.ll"), std::string::npos);
  EXPECT_NE(R.Error.find("line"), std::string::npos);
  EXPECT_GT(R.ErrorLine, 0u);

  LoadResult R2 = loadModule(Ctx, parseModuleSpec("profile:nonexistent"));
  EXPECT_FALSE(static_cast<bool>(R2));

  LoadResult R3 =
      loadModule(Ctx, parseModuleSpec("/no/such/dir/missing.ll"));
  EXPECT_FALSE(static_cast<bool>(R3));
  EXPECT_NE(R3.Error.find("missing.ll"), std::string::npos);
}

TEST(LLVMFrontendTest, LoaderStopsAtFirstError) {
  Context Ctx;
  std::vector<ModuleSpec> Specs;
  ModuleSpec Good;
  Good.From = ModuleSpec::Source::Inline;
  Good.Value = "define i32 @ok() {\nentry:\n  ret i32 1\n}\n";
  Specs.push_back(Good);
  Specs.push_back(parseModuleSpec("profile:nonexistent"));
  Specs.push_back(Good);
  LoadResult R = loadModules(Ctx, Specs);
  EXPECT_FALSE(static_cast<bool>(R));
  EXPECT_EQ(R.Modules.size(), 1u);
}

namespace {

ModuleSpec inlineSpec(std::string Text, std::string Name = "") {
  ModuleSpec S;
  S.From = ModuleSpec::Source::Inline;
  S.Value = std::move(Text);
  S.Name = std::move(Name);
  return S;
}

/// Thread ids of the trace's complete events named \p Name.
std::vector<std::string> traceTids(const std::string &Json,
                                   const std::string &Name) {
  std::vector<std::string> Tids;
  const std::string Key = "{\"name\": \"" + Name + "\"";
  for (size_t Pos = Json.find(Key); Pos != std::string::npos;
       Pos = Json.find(Key, Pos + 1)) {
    size_t T = Json.find("\"tid\": ", Pos) + 7;
    Tids.push_back(Json.substr(T, Json.find_first_of(",}", T) - T));
  }
  return Tids;
}

} // namespace

TEST(LLVMFrontendTest, LoaderKeepsSpecOrderAcrossConcurrentParses) {
  // Mixed sources and sizes, so the largest-first schedule parses them in
  // a different order than they were given.
  ModuleSpec Gcc = parseModuleSpec("profile:gcc");
  Gcc.ProfileFnCount = 6;
  std::vector<ModuleSpec> Specs = {
      inlineSpec("define i32 @one() {\nentry:\n  ret i32 1\n}\n", "one"),
      parseModuleSpec(fixturePath("kernels_O0.ll")),
      Gcc,
      inlineSpec(readFileOrDie(fixturePath("kernels_opt.ll")), "opt.ll"),
      parseModuleSpec("profile:mcf"),
      inlineSpec("define i32 @two(i32 %a) {\nentry:\n  %b = add i32 %a, 2\n"
                 "  ret i32 %b\n}\n"),
  };
  Context Ctx;
  LoadResult All = loadModules(Ctx, Specs);
  ASSERT_TRUE(static_cast<bool>(All)) << All.Error;
  ASSERT_EQ(All.Modules.size(), Specs.size());
  for (size_t K = 0; K < Specs.size(); ++K) {
    LoadResult One = loadModule(Ctx, Specs[K]);
    ASSERT_TRUE(static_cast<bool>(One)) << One.Error;
    const LoadedModule &A = All.Modules[K], &B = One.Modules.front();
    EXPECT_EQ(A.Name, B.Name) << "spec " << K;
    EXPECT_EQ(A.Format, B.Format) << "spec " << K;
    EXPECT_EQ(A.Unsupported.size(), B.Unsupported.size()) << "spec " << K;
    EXPECT_EQ(printModule(*A.M), printModule(*B.M)) << "spec " << K;
  }
}

TEST(LLVMFrontendTest, LoaderReportsTheFirstFailingSpecInSpecOrder) {
  Context Ctx;
  // A large valid spec, then an unreadable file, then an unknown profile:
  // reading stops at the file, and only the spec before it is loaded.
  LoadResult R = loadModules(Ctx, {parseModuleSpec("profile:perlbench"),
                                   parseModuleSpec("/no/such/dir/missing.ll"),
                                   parseModuleSpec("profile:nonexistent")});
  EXPECT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.Error.find("missing.ll"), std::string::npos) << R.Error;
  EXPECT_EQ(R.Modules.size(), 1u);

  // Two parse errors: the large bad spec is scheduled first, but the small
  // bad spec comes first in spec order and is the one reported.
  std::string Big = readFileOrDie(fixturePath("kernels_opt.ll"));
  LoadResult P = loadModules(
      Ctx, {inlineSpec("define i32 @ok() {\nentry:\n  ret i32 1\n}\n", "ok"),
            inlineSpec("define i32 @f() {\nentry:\n  bogus\n}\n", "small"),
            inlineSpec(Big + "\n@@@\n", "big.ll")});
  EXPECT_FALSE(static_cast<bool>(P));
  EXPECT_EQ(P.Error, "small: line 3: unknown opcode 'bogus'");
  EXPECT_EQ(P.ErrorLine, 3u);
  EXPECT_EQ(P.Modules.size(), 1u);
}

TEST(LLVMFrontendTest, LoaderParsesOneSpecInline) {
  struct TraceGuard {
    TraceGuard() { traceEnable(); }
    ~TraceGuard() { traceDisable(); }
  } Guard;
  { TraceSpan Marker("loader_test_marker", "test"); }
  Context Ctx;
  ASSERT_TRUE(static_cast<bool>(loadModule(
      Ctx, inlineSpec("define i32 @one() {\nentry:\n  ret i32 1\n}\n"))));
  std::string Json = traceToJSON();
  std::vector<std::string> Caller = traceTids(Json, "loader_test_marker");
  std::vector<std::string> Loads = traceTids(Json, "load_module");
  ASSERT_EQ(Caller.size(), 1u);
  ASSERT_EQ(Loads.size(), 1u);
  EXPECT_EQ(Loads[0], Caller[0]) << "a single spec must not start a pool";

  // Several specs go to the pool's workers whenever there is more than one
  // hardware thread.
  traceEnable();
  { TraceSpan Marker("loader_test_marker", "test"); }
  ModuleSpec Small = parseModuleSpec("profile:mcf");
  Small.ProfileFnCount = 2;
  ASSERT_TRUE(static_cast<bool>(loadModules(Ctx, {Small, Small, Small})));
  Json = traceToJSON();
  Caller = traceTids(Json, "loader_test_marker");
  Loads = traceTids(Json, "load_module");
  ASSERT_EQ(Loads.size(), 3u);
  if (std::thread::hardware_concurrency() > 1)
    for (const std::string &Tid : Loads)
      EXPECT_NE(Tid, Caller[0]);
}

//===----------------------------------------------------------------------===//
// Frozen fixture pair end to end
//===----------------------------------------------------------------------===//

TEST(LLVMFrontendTest, FixturePairValidatesEndToEnd) {
  Context Ctx;
  std::vector<ModuleSpec> Specs = {
      parseModuleSpec(fixturePath("kernels_O0.ll")),
      parseModuleSpec(fixturePath("kernels_opt.ll")),
  };
  LoadResult Loaded = loadModules(Ctx, Specs);
  ASSERT_TRUE(static_cast<bool>(Loaded)) << Loaded.Error;
  ASSERT_EQ(Loaded.Modules.size(), 2u);

  // Both fixtures carry exactly one function outside the subset: to_int.
  for (const LoadedModule &LM : Loaded.Modules) {
    EXPECT_EQ(LM.Format, ModuleFormat::LLVMIR);
    ASSERT_EQ(LM.Unsupported.size(), 1u);
    EXPECT_EQ(LM.Unsupported[0].Function, "to_int");
    EXPECT_EQ(LM.Unsupported[0].Reason, llreject::UnsupportedInstruction);
    expectVerified(*LM.M);
  }

  EngineConfig Cfg;
  Cfg.Threads = 1;
  ValidationEngine Engine(Cfg);
  std::vector<const Module *> Ptrs;
  for (const LoadedModule &LM : Loaded.Modules)
    Ptrs.push_back(LM.M.get());
  SuiteRun Run = Engine.runSuite(Ptrs, getPaperPipeline());
  ASSERT_EQ(Run.Report.Modules.size(), 2u);
  for (size_t I = 0; I < Run.Report.Modules.size(); ++I)
    attachUnsupported(Run.Report.Modules[I], Loaded.Modules[I]);

  // Every transformed pair must validate; nothing reverts.
  EXPECT_EQ(Run.Report.validated(), Run.Report.transformed());
  EXPECT_GT(Run.Report.transformed(), 0u);
  EXPECT_EQ(Run.Report.reverted(), 0u);
  // Six importable functions per module.
  for (const ValidationReport &MR : Run.Report.Modules)
    EXPECT_EQ(MR.total(), 6u);

  // Unsupported accounting lands in all three emitters.
  EXPECT_EQ(Run.Report.unsupportedFunctions(), 2u);
  std::string JSON = suiteToJSON(Run.Report);
  EXPECT_NE(JSON.find("\"unsupported_functions\": 1"), std::string::npos);
  EXPECT_NE(JSON.find("\"unsupported_functions\": 2"), std::string::npos);
  EXPECT_NE(JSON.find("\"reason\": \"unsupported-instruction\""),
            std::string::npos);
  std::string Text = suiteToText(Run.Report);
  EXPECT_NE(Text.find("2 function(s) rejected by the ingest frontend"),
            std::string::npos);
  std::string CSV = suiteToCSV(Run.Report);
  EXPECT_NE(CSV.find("unsupported_reason"), std::string::npos);
  EXPECT_NE(CSV.find("unsupported-instruction"), std::string::npos);
}

TEST(LLVMFrontendTest, FixtureRoundTripsThroughPrinter) {
  // The O0 fixture (minus its known to_int reject) must survive
  // import -> print -> native reparse -> verify.
  Context Ctx;
  LLImportResult R =
      importLLModule(Ctx, readFileOrDie(fixturePath("kernels_O0.ll")));
  ASSERT_TRUE(static_cast<bool>(R)) << R.Error;
  ASSERT_EQ(R.Rejected.size(), 1u);
  EXPECT_EQ(R.Rejected[0].Function, "to_int");
  expectVerified(*R.M);
  std::string Printed = printModule(*R.M);
  Context Ctx2;
  std::unique_ptr<Module> M2 = testutil::parseOrDie(Ctx2, Printed);
  expectVerified(*M2);
  EXPECT_EQ(Printed, printModule(*M2));
}

} // namespace
