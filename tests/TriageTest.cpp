//===- TriageTest.cpp - Alarm triage subsystem tests ---------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
// The triage contract, enforced:
//  * every BugInjector mutation family, injected into a function whose
//    sites of that family are all observable, earns a concrete interpreter
//    witness — over 120 seeds per family;
//  * validated pairs never get a witness (triage does not even run);
//  * runs that trap are skipped, never witnesses (inconclusive pairs);
//  * the reducer's output is minimal (no single removable cut remains),
//    still failing, and deterministic;
//  * rule-gap attribution names the checked missing rule family;
//  * triage reports are byte-identical across 1/2/8 engine threads.
//
//===----------------------------------------------------------------------===//

#include "driver/ValidationEngine.h"
#include "ir/Cloning.h"
#include "ir/Module.h"
#include "ir/Printer.h"
#include "opt/BugInjector.h"
#include "opt/Pass.h"
#include "triage/DifferentialTester.h"
#include "triage/Reducer.h"
#include "triage/RuleGapAttributor.h"
#include "triage/Triage.h"
#include "validator/Validator.h"
#include "workload/Generator.h"

#include "TestUtil.h"

using namespace llvmmd;
using testutil::parseOrDie;

namespace {

/// Triage options for the witness sweeps: corpus only, no reduction (the
/// reducer has its own tests).
TriageOptions witnessOnly() {
  TriageOptions O;
  O.Enabled = true;
  O.MaxInputs = 48;
  O.ReduceBudget = 0;
  return O;
}

TriageResult triageOf(const Module &MA, const Module &MB, const char *Fn,
                      const TriageOptions &Opts, unsigned Mask = RS_All) {
  RuleConfig Rules;
  Rules.Mask = Mask;
  Rules.M = &MA;
  TriagePair P{&MA, MA.getFunction(Fn), &MB, MB.getFunction(Fn)};
  return triagePair(P, Rules, Opts);
}

} // namespace

//===----------------------------------------------------------------------===//
// Witnesses for every mutation family
//===----------------------------------------------------------------------===//

// One crafted function per family: every injection site of that family is
// observable through the return value or a global, so a witness MUST be
// found for any seed.
struct FamilyCase {
  const char *Family;
  const char *Source;
};

const FamilyCase FamilyCases[] = {
    {"pred-flip", R"(
define i32 @f(i32 %a, i32 %b) {
entry:
  %c = icmp slt i32 %a, %b
  %z = zext i1 %c to i32
  ret i32 %z
}
)"},
    {"const-bump", R"(
define i32 @f(i32 %a) {
entry:
  %x = add i32 %a, 7
  ret i32 %x
}
)"},
    {"operand-swap", R"(
define i32 @f(i32 %a, i32 %b) {
entry:
  %x = sub i32 %a, %b
  ret i32 %x
}
)"},
    {"store-drop", R"(
@g = global i32 11
define i32 @f(i32 %a) {
entry:
  store i32 %a, ptr @g
  %v = load i32, ptr @g
  ret i32 %v
}
)"},
    {"branch-swap", R"(
define i32 @f(i32 %a) {
entry:
  %c = icmp sgt i32 %a, 0
  br i1 %c, label %t, label %e
t:
  br label %j
e:
  br label %j
j:
  %p = phi i32 [ 1, %t ], [ 2, %e ]
  ret i32 %p
}
)"},
    // Two distinct GEPs to the same slot: shifting either one decouples
    // the store from the load.
    {"gep-shift", R"(
define i32 @f(i32 %a) {
entry:
  %p = alloca i32, i64 4
  %q0 = getelementptr i32, ptr %p, i64 0
  %q1 = getelementptr i32, ptr %p, i64 0
  store i32 %a, ptr %q0
  %v = load i32, ptr %q1
  ret i32 %v
}
)"},
    // (1e16 + 1) + 2 = 1e16+2 but 1e16 + (1 + 2) = 1e16+4 in double.
    {"fp-reassoc", R"(
define float @f() {
entry:
  %s = fadd float 10000000000000000.0, 1.0
  %t = fadd float %s, 2.0
  ret float %t
}
)"},
};

class FamilyWitness : public ::testing::TestWithParam<FamilyCase> {};

TEST_P(FamilyWitness, EveryInjectionOver120SeedsYieldsAConcreteWitness) {
  const FamilyCase &FC = GetParam();
  Context Ctx;
  auto M = parseOrDie(Ctx, FC.Source);
  unsigned Injected = 0;
  for (uint64_t Seed = 0; Seed < 120; ++Seed) {
    auto Mutant = cloneModule(*M);
    std::string Desc = injectBug(*Mutant->getFunction("f"), Seed, FC.Family);
    ASSERT_FALSE(Desc.empty()) << FC.Family << " seed " << Seed;
    ASSERT_EQ(Desc.rfind(std::string(FC.Family) + ":", 0), 0u)
        << "description must start with the family name: " << Desc;
    ++Injected;
    TriageResult T = triageOf(*M, *Mutant, "f", witnessOnly());
    EXPECT_EQ(T.Classification, TriageClassification::MiscompileWitnessed)
        << FC.Family << " seed " << Seed << ": '" << Desc
        << "' got no witness (" << T.InputsTried << " tried, "
        << T.InputsSkipped << " skipped)";
    EXPECT_FALSE(T.WitnessDivergence.empty());
  }
  EXPECT_EQ(Injected, 120u);
}

INSTANTIATE_TEST_SUITE_P(Families, FamilyWitness,
                         ::testing::ValuesIn(FamilyCases),
                         [](const ::testing::TestParamInfo<FamilyCase> &I) {
                           std::string Name = I.param.Family;
                           for (char &C : Name)
                             if (C == '-')
                               C = '_';
                           return Name;
                         });

TEST(BugInjector, FamilyFilterAndRegistry) {
  Context Ctx;
  auto M = parseOrDie(Ctx, FamilyCases[0].Source);
  // Unknown family: no candidates, no mutation.
  auto Mutant = cloneModule(*M);
  EXPECT_EQ(injectBug(*Mutant->getFunction("f"), 1, "no-such-family"), "");
  // Every registered family name round-trips through the filter on a
  // function that has a site for it.
  EXPECT_EQ(getBugFamilies().size(), 7u);
  for (const FamilyCase &FC : FamilyCases) {
    Context C2;
    auto M2 = parseOrDie(C2, FC.Source);
    std::string Desc = injectBug(*M2->getFunction("f"), 3, FC.Family);
    EXPECT_EQ(Desc.rfind(std::string(FC.Family) + ":", 0), 0u) << Desc;
  }
}

// The reassociation divergence the fp-reassoc case relies on is real
// double arithmetic, not an assumption.
TEST(Triage, FpReassocDivergenceIsRepresentable) {
  volatile double A = 1e16, B = 1.0, C = 2.0;
  EXPECT_NE((A + B) + C, A + (B + C));
}

//===----------------------------------------------------------------------===//
// Validated pairs never get a witness
//===----------------------------------------------------------------------===//

TEST(Triage, ValidatedPairsAreNeverTriaged) {
  Context Ctx;
  BenchmarkProfile P = getProfile("sqlite");
  P.FunctionCount = 24;
  auto M = generateBenchmark(Ctx, P);
  EngineConfig C;
  C.Rules.Mask = RS_All;
  C.Triage = witnessOnly();
  ValidationEngine Engine(C);
  EngineRun Run = Engine.run(*M, getPaperPipeline());
  unsigned Checked = 0;
  for (const FunctionReportEntry &E : Run.Report.Functions) {
    if (E.Validated || !E.Transformed) {
      EXPECT_EQ(E.Triage.Classification, TriageClassification::NotRun)
          << E.Name;
      EXPECT_TRUE(E.Triage.WitnessInputs.empty()) << E.Name;
      ++Checked;
    }
  }
  EXPECT_GT(Checked, 0u);
  EXPECT_EQ(Run.Report.witnessed(), 0u);
}

TEST(Triage, IdenticalPairHasNoWitnessOnTheFullCorpus) {
  Context Ctx;
  BenchmarkProfile P = getProfile("hmmer");
  P.FunctionCount = 8;
  auto M = generateBenchmark(Ctx, P);
  auto Clone = cloneModule(*M);
  DifferentialTester DT(*M, *Clone);
  for (Function *F : M->definedFunctions()) {
    DiffOutcome O = DT.test(*F, *Clone->getFunction(F->getName()), 64);
    EXPECT_FALSE(O.HasWitness) << F->getName();
  }
}

//===----------------------------------------------------------------------===//
// Skip rule: traps are never witnesses
//===----------------------------------------------------------------------===//

TEST(Triage, AlwaysTrappingPairIsInconclusive) {
  Context Ctx;
  auto MA = parseOrDie(Ctx, R"(
define i32 @f(i32 %a) {
entry:
  %x = sdiv i32 %a, 0
  ret i32 %x
}
)");
  auto MB = parseOrDie(Ctx, R"(
define i32 @f(i32 %a) {
entry:
  ret i32 5
}
)");
  // The validator rejects the pair, but every original-side run traps, so
  // no input is usable and triage must say so rather than claim a witness.
  TriageResult T = triageOf(*MA, *MB, "f", witnessOnly());
  EXPECT_EQ(T.Classification, TriageClassification::Inconclusive);
  EXPECT_EQ(T.InputsTried, 0u);
  EXPECT_GT(T.InputsSkipped, 0u);
  EXPECT_TRUE(T.WitnessInputs.empty());
}

//===----------------------------------------------------------------------===//
// Reducer: minimality, class preservation, determinism
//===----------------------------------------------------------------------===//

namespace {

// A false alarm under RS_Paper (load of a constant global vs the folded
// constant — needs RS_GlobalFold) buried in removable junk on both sides.
const char *FalseAlarmOrig = R"(
@gc = constant i32 37
define i32 @f(i32 %a, i32 %b) {
entry:
  %j1 = add i32 %a, %b
  %j2 = mul i32 %j1, 3
  %j3 = xor i32 %j2, %a
  %c = icmp slt i32 %j3, %b
  br i1 %c, label %t, label %j
t:
  br label %j
j:
  %v = load i32, ptr @gc
  %r = add i32 %v, 0
  ret i32 %r
}
)";

const char *FalseAlarmOpt = R"(
@gc = constant i32 37
define i32 @f(i32 %a, i32 %b) {
entry:
  %j1 = add i32 %a, %b
  %j2 = mul i32 %j1, 3
  ret i32 37
}
)";

ReducedPair reduceFalseAlarm(Context &Ctx, std::unique_ptr<Module> &MA,
                             std::unique_ptr<Module> &MB) {
  MA = parseOrDie(Ctx, FalseAlarmOrig);
  MB = parseOrDie(Ctx, FalseAlarmOpt);
  RuleConfig Rules; // RS_Paper: no global folding -> false alarm
  Rules.M = MA.get();
  TriagePair P{MA.get(), MA->getFunction("f"), MB.get(), MB->getFunction("f")};
  return reducePair(P, Rules, /*Budget=*/128, /*StepBudget=*/1u << 20,
                    /*Witness=*/nullptr);
}

} // namespace

TEST(Reducer, FalseAlarmShrinksToMinimalStillFailingPair) {
  Context Ctx;
  std::unique_ptr<Module> MA, MB;
  ReducedPair R = reduceFalseAlarm(Ctx, MA, MB);
  ASSERT_TRUE(R.Ran);
  EXPECT_TRUE(R.Minimal);
  // All junk gone: the original keeps only the load chain, the optimized
  // side only its return.
  EXPECT_LT(R.A->getInstructionCount(), 5u);
  EXPECT_LT(R.B->getInstructionCount(), 2u);
  // Still the same alarm under the same rules...
  RuleConfig Rules;
  Rules.M = R.MA.get();
  ValidationResult V = validatePair(*R.A, *R.B, Rules);
  EXPECT_FALSE(V.Validated);
  EXPECT_FALSE(V.Unsupported);
  // ...and still behaviorally equivalent (a false alarm did not reduce
  // into a real divergence).
  DifferentialTester DT(*R.MA, *R.MB);
  EXPECT_FALSE(DT.test(*R.A, *R.B, 48).HasWitness);
}

TEST(Reducer, FixpointIsOneMinimal) {
  // Re-reducing the reduced pair must change nothing: no single removable
  // cut remains.
  Context Ctx;
  std::unique_ptr<Module> MA, MB;
  ReducedPair R1 = reduceFalseAlarm(Ctx, MA, MB);
  ASSERT_TRUE(R1.Ran);
  RuleConfig Rules;
  Rules.M = R1.MA.get();
  TriagePair Again{R1.MA.get(), R1.A, R1.MB.get(), R1.B};
  ReducedPair R2 = reducePair(Again, Rules, 128, 1u << 20, nullptr);
  ASSERT_TRUE(R2.Ran);
  EXPECT_EQ(R2.A->getInstructionCount(), R1.A->getInstructionCount());
  EXPECT_EQ(R2.B->getInstructionCount(), R1.B->getInstructionCount());
  EXPECT_EQ(printFunction(*R2.A), printFunction(*R1.A));
  EXPECT_EQ(printFunction(*R2.B), printFunction(*R1.B));
}

TEST(Reducer, DeterministicAcrossRuns) {
  Context Ctx1, Ctx2;
  std::unique_ptr<Module> MA1, MB1, MA2, MB2;
  ReducedPair R1 = reduceFalseAlarm(Ctx1, MA1, MB1);
  ReducedPair R2 = reduceFalseAlarm(Ctx2, MA2, MB2);
  ASSERT_TRUE(R1.Ran);
  ASSERT_TRUE(R2.Ran);
  EXPECT_EQ(R1.Validations, R2.Validations);
  EXPECT_EQ(printFunction(*R1.A), printFunction(*R2.A));
  EXPECT_EQ(printFunction(*R1.B), printFunction(*R2.B));
}

TEST(Reducer, WitnessedPairStaysWitnessedThroughReduction) {
  Context Ctx;
  auto MA = parseOrDie(Ctx, R"(
define i32 @f(i32 %a, i32 %b) {
entry:
  %j1 = add i32 %a, %b
  %j2 = mul i32 %j1, 3
  %x = add i32 %a, 1
  ret i32 %x
}
)");
  auto MB = parseOrDie(Ctx, R"(
define i32 @f(i32 %a, i32 %b) {
entry:
  %j1 = add i32 %a, %b
  %x = add i32 %a, 2
  ret i32 %x
}
)");
  TriageOptions O;
  O.Enabled = true;
  O.MaxInputs = 48;
  O.ReduceBudget = 128;
  TriageResult T = triageOf(*MA, *MB, "f", O);
  ASSERT_EQ(T.Classification, TriageClassification::MiscompileWitnessed);
  ASSERT_TRUE(T.Reduced);
  EXPECT_TRUE(T.ReduceMinimal);
  // The junk is gone but the miscompile (a+1 vs a+2) must survive.
  EXPECT_LE(T.OrigInstsAfter, 2u);
  EXPECT_LE(T.OptInstsAfter, 2u);
  EXPECT_FALSE(T.ReducedOrig.empty());
  EXPECT_FALSE(T.ReducedOpt.empty());
}

//===----------------------------------------------------------------------===//
// Rule-gap attribution
//===----------------------------------------------------------------------===//

TEST(RuleGap, NamesTheCheckedMissingFamily) {
  Context Ctx;
  auto MA = parseOrDie(Ctx, FalseAlarmOrig);
  auto MB = parseOrDie(Ctx, FalseAlarmOpt);
  RuleConfig Rules; // RS_Paper
  Rules.M = MA.get();
  RuleGapOutcome Gap =
      attributeRuleGap(*MA->getFunction("f"), *MB->getFunction("f"), Rules);
  ASSERT_TRUE(Gap.Ran);
  EXPECT_EQ(Gap.MissingRule, "global-fold");
  EXPECT_EQ(Gap.MissingRuleMask, unsigned(RS_GlobalFold));
  // The structural diff pinpoints the stuck spot: a load of the constant
  // global on one side against the folded constant on the other.
  EXPECT_TRUE(Gap.Diverged);
  EXPECT_NE(Gap.NodeA.find("load"), std::string::npos) << Gap.NodeA;
  EXPECT_NE(Gap.NodeB.find("const(37)"), std::string::npos) << Gap.NodeB;
}

TEST(RuleGap, EndToEndThroughTriagePair) {
  Context Ctx;
  auto MA = parseOrDie(Ctx, FalseAlarmOrig);
  auto MB = parseOrDie(Ctx, FalseAlarmOpt);
  TriageOptions O;
  O.Enabled = true;
  O.MaxInputs = 32;
  O.ReduceBudget = 128;
  TriageResult T = triageOf(*MA, *MB, "f", O, /*Mask=*/RS_Paper);
  EXPECT_EQ(T.Classification, TriageClassification::SuspectedFalseAlarm);
  EXPECT_TRUE(T.GapRan);
  EXPECT_EQ(T.MissingRule, "global-fold");
}

//===----------------------------------------------------------------------===//
// Engine integration: determinism across thread counts
//===----------------------------------------------------------------------===//

namespace {

/// A bug-injected corpus: a generated module and a mutated clone of it.
std::pair<std::unique_ptr<Module>, std::unique_ptr<Module>>
injectedCorpus(Context &Ctx, unsigned Functions) {
  BenchmarkProfile P = getProfile("hmmer");
  P.FunctionCount = Functions;
  auto M = generateBenchmark(Ctx, P);
  auto Mutant = cloneModule(*M);
  uint64_t Seed = 0x7a5;
  for (Function *F : Mutant->definedFunctions())
    injectBug(*F, Seed++);
  return {std::move(M), std::move(Mutant)};
}

} // namespace

TEST(Triage, EngineReportsByteIdenticalAcross1_2_8Threads) {
  std::string Baseline;
  for (unsigned Threads : {1u, 2u, 8u}) {
    Context Ctx;
    auto [M, Mutant] = injectedCorpus(Ctx, 20);
    EngineConfig C;
    C.Threads = Threads;
    C.Rules.Mask = RS_All;
    C.Triage.Enabled = true;
    C.Triage.MaxInputs = 32;
    C.Triage.ReduceBudget = 48;
    ValidationEngine Engine(C);
    ValidationReport R = Engine.validateModules(*M, *Mutant);
    // The corpus must actually exercise triage for the comparison to mean
    // anything.
    EXPECT_GT(R.witnessed() + R.suspectedFalseAlarms(), 0u);
    std::string Json = reportToJSON(R);
    EXPECT_NE(Json.find("\"triage\": {"), std::string::npos);
    if (Baseline.empty())
      Baseline = Json;
    else
      EXPECT_EQ(Baseline, Json) << "thread count " << Threads
                                << " changed the triage report";
  }
}

TEST(Triage, EveryRejectedPairOfTheInjectedCorpusIsClassified) {
  Context Ctx;
  auto [M, Mutant] = injectedCorpus(Ctx, 24);
  EngineConfig C;
  C.Rules.Mask = RS_All;
  C.Triage = witnessOnly();
  ValidationEngine Engine(C);
  ValidationReport R = Engine.validateModules(*M, *Mutant);
  DifferentialTester Probe(*M, *Mutant);
  unsigned Rejected = 0;
  for (const FunctionReportEntry &E : R.Functions) {
    if (!E.Transformed || E.Validated)
      continue;
    ++Rejected;
    EXPECT_NE(E.Triage.Classification, TriageClassification::NotRun)
        << E.Name;
    // Agreement with a direct probe: the triage corpus contains the probe
    // corpus, so a probe witness implies a triage witness.
    DiffOutcome O = Probe.test(*M->getFunction(E.Name),
                               *Mutant->getFunction(E.Name), 48);
    if (O.HasWitness) {
      EXPECT_EQ(E.Triage.Classification,
                TriageClassification::MiscompileWitnessed)
          << E.Name << ": probe diverges but triage found no witness";
    }
  }
  EXPECT_GT(Rejected, 0u);
}

TEST(Triage, RestrictedRuleMaskYieldsAttributedSuiteFalseAlarms) {
  // The acceptance scenario: a deliberately restricted rule mask on a
  // workload with extension-rule features produces suspected false alarms
  // and at least one carries a named rule-gap attribution.
  Context Ctx;
  auto M = generateBenchmark(Ctx, getProfile("sqlite"));
  EngineConfig C;
  C.Rules.Mask = RS_Paper; // libc/float/global extensions off
  C.Triage.Enabled = true;
  C.Triage.MaxInputs = 48;
  C.Triage.ReduceBudget = 128;
  ValidationEngine Engine(C);
  EngineRun Run = Engine.run(*M, getPaperPipeline());
  EXPECT_EQ(Run.Report.witnessed(), 0u)
      << "a real optimizer pipeline must not produce miscompile witnesses";
  ASSERT_GT(Run.Report.suspectedFalseAlarms(), 0u);
  unsigned Attributed = 0;
  for (const FunctionReportEntry &E : Run.Report.Functions)
    if (E.Triage.Classification == TriageClassification::SuspectedFalseAlarm &&
        (!E.Triage.MissingRule.empty() || E.Triage.ClosedByAllRules))
      ++Attributed;
  EXPECT_GT(Attributed, 0u);
}
