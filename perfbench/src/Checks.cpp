//===- Checks.cpp - Verdict digests, soundness cross-check, self-test -----===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "PerfBench.h"

#include "ir/Cloning.h"
#include "ir/Context.h"
#include "ir/Function.h"
#include "ir/Module.h"
#include "opt/BugInjector.h"
#include "opt/Pass.h"
#include "support/Hashing.h"
#include "triage/DifferentialTester.h"
#include "workload/Generator.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <cstdlib>

using namespace llvmmd;
using namespace perfbench;

namespace {

/// Interpreter inputs tried per validated pair by the soundness check.
constexpr unsigned CrossCheckInputs = 16;

/// Reads the JSON string starting at the opening quote \p Pos; returns
/// the position after the closing quote (npos on malformed input).
size_t readString(const std::string &J, size_t Pos, std::string &Out) {
  Out.clear();
  for (size_t I = Pos + 1; I < J.size(); ++I) {
    if (J[I] == '"')
      return I + 1;
    if (J[I] == '\\' && I + 1 < J.size())
      ++I;
    Out += J[I];
  }
  return std::string::npos;
}

/// Position just after `"Key": ` at or after \p From, before \p Limit.
size_t findKey(const std::string &J, const char *Key, size_t From,
               size_t Limit) {
  std::string Needle = std::string("\"") + Key + "\": ";
  size_t P = J.find(Needle, From);
  return P < Limit ? P + Needle.size() : std::string::npos;
}

} // namespace

std::vector<Verdict> perfbench::verdictsOf(const SuiteReport &S) {
  std::vector<Verdict> Out;
  for (const ValidationReport &R : S.Modules)
    for (const FunctionReportEntry &F : R.Functions)
      Out.push_back({R.ModuleName + "/" + F.Name, F.Transformed, F.Validated,
                     F.Result.Reason, F.FingerprintOpt});
  return Out;
}

std::vector<Verdict> perfbench::verdictsFromJSON(const std::string &J) {
  static const std::string Entry = "{\"name\": ";
  static const std::string ModuleKey = "\"module\": ";
  std::vector<Verdict> Out;
  size_t P = J.find(Entry);
  while (P != std::string::npos) {
    size_t Next = J.find(Entry, P + 1);
    size_t Limit = Next == std::string::npos ? J.size() : Next;
    Verdict V;
    std::string Hex, Module, Fn;
    size_t Mod = J.rfind(ModuleKey, P);
    size_t N = readString(J, P + Entry.size(), Fn);
    if (Mod == std::string::npos ||
        readString(J, Mod + ModuleKey.size(), Module) == std::string::npos)
      return {};
    V.Name = Module + "/" + Fn;
    size_t Fp = findKey(J, "fingerprint_opt", N, Limit);
    size_t Tr = findKey(J, "transformed", N, Limit);
    size_t Va = findKey(J, "validated", N, Limit);
    size_t Re = findKey(J, "reason", N, Limit);
    if (N == std::string::npos || Fp == std::string::npos ||
        Tr == std::string::npos || Va == std::string::npos ||
        Re == std::string::npos ||
        readString(J, Fp, Hex) == std::string::npos ||
        readString(J, Re, V.Reason) == std::string::npos)
      return {}; // malformed: an empty digest never matches a real one
    V.FingerprintOpt = std::strtoull(Hex.c_str(), nullptr, 16);
    V.Transformed = J.compare(Tr, 4, "true") == 0;
    V.Validated = J.compare(Va, 4, "true") == 0;
    Out.push_back(std::move(V));
    P = Next;
  }
  return Out;
}

std::vector<std::string>
perfbench::verdictMismatches(std::vector<Verdict> A, std::vector<Verdict> B) {
  auto ByName = [](const Verdict &X, const Verdict &Y) {
    return X.Name < Y.Name;
  };
  std::sort(A.begin(), A.end(), ByName);
  std::sort(B.begin(), B.end(), ByName);
  std::vector<std::string> Bad;
  size_t I = 0, J = 0;
  while (I < A.size() || J < B.size()) {
    if (J == B.size() || (I < A.size() && A[I].Name < B[J].Name)) {
      Bad.push_back(A[I++].Name);
    } else if (I == A.size() || B[J].Name < A[I].Name) {
      Bad.push_back(B[J++].Name);
    } else {
      const Verdict &X = A[I++], &Y = B[J++];
      if (X.Transformed != Y.Transformed || X.Validated != Y.Validated ||
          X.Reason != Y.Reason || X.FingerprintOpt != Y.FingerprintOpt)
        Bad.push_back(X.Name);
    }
  }
  return Bad;
}

uint64_t perfbench::verdictDigest(std::vector<Verdict> V) {
  std::sort(V.begin(), V.end(), [](const Verdict &X, const Verdict &Y) {
    return X.Name < Y.Name;
  });
  uint64_t H = V.size();
  for (const Verdict &X : V) {
    H = hashCombine(H, hashBytes(X.Name.data(), X.Name.size()));
    H = hashCombine(H, hashBytes(X.Reason.data(), X.Reason.size()));
    H = hashCombine(H, X.FingerprintOpt);
    H = hashCombine(H, uint64_t(X.Transformed) << 1 | uint64_t(X.Validated));
  }
  return H;
}

std::string perfbench::nameList(const std::vector<std::string> &Names,
                                 size_t Max) {
  std::string S;
  for (size_t I = 0; I < Names.size() && I < Max; ++I)
    S += (I ? ", " : "") + Names[I];
  if (Names.size() > Max)
    S += " and " + std::to_string(Names.size() - Max) + " more";
  return S;
}

SoundnessResult perfbench::crossCheck(const Module &Original,
                                      const Module &Optimized,
                                      const ValidationReport &R,
                                      PairSet &Done) {
  SoundnessResult S;
  DifferentialTester Tester(Original, Optimized);
  for (const FunctionReportEntry &E : R.Functions) {
    if (!E.Transformed || !E.Validated ||
        !Done.insert({E.FingerprintOrig, E.FingerprintOpt}).second)
      continue;
    const Function *A = Original.getFunction(E.Name);
    const Function *B = Optimized.getFunction(E.Name);
    ++S.Checked;
    if (!A || !B || Tester.test(*A, *B, CrossCheckInputs).HasWitness)
      S.Witnessed.push_back(E.Name);
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Self-test: every check must catch a planted failure
//===----------------------------------------------------------------------===//

int perfbench::runSelfTest(const std::string &Dir) {
  unsigned Failures = 0;
  auto Expect = [&](bool Ok, const char *What) {
    std::printf("%s: %s\n", Ok ? "ok" : "FAIL", What);
    Failures += !Ok;
  };

  Context Ctx;
  BenchmarkProfile P = getProfile("sqlite");
  P.FunctionCount = 16;
  std::unique_ptr<Module> Orig = generateBenchmark(Ctx, P);
  std::unique_ptr<Module> Same = cloneModule(*Orig);
  std::unique_ptr<Module> Bugged = cloneModule(*Orig);

  // A report that claims every function was transformed and validated.
  ValidationReport Claim;
  Claim.ModuleName = P.Name;
  for (const Function *F : Orig->functions()) {
    if (F->isDeclaration())
      continue;
    FunctionReportEntry E;
    E.Name = F->getName();
    E.Transformed = E.Validated = true;
    Claim.Functions.push_back(E);
  }

  // Distinct fingerprints per entry, so no claim is skipped as checked.
  for (size_t I = 0; I < Claim.Functions.size(); ++I)
    Claim.Functions[I].FingerprintOrig = I;
  PairSet Done;
  SoundnessResult Clean = crossCheck(*Orig, *Same, Claim, Done);
  Expect(Clean.Checked == Claim.Functions.size() && Clean.Witnessed.empty(),
         "soundness check passes identical bodies");

  // Plant miscompiles; keep those the interpreter can tell apart.
  DifferentialTester Tester(*Orig, *Bugged);
  unsigned Planted = 0;
  for (size_t I = 0; I < Claim.Functions.size(); ++I) {
    Function *F = Bugged->getFunction(Claim.Functions[I].Name);
    if (injectBug(*F, 0xb0b + I).empty())
      continue;
    const Function *A = Orig->getFunction(F->getName());
    Planted += Tester.test(*A, *F, 16).HasWitness;
  }
  Done.clear();
  SoundnessResult Dirty = crossCheck(*Orig, *Bugged, Claim, Done);
  Expect(Planted > 0, "bug injector planted a miscompile with a witness");
  Expect(Dirty.Witnessed.size() >= Planted && !Dirty.Witnessed.empty(),
         "soundness check flags a miscompile reported as validated");

  // Verdict digests: JSON and in-memory forms agree, and a flipped verdict
  // or a changed fingerprint is reported.
  SuiteReport S;
  S.Modules.push_back(Claim);
  std::vector<Verdict> Mem = verdictsOf(S), Parsed =
                                               verdictsFromJSON(
                                                   suiteToJSON(S));
  Expect(!Mem.empty() && verdictMismatches(Mem, Parsed).empty(),
         "verdicts parsed from suite JSON match the report");
  std::vector<Verdict> Flipped = Mem;
  Flipped[3].Validated = false;
  Flipped[5].FingerprintOpt ^= 1;
  Expect(verdictMismatches(Mem, Flipped).size() == 2,
         "verdict comparison reports a flipped verdict and a fingerprint");
  Expect(verdictDigest(Mem) == verdictDigest(Parsed) &&
             verdictDigest(Mem) != verdictDigest(Flipped),
         "verdict digests match equal verdicts and tell a flip apart");
  Flipped.pop_back();
  Expect(verdictMismatches(Mem, Flipped).size() == 3,
         "verdict comparison reports a missing entry");
  Expect(verdictsFromJSON("\"module\": \"m\", {\"name\": \"f\", "
                          "\"validated\": true}")
             .empty(),
         "truncated entries parse to an empty digest");

  // Input checks.
  Expect(checkWellFormed(*Orig, P.FunctionCount).empty(),
         "a generated module is well-formed");
  Expect(!checkWellFormed(*Orig, P.FunctionCount + 1).empty(),
         "a function-count mismatch is reported");
  BenchmarkProfile Lbm = getProfile("lbm");
  std::vector<ModuleFile> Files = writeModules(Dir, {Lbm});
  Expect(!Files.empty() && checkMatchesProfiles(Files).empty(),
         "written suite files match their profile:NAME modules");
  if (!Files.empty()) {
    {
      std::ofstream OS(Files.front().Path, std::ios::trunc);
      OS << stamped(moduleText(Lbm), 3, 7);
    }
    Expect(!checkMatchesProfiles(Files).empty(),
           "an edited module file is told apart from its profile");
    std::remove(Files.front().Path.c_str());
  }

  // A stamp makes a function new to every cache but leaves the optimizer
  // (so the validator) the unstamped function's work.
  ModuleSpec Plain, Stamped;
  Plain.From = Stamped.From = ModuleSpec::Source::Inline;
  Plain.Value = moduleText(Lbm);
  Stamped.Value = stamped(Plain.Value, 3, 7);
  LoadResult LP = loadModule(Ctx, Plain), LS = loadModule(Ctx, Stamped);
  bool StampOk = LP && LS;
  PassManager PM;
  PM.parsePipeline(getPaperPipeline());
  for (size_t I = 0; StampOk && I < LP.Modules[0].M->functions().size(); ++I) {
    Function &A = *LP.Modules[0].M->functions()[I];
    Function &B = *LS.Modules[0].M->functions()[I];
    if (A.isDeclaration())
      continue;
    bool Edited = A.getName() == Lbm.Name + "_f3";
    StampOk &= (fingerprintFunction(A) != fingerprintFunction(B)) == Edited;
    PM.run(A);
    PM.run(B);
    StampOk &= fingerprintFunction(A) == fingerprintFunction(B);
  }
  Expect(StampOk, "a stamp changes one original fingerprint and no "
                  "optimized one");

  std::printf("self-test: %s\n", Failures ? "FAILED" : "passed");
  return Failures ? 1 : 0;
}
