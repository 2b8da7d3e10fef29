//===- Validator.cpp - Translation validation driver --------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "validator/Validator.h"

#include "ir/Module.h"
#include "normalize/Normalizer.h"
#include "vg/GraphBuilder.h"

#include <chrono>

using namespace llvmmd;

ValidationResult llvmmd::validatePair(const Function &Original,
                                      const Function &Optimized,
                                      const RuleConfig &Config) {
  ValidationResult R;
  auto Start = std::chrono::steady_clock::now();
  auto Finish = [&]() -> ValidationResult & {
    R.Microseconds = std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - Start)
                         .count();
    return R;
  };

  if (Original.getFunctionType() != Optimized.getFunctionType()) {
    R.Unsupported = true;
    R.Reason = "signature mismatch";
    return Finish();
  }

  ValueGraph G;
  BuildResult A = buildValueGraph(G, Original);
  if (!A.Supported) {
    R.Unsupported = true;
    R.Reason = "original: " + A.Reason;
    return Finish();
  }
  BuildResult B = buildValueGraph(G, Optimized);
  if (!B.Supported) {
    R.Unsupported = true;
    R.Reason = "optimized: " + B.Reason;
    return Finish();
  }
  R.GraphNodes = G.size();

  NormalizeStats S = normalizeGraph(G, {A.Ret, B.Ret}, Config);
  R.Rewrites = S.Rewrites;
  R.SharingMerges = S.SharingMerges;
  R.Iterations = S.Iterations;
  R.Validated = S.Stop == NormalizeStop::RootsMerged;
  // Best case (§2): hash-consing alone already merged the state pointers.
  R.EqualOnConstruction = R.Validated && S.Iterations == 0;
  if (S.Stop == NormalizeStop::Budget)
    R.Reason = "iteration budget exhausted";
  else if (S.Stop == NormalizeStop::Fixpoint)
    R.Reason = "graphs did not merge"; // fixpoint without convergence: alarm
  R.LiveNodes = G.countRoots();
  return Finish();
}
