//===- LayerSweep.cpp - The traced single-thread, layer-by-layer run ------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
//
// Does the engine's whole-pipeline work one public call at a time, on one
// thread, so each layer's cost can be read off its own spans:
//
//   loadModules -> one single-pass PassManager per pass -> fingerprint ->
//   buildValueGraph x2 into a scratch graph -> validatePair -> suiteToJSON
//
// validatePair builds both graphs again internally, so the normalizer's
// time is the pair's time minus the two scratch builds. A pair seen before
// (same fingerprints) takes the earlier verdict, as the engine's cache does.
//
//===----------------------------------------------------------------------===//

#include "PerfBench.h"

#include "ir/Cloning.h"
#include "ir/Context.h"
#include "ir/Function.h"
#include "ir/Module.h"
#include "opt/Pass.h"
#include "support/Hashing.h"
#include "validator/Validator.h"
#include "vg/GraphBuilder.h"

#include <algorithm>
#include <map>
#include <sstream>

using namespace llvmmd;
using namespace perfbench;

namespace {

std::vector<std::string> pipelinePasses() {
  std::vector<std::string> Names;
  std::stringstream SS(getPaperPipeline());
  for (std::string N; std::getline(SS, N, ',');)
    Names.push_back(N);
  return Names;
}

double ms(uint64_t Us) { return double(Us) / 1000.0; }

} // namespace

std::vector<Verdict> perfbench::runLayerSweep(
    const std::vector<SweepInput> &Inputs, Outcome &Out) {
  const std::vector<std::string> Passes = pipelinePasses();
  std::vector<PassManager> PMs(Passes.size());
  for (size_t P = 0; P < Passes.size(); ++P)
    PMs[P].parsePipeline(Passes[P]);

  uint64_t ParseUs = 0, ParseBytes = 0, OptUs = 0, InstsIn = 0, InstsOut = 0;
  std::vector<uint64_t> PassUs(Passes.size(), 0);
  uint64_t BuildUs = 0, GraphNodes = 0, LiveNodes = 0, EqualOnConstruction = 0;
  uint64_t NormalizeUs = 0, Rounds = 0, Rewrites = 0, Merges = 0;
  uint64_t Exhausted = 0, ExhaustedUs = 0, PairUsTotal = 0, Validated = 0;
  std::vector<double> PairUs;
  std::vector<std::string> ExhaustedNames;

  std::map<std::pair<uint64_t, uint64_t>, ValidationResult> Seen;
  Context Ctx;
  SuiteReport Suite;
  Suite.Pipeline = getPaperPipeline();
  Suite.RuleMask = RuleConfig().Mask;
  Span Root("layer sweep", "bench");
  for (const SweepInput &In : Inputs) {
    Span ModSpan("module", "bench", In.Spec.Name);
    LoadResult L;
    {
      Span S("loadModules", "ir", In.Spec.Name);
      L = loadModule(Ctx, In.Spec);
      ParseUs += S.end();
    }
    if (!L) {
      Out.problem("sweep: " + L.Error);
      continue;
    }
    ParseBytes += In.Bytes;
    const Module &Orig = *L.Modules.front().M;
    std::unique_ptr<Module> Opt;
    {
      Span S("cloneModule", "ir", In.Spec.Name);
      Opt = cloneModule(Orig);
    }
    RuleConfig Rules;
    Rules.M = &Orig;

    ValidationReport R;
    R.ModuleName = L.Modules.front().Name;
    R.Pipeline = Suite.Pipeline;
    R.RuleMask = Rules.Mask;
    for (size_t Fi = 0; Fi < Orig.functions().size(); ++Fi) {
      const Function &A = *Orig.functions()[Fi];
      Function &B = *Opt->functions()[Fi];
      if (A.isDeclaration())
        continue;
      FunctionReportEntry E;
      E.Name = A.getName();
      InstsIn += B.getInstructionCount();
      {
        Span O("optimize", "opt", E.Name);
        for (size_t P = 0; P < Passes.size(); ++P) {
          Span PS("pass", "opt", Passes[P]);
          E.Transformed |= PMs[P].run(B);
          PassUs[P] += PS.end();
        }
        OptUs += O.end();
      }
      InstsOut += B.getInstructionCount();
      {
        Span S("fingerprintFunction", "driver", E.Name);
        E.FingerprintOrig = fingerprintFunction(A);
        E.FingerprintOpt =
            E.Transformed ? fingerprintFunction(B) : E.FingerprintOrig;
      }
      if (!E.Transformed) {
        R.Functions.push_back(std::move(E));
        continue;
      }
      if (E.FingerprintOpt == E.FingerprintOrig) {
        // The engine's O(1) skip: structurally identical, no validation.
        E.SkippedIdentical = E.Validated = true;
        E.Result.Validated = E.Result.EqualOnConstruction = true;
        R.Functions.push_back(std::move(E));
        continue;
      }
      auto Memo = Seen.find({E.FingerprintOrig, E.FingerprintOpt});
      if (Memo != Seen.end()) {
        E.CacheHit = true;
        E.Result = Memo->second;
        E.Validated = E.Result.Validated;
        R.Functions.push_back(std::move(E));
        continue;
      }

      Span PairSpan("pair", "validator", E.Name);
      uint64_t PairBuildUs = 0;
      {
        Span S("buildValueGraph x2", "vg", E.Name);
        ValueGraph G;
        buildValueGraph(G, A);
        buildValueGraph(G, B);
        GraphNodes += G.size();
        PairBuildUs = S.end();
      }
      uint64_t Us;
      {
        Span S("validatePair", "validator", E.Name);
        E.Result = validatePair(A, B, Rules);
        Us = S.end();
      }
      E.Validated = E.Result.Validated;
      BuildUs += PairBuildUs;
      NormalizeUs += Us - std::min(Us, PairBuildUs);
      PairUs.push_back(double(Us));
      PairUsTotal += Us;
      Validated += E.Validated;
      LiveNodes += E.Result.LiveNodes;
      EqualOnConstruction += E.Result.EqualOnConstruction;
      Rounds += E.Result.Iterations;
      Rewrites += E.Result.Rewrites;
      Merges += E.Result.SharingMerges;
      if (E.Result.Iterations >= Rules.MaxIterations) {
        ++Exhausted;
        ExhaustedUs += Us;
        if (std::find(ExhaustedNames.begin(), ExhaustedNames.end(),
                      E.Name) == ExhaustedNames.end())
          ExhaustedNames.push_back(E.Name);
      }
      Seen.emplace(std::make_pair(E.FingerprintOrig, E.FingerprintOpt),
                   E.Result);
      R.Functions.push_back(std::move(E));
    }
    Suite.Modules.push_back(std::move(R));
  }
  std::string Json;
  uint64_t EmitUs;
  {
    Span S("suiteToJSON", "driver");
    Json = suiteToJSON(Suite);
    EmitUs = S.end();
  }

  Out.metric("ir.parse_ms", ms(ParseUs), "ms");
  Out.metric("ir.parse_mb_per_s",
             ParseUs ? double(ParseBytes) / double(ParseUs) : 0, "MB/s");
  Out.metric("opt.ms", ms(OptUs), "ms");
  for (size_t P = 0; P < Passes.size(); ++P)
    Out.metric("opt." + Passes[P] + ".ms", ms(PassUs[P]), "ms");
  Out.metric("opt.insts_in", double(InstsIn), "count");
  Out.metric("opt.insts_out", double(InstsOut), "count");
  Out.metric("vg.build_ms", ms(BuildUs), "ms");
  Out.metric("vg.graph_nodes", double(GraphNodes), "count");
  Out.metric("vg.live_nodes", double(LiveNodes), "count");
  Out.metric("vg.equal_on_construction", double(EqualOnConstruction),
             "count");
  Out.metric("normalize.ms", ms(NormalizeUs), "ms");
  Out.metric("normalize.rounds", double(Rounds), "count");
  Out.metric("normalize.rewrites", double(Rewrites), "count");
  Out.metric("normalize.sharing_merges", double(Merges), "count");
  Out.metric("normalize.budget_exhausted", double(Exhausted), "count");
  Out.metric("normalize.budget_exhausted_ms_share",
             PairUsTotal ? double(ExhaustedUs) / double(PairUsTotal) : 0,
             "ratio");
  Out.metric("validator.pairs", double(PairUs.size()), "count");
  Out.metric("validator.validated", double(Validated), "count");
  Out.metric("validator.ms", ms(PairUsTotal), "ms");
  Out.metric("validator.pair_p50_us", quantile(PairUs, 0.50), "us");
  Out.metric("validator.pair_p95_us", quantile(PairUs, 0.95), "us");
  Out.metric("validator.pair_max_us", quantile(PairUs, 1.0), "us");
  Out.metric("driver.report.emit_ms", ms(EmitUs), "ms");
  Out.metric("driver.report.bytes", double(Json.size()), "bytes");

  std::string Names;
  for (const std::string &N : ExhaustedNames)
    Names += (Names.empty() ? "" : ", ") + N;
  Out.note("layer sweep: " + std::to_string(PairUs.size()) +
           " pairs on 1 thread; iteration budget exhausted on " +
           std::to_string(Exhausted) + (Names.empty() ? "" : ": " + Names));
  return verdictsOf(Suite);
}
