//===- Inputs.cpp - Seeded benchmark inputs as mini-IR files --------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "PerfBench.h"

#include "ir/Context.h"
#include "ir/Function.h"
#include "ir/Module.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "support/Hashing.h"
#include "workload/Generator.h"

#include <fstream>
#include <sstream>

using namespace llvmmd;
using namespace perfbench;

std::vector<size_t> perfbench::rotation(uint64_t Start, size_t N) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = (Start + I) % N;
  return Order;
}

std::string perfbench::stamped(const std::string &Text, int Fn,
                               uint64_t Stamp) {
  static const std::string Entry = "\nentry:\n";
  const std::string Line =
      "  %pb.stamp = add i32 %arg0, " + std::to_string(Stamp) + "\n";
  std::string Out;
  size_t Pos = 0;
  int I = 0;
  for (size_t P; (P = Text.find(Entry, Pos)) != std::string::npos; ++I) {
    P += Entry.size();
    Out.append(Text, Pos, P - Pos);
    if (Fn < 0 || I == Fn)
      Out += Line;
    Pos = P;
  }
  Out.append(Text, Pos, std::string::npos);
  return Out;
}

std::string perfbench::moduleText(const BenchmarkProfile &P) {
  Context Ctx;
  std::unique_ptr<Module> M = generateBenchmark(Ctx, P);
  return printModule(*M);
}

std::vector<ModuleFile>
perfbench::writeModules(const std::string &Dir,
                        const std::vector<BenchmarkProfile> &Ps) {
  std::vector<ModuleFile> Files;
  for (const BenchmarkProfile &P : Ps) {
    std::string Text = moduleText(P);
    ModuleFile F{P.Name, Dir + "/" + P.Name + ".mir", Text.size()};
    std::ofstream OS(F.Path, std::ios::binary | std::ios::trunc);
    OS << Text;
    if (!OS)
      return {};
    Files.push_back(std::move(F));
  }
  return Files;
}

std::string perfbench::readFile(const std::string &Path) {
  std::ifstream IS(Path, std::ios::binary);
  std::ostringstream OS;
  OS << IS.rdbuf();
  return OS.str();
}

LoadResult perfbench::loadFiles(Context &Ctx,
                                const std::vector<ModuleFile> &Files) {
  std::vector<ModuleSpec> Specs;
  for (const ModuleFile &F : Files) {
    ModuleSpec S;
    S.From = ModuleSpec::Source::File;
    S.Value = F.Path;
    S.Name = F.Name;
    S.Format = ModuleFormat::MiniIR;
    Specs.push_back(std::move(S));
  }
  return loadModules(Ctx, Specs);
}

std::string perfbench::checkMatchesProfiles(
    const std::vector<ModuleFile> &Files) {
  Context Ctx;
  LoadResult FromFiles = loadFiles(Ctx, Files);
  if (!FromFiles)
    return FromFiles.Error;
  for (const LoadedModule &LM : FromFiles.Modules) {
    ModuleSpec S = parseModuleSpec("profile:" + LM.Name);
    LoadResult Ref = loadModule(Ctx, S);
    if (!Ref)
      return Ref.Error;
    const Module &A = *LM.M, &B = *Ref.Modules.front().M;
    if (A.functions().size() != B.functions().size())
      return LM.Name + ": function count differs from profile:" + LM.Name;
    for (size_t I = 0; I < A.functions().size(); ++I) {
      const Function &FA = *A.functions()[I], &FB = *B.functions()[I];
      if (FA.getName() != FB.getName() ||
          fingerprintFunction(FA) != fingerprintFunction(FB))
        return LM.Name + ": " + FA.getName() +
               " differs from the profile:" + LM.Name + " module";
    }
  }
  return "";
}

std::string perfbench::checkWellFormed(const Module &M,
                                       unsigned FunctionCount) {
  std::vector<std::string> Errors;
  if (!verifyModule(M, Errors))
    return M.getName() + ": " + (Errors.empty() ? "invalid" : Errors.front());
  unsigned Defined = 0;
  for (const Function *F : M.functions())
    Defined += !F->isDeclaration();
  if (Defined != FunctionCount)
    return M.getName() + ": " + std::to_string(Defined) +
           " defined functions, expected " + std::to_string(FunctionCount);
  return "";
}
