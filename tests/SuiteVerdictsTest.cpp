//===- SuiteVerdictsTest.cpp - Pinned verdicts of the Table-1 suite -------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
// Runs the whole 12-profile paper suite through the engine and compares
// every function's verdict — (name, validated, reason, fingerprint_opt) —
// against tests/fixtures/suite_verdicts.tsv. A change to the normalizer,
// the sharing passes or the optimizer that flips, re-words or re-shapes a
// single verdict fails here, so "verdicts unchanged" is a standing gate and
// not a one-off claim.
//
// To regenerate the fixture after an intended verdict change, run the test
// binary with LLVMMD_UPDATE_FIXTURES=1 and review the diff.
//
//===----------------------------------------------------------------------===//

#include "driver/ValidationEngine.h"
#include "ir/Context.h"
#include "ir/Module.h"
#include "opt/Pass.h"
#include "workload/Generator.h"
#include "workload/Profiles.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace llvmmd;

namespace {

std::string fixturePath() {
  return std::string(LLVMMD_SOURCE_DIR) + "/tests/fixtures/suite_verdicts.tsv";
}

/// One line per function, in suite then module order:
/// module/function <TAB> 0|1 <TAB> reason <TAB> fingerprint_opt (hex).
std::vector<std::string> suiteVerdictRows() {
  Context Ctx;
  std::vector<std::unique_ptr<Module>> Owned;
  std::vector<const Module *> Mods;
  for (const BenchmarkProfile &P : getPaperSuite()) {
    Owned.push_back(generateBenchmark(Ctx, P));
    Mods.push_back(Owned.back().get());
  }
  EngineConfig Cfg;
  Cfg.Threads = 4;
  ValidationEngine Engine(Cfg);
  SuiteRun Run = Engine.runSuite(Mods, getPaperPipeline());

  std::vector<std::string> Rows;
  for (const ValidationReport &M : Run.Report.Modules) {
    for (const FunctionReportEntry &F : M.Functions) {
      char Fp[17];
      std::snprintf(Fp, sizeof(Fp), "%016" PRIx64, F.FingerprintOpt);
      Rows.push_back(M.ModuleName + "/" + F.Name + "\t" +
                     (F.Validated ? "1" : "0") + "\t" + F.Result.Reason +
                     "\t" + Fp);
    }
  }
  return Rows;
}

} // namespace

TEST(SuiteVerdictsTest, MatchesPinnedFixture) {
  std::vector<std::string> Rows = suiteVerdictRows();
  ASSERT_FALSE(Rows.empty());

  if (const char *Update = std::getenv("LLVMMD_UPDATE_FIXTURES");
      Update && *Update == '1') {
    std::ofstream OS(fixturePath(), std::ios::trunc);
    for (const std::string &R : Rows)
      OS << R << '\n';
    ASSERT_TRUE(OS.good()) << "cannot write " << fixturePath();
    GTEST_SKIP() << "rewrote " << fixturePath();
  }

  std::ifstream IS(fixturePath());
  ASSERT_TRUE(IS.good()) << "missing fixture " << fixturePath();
  std::vector<std::string> Pinned;
  for (std::string Line; std::getline(IS, Line);)
    Pinned.push_back(Line);

  ASSERT_EQ(Rows.size(), Pinned.size()) << "suite function count changed";
  unsigned Diffs = 0;
  for (size_t I = 0; I < Rows.size() && Diffs < 20; ++I) {
    if (Rows[I] == Pinned[I])
      continue;
    ++Diffs;
    ADD_FAILURE() << "verdict " << I << " changed\n  pinned: " << Pinned[I]
                  << "\n  now:    " << Rows[I];
  }
}
