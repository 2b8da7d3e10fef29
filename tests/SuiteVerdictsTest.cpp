//===- SuiteVerdictsTest.cpp - Pinned verdicts of the Table-1 suite -------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
// Runs the whole 12-profile paper suite through the engine and compares
// every function's verdict — (name, validated, reason, fingerprint_opt) —
// and every per-function statistic of the report (rewrites, sharing_merges,
// graph_nodes, live_nodes, iterations, equal_on_construction) against
// tests/fixtures/suite_verdicts.tsv. A change to the normalizer, the sharing
// passes or the optimizer that flips, re-words or re-shapes a single verdict,
// or that moves a single statistic, fails here, so "verdicts and statistics
// unchanged" is a standing gate and not a one-off claim.
//
// The same suite under RS_All (what --all-rules selects) is pinned in
// tests/fixtures/suite_verdicts_all_rules.tsv: only there do the libc
// extension rules (call-over-store, call-over-loop, load-over-memset) run
// beside dead-store and dead-allocation removal.
//
// To regenerate the fixtures after an intended verdict change, run the test
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

std::string fixturePath(const char *Name) {
  return std::string(LLVMMD_SOURCE_DIR) + "/tests/fixtures/" + Name;
}

/// One line per function, in suite then module order:
/// module/function <TAB> 0|1 <TAB> reason <TAB> fingerprint_opt (hex)
/// <TAB> rewrites <TAB> sharing_merges <TAB> graph_nodes <TAB> live_nodes
/// <TAB> iterations <TAB> equal_on_construction (0|1).
std::vector<std::string> suiteVerdictRows(unsigned RuleMask) {
  Context Ctx;
  std::vector<std::unique_ptr<Module>> Owned;
  std::vector<const Module *> Mods;
  for (const BenchmarkProfile &P : getPaperSuite()) {
    Owned.push_back(generateBenchmark(Ctx, P));
    Mods.push_back(Owned.back().get());
  }
  EngineConfig Cfg;
  Cfg.Threads = 4;
  Cfg.Rules.Mask = RuleMask;
  ValidationEngine Engine(Cfg);
  SuiteRun Run = Engine.runSuite(Mods, getPaperPipeline());

  std::vector<std::string> Rows;
  for (const ValidationReport &M : Run.Report.Modules) {
    for (const FunctionReportEntry &F : M.Functions) {
      char Fp[17];
      std::snprintf(Fp, sizeof(Fp), "%016" PRIx64, F.FingerprintOpt);
      const ValidationResult &R = F.Result;
      std::ostringstream Row;
      Row << M.ModuleName << '/' << F.Name << '\t' << (F.Validated ? 1 : 0)
          << '\t' << R.Reason << '\t' << Fp << '\t' << R.Rewrites << '\t'
          << R.SharingMerges << '\t' << R.GraphNodes << '\t' << R.LiveNodes
          << '\t' << R.Iterations << '\t' << (R.EqualOnConstruction ? 1 : 0);
      Rows.push_back(Row.str());
    }
  }
  return Rows;
}

/// Compares the suite's rows under \p RuleMask with the fixture \p Name,
/// or rewrites the fixture when LLVMMD_UPDATE_FIXTURES=1.
void checkPinnedFixture(unsigned RuleMask, const char *Name) {
  std::vector<std::string> Rows = suiteVerdictRows(RuleMask);
  ASSERT_FALSE(Rows.empty());
  const std::string Path = fixturePath(Name);

  if (const char *Update = std::getenv("LLVMMD_UPDATE_FIXTURES");
      Update && *Update == '1') {
    std::ofstream OS(Path, std::ios::trunc);
    for (const std::string &R : Rows)
      OS << R << '\n';
    ASSERT_TRUE(OS.good()) << "cannot write " << Path;
    GTEST_SKIP() << "rewrote " << Path;
  }

  std::ifstream IS(Path);
  ASSERT_TRUE(IS.good()) << "missing fixture " << Path;
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

} // namespace

TEST(SuiteVerdictsTest, MatchesPinnedFixture) {
  checkPinnedFixture(RS_Paper, "suite_verdicts.tsv");
}

TEST(SuiteVerdictsTest, MatchesPinnedAllRulesFixture) {
  checkPinnedFixture(RS_All, "suite_verdicts_all_rules.tsv");
}
