//===- SuiteWorkloads.cpp - suite-cold and suite-warm ---------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
//
// One pass is what a batch CI job does with the suite: load the module
// files, build a fresh 4-thread ValidationEngine (suite-warm: it loads the
// verdict store), runSuite with the paper pipeline, and emit the suite
// JSON. suite-cold has no store, so every pair is validated; suite-warm's
// store was primed during set-up, so every pair replays from it.
//
// The suite is the paper's 12 Table-1 modules at every seed. Pass p submits
// them in Table-1 order rotated by seed + p: a few long pairs set the
// 4-thread wall, and where they land in the schedule moves it by a
// quarter, so every run walks the same rotations (the seed picks the
// first) and reports the median pass.
//
//===----------------------------------------------------------------------===//

#include "PerfBench.h"

#include "driver/ValidationEngine.h"
#include "ir/Context.h"
#include "ir/Module.h"
#include "opt/Pass.h"
#include "support/Hashing.h"
#include "support/Trace.h"

#include <cstdio>
#include <memory>

using namespace llvmmd;
using namespace perfbench;

namespace {

/// Set-ups per run; setup_s is their median. suite-cold's set-up only
/// writes the module files (tens of milliseconds), so it is repeated often
/// enough for the median to rise above timer and page-cache noise.
constexpr unsigned ColdSetupReps = 15;
constexpr unsigned WarmSetupReps = 3;

/// Earlier builds of the suite, validated into the suite-warm store besides
/// the measured one: the store stands in for a CI cache grown over several
/// builds, so a pass reads only a third of it. In an earlier build every
/// function carries a stamp drawn from (seed, build), so its verdicts are
/// keyed apart from the measured suite's while costing the same to prove.
constexpr unsigned EarlierBuilds = 2;

/// One measured pass. Owns the loaded modules and the engine's output, so
/// the checks can run on the very modules that were measured.
struct Pass {
  std::unique_ptr<Context> Ctx;
  LoadResult Loaded;
  SuiteRun Run;
  EngineCacheStats Stats;
  uint64_t WallUs = 0, SuiteUs = 0;
};

Pass runPass(const std::vector<ModuleFile> &Files, const EngineConfig &Cfg) {
  Pass P;
  P.Ctx = std::make_unique<Context>();
  Span Whole("pass", "bench");
  {
    Span S("loadModules", "ir");
    P.Loaded = loadFiles(*P.Ctx, Files);
  }
  if (!P.Loaded)
    return P;
  std::vector<const Module *> Mods;
  for (const LoadedModule &LM : P.Loaded.Modules)
    Mods.push_back(LM.M.get());
  std::unique_ptr<ValidationEngine> E;
  {
    Span S("ValidationEngine (store load)", "driver");
    E = std::make_unique<ValidationEngine>(Cfg);
  }
  {
    Span S("runSuite", "driver");
    P.Run = E->runSuite(Mods, getPaperPipeline());
    P.SuiteUs = S.end();
  }
  {
    Span S("suiteToJSON", "driver");
    std::string Json = suiteToJSON(P.Run.Report);
  }
  P.WallUs = Whole.end();
  P.Stats = E->cacheStats();
  return P;
}

/// Validates the measured suite and its earlier builds cold, in one batch,
/// and saves them into one store. Returns the measured suite's verdicts.
std::vector<Verdict> primeStore(const Options &O,
                                const std::vector<ModuleFile> &Files,
                                const std::string &StorePath, Outcome &Out,
                                uint64_t &SaveUs) {
  EngineConfig Cfg;
  Cfg.Threads = EngineThreads;
  Cfg.CachePath = StorePath;
  Cfg.CacheLoad = false;
  Cfg.CacheSave = false;
  ValidationEngine E(Cfg);
  Context Ctx;
  LoadResult L = loadFiles(Ctx, Files);
  std::vector<ModuleSpec> Earlier;
  for (unsigned Build = 1; Build <= EarlierBuilds; ++Build)
    for (const ModuleFile &F : Files) {
      ModuleSpec S;
      S.From = ModuleSpec::Source::Inline;
      S.Value = stamped(readFile(F.Path), -1,
                        hashCombine(O.Seed, Build) % 1000000000 + 1);
      S.Name = F.Name + ".build" + std::to_string(Build);
      S.Format = ModuleFormat::MiniIR;
      Earlier.push_back(std::move(S));
    }
  LoadResult LE = loadModules(Ctx, Earlier);
  if (!L || !LE) {
    Out.problem("loading the suite's builds: " + L.Error + LE.Error);
    return {};
  }
  std::vector<const Module *> Mods;
  for (const LoadResult *R : {&L, &LE})
    for (const LoadedModule &LM : R->Modules)
      Mods.push_back(LM.M.get());
  const std::vector<BenchmarkProfile> Suite = getPaperSuite();
  for (size_t I = 0; I < LE.Modules.size(); ++I) {
    std::string Bad = checkWellFormed(*LE.Modules[I].M,
                                      Suite[I % Suite.size()].FunctionCount);
    if (!Bad.empty())
      Out.problem("earlier build: " + Bad);
  }
  SuiteRun R = E.runSuite(Mods, getPaperPipeline());
  SuiteReport Measured = R.Report;
  Measured.Modules.resize(L.Modules.size());
  uint64_t T0 = nowUs();
  std::string Error;
  if (!E.saveCache(&Error))
    Out.problem("saving the verdict store: " + Error);
  SaveUs = nowUs() - T0;
  return verdictsOf(Measured);
}

/// What the measured loop observed, per pass.
struct LoopStats {
  unsigned Passes = 0;
  std::vector<double> WallMs, SuiteMs, OptimizeMs, ValidateMs, Utilisation,
      CriticalShare, StoreLoadMs;
  double Pairs = 0, Validated = 0, CacheHits = 0, WarmHits = 0,
         SkippedIdentical = 0, StoreEntries = 0;
  std::vector<Verdict> Verdicts; ///< the first pass's
  Pass First;

  /// Wall and pass count of the passes run with spans on [1] and off [0].
  double WallSum[2] = {0, 0};
  unsigned Count[2] = {0, 0};

  double pairsPerSecond(int Traced) const {
    return Pairs * Count[Traced] / (WallSum[Traced] / 1000.0);
  }
};

/// Runs passes for the run's seconds (at least two, so determinism across
/// passes is always checked), each in its own module order, and checks
/// each against the first. One untimed pass first lets the allocator and
/// page cache settle. A traced run switches the library's tracer on for
/// the second half of its seconds (and at least one pass), so the passes
/// of the first half give the overhead's base.
LoopStats measure(const std::vector<ModuleFile> &Files, const EngineConfig &Cfg,
                  const Options &O, Outcome &Out) {
  LoopStats L;
  bool Warm = !Cfg.CachePath.empty();
  runPass(Files, Cfg);
  uint64_t Start = nowUs();
  uint64_t Half = Start + static_cast<uint64_t>(O.Seconds * 0.5e6);
  uint64_t Deadline = Start + static_cast<uint64_t>(O.Seconds * 1e6);
  while (nowUs() < Deadline || L.Passes < 2 || (O.Trace && !L.Count[1])) {
    bool Traced = O.Trace && L.Passes > 0 && (L.Count[1] || nowUs() >= Half);
    if (Traced && !traceEnabled())
      traceEnable();
    std::vector<ModuleFile> Ordered;
    for (size_t I : rotation(O.Seed + L.Passes, Files.size()))
      Ordered.push_back(Files[I]);
    Pass P = runPass(Ordered, Cfg);
    if (!P.Loaded) {
      Out.problem("loading the suite: " + P.Loaded.Error);
      break;
    }
    const SuiteReport &R = P.Run.Report;
    ++L.Passes;
    Out.Attempted += R.transformed();
    L.WallMs.push_back(double(P.WallUs) / 1000.0);
    L.WallSum[Traced] += double(P.WallUs) / 1000.0;
    ++L.Count[Traced];
    L.SuiteMs.push_back(double(P.SuiteUs) / 1000.0);
    L.OptimizeMs.push_back(double(P.Stats.OptimizeMicroseconds) / 1000.0);
    L.ValidateMs.push_back(double(P.Stats.ValidateMicroseconds) / 1000.0);
    L.StoreLoadMs.push_back(double(P.Stats.StoreLoadMicroseconds) / 1000.0);

    // Pool accounting over the pairs this pass validated itself.
    uint64_t SumUs = 0, MaxUs = 0;
    unsigned NotWarm = 0;
    for (const ValidationReport &M : R.Modules)
      for (const FunctionReportEntry &F : M.Functions) {
        if (!F.Transformed || F.SkippedIdentical)
          continue;
        NotWarm += !F.WarmHit;
        if (F.CacheHit)
          continue;
        SumUs += F.Result.Microseconds;
        MaxUs = std::max(MaxUs, F.Result.Microseconds);
      }
    double VUs = double(std::max<uint64_t>(P.Stats.ValidateMicroseconds, 1));
    L.Utilisation.push_back(double(SumUs) / (EngineThreads * VUs));
    L.CriticalShare.push_back(double(MaxUs) / VUs);

    if (Warm)
      Out.failOps(NotWarm, "pairs of a suite-warm pass not replayed from "
                           "the store");
    std::vector<Verdict> V = verdictsOf(R);
    if (L.Passes == 1) {
      L.Pairs = R.transformed();
      L.Validated = R.validated();
      L.CacheHits = R.cacheHits();
      L.WarmHits = R.warmHits();
      L.SkippedIdentical = R.skippedIdentical();
      L.StoreEntries = double(P.Stats.StoreLoaded);
      L.Verdicts = std::move(V);
      L.First = std::move(P);
    } else {
      std::vector<std::string> Bad = verdictMismatches(L.Verdicts, V);
      Out.failOps(Bad.size(), "verdicts differ between passes: " +
                                  nameList(Bad));
    }
  }
  return L;
}

} // namespace

void perfbench::runSuiteWorkload(const Options &O, bool Warm, Outcome &Out) {
  const std::string StorePath = O.WorkDir + "/verdicts.store";
  EngineConfig Cfg;
  Cfg.Threads = EngineThreads;
  if (Warm) {
    Cfg.CachePath = StorePath;
    Cfg.CacheSave = false;
  }

  // Set-up: inputs as mini-IR files (and, warm, the primed store).
  std::vector<double> SetupS;
  std::vector<ModuleFile> Files;
  std::vector<Verdict> ColdVerdicts;
  uint64_t SaveUs = 0;
  for (unsigned Rep = 0; Rep < (Warm ? WarmSetupReps : ColdSetupReps);
       ++Rep) {
    std::remove(StorePath.c_str());
    uint64_t T0 = nowUs();
    Files = writeModules(O.WorkDir, getPaperSuite());
    if (Files.empty()) {
      Out.problem("cannot write the suite's module files");
      return;
    }
    if (Warm)
      ColdVerdicts = primeStore(O, Files, StorePath, Out, SaveUs);
    SetupS.push_back(secondsSince(T0));
  }
  std::string Drift = checkMatchesProfiles(Files);
  if (!Drift.empty())
    Out.problem("suite files are not the paper profiles: " + Drift);

  if (!resetPeakRss())
    Out.problem("cannot reset the peak-RSS mark after set-up");
  LoopStats L = measure(Files, Cfg, O, Out);
  double PeakRssMb = peakRssMb(false); // before the checks
  if (L.Passes == 0)
    return;
  const Pass &F = L.First;
  Out.note(std::string(Warm ? "suite-warm" : "suite-cold") + ": " +
           std::to_string(F.Run.Report.modules()) + " modules, " +
           std::to_string(F.Run.Report.total()) + " functions, " +
           std::to_string(F.Run.Report.transformed()) + " transformed, " +
           std::to_string(F.Run.Report.validated()) + " validated; " +
           std::to_string(L.Passes) + " passes of " +
           std::to_string(EngineThreads) + " engine threads");

  // Soundness: the interpreter cross-checks every validated pair against
  // the optimized module the engine produced.
  SoundnessResult Sound;
  PairSet Done;
  for (size_t I = 0; I < F.Loaded.Modules.size(); ++I) {
    SoundnessResult S = crossCheck(*F.Loaded.Modules[I].M,
                                   *F.Run.Optimized[I],
                                   F.Run.Report.Modules[I], Done);
    Sound.Checked += S.Checked;
    Sound.Witnessed.insert(Sound.Witnessed.end(), S.Witnessed.begin(),
                           S.Witnessed.end());
  }
  Out.failOps(Sound.Witnessed.size(),
              "validated pairs with an interpreter witness: " +
                  nameList(Sound.Witnessed));
  if (Sound.Checked == 0)
    Out.problem("soundness cross-check found no validated pair to check");
  if (Warm) {
    std::vector<std::string> Bad = verdictMismatches(ColdVerdicts, L.Verdicts);
    Out.failOps(Bad.size(),
                "warm replay differs from the cold verdicts: " + nameList(Bad));
  }

  if (!O.Trace) {
    Out.metric("setup_s", median(SetupS), "s");
    // Throughput of the median pass: a burst of host load slows a few
    // passes, not the figure.
    double PassMs = median(L.WallMs);
    Out.metric("pairs_per_s", L.Pairs / (PassMs / 1000.0), "pairs/s");
    Out.metric("jobs_per_s", 1000.0 / PassMs, "jobs/s");
    Out.metric("job_latency_p50_ms", median(L.WallMs), "ms");
    Out.metric("job_latency_p95_ms", quantile(L.WallMs, 0.95), "ms");
    Out.metric("validation_rate", L.Validated / L.Pairs, "ratio");
    Out.metric("peak_rss_mb", PeakRssMb, "MB");
    return;
  }

  // Traced run: the layer sweep gives the per-layer numbers.
  std::vector<SweepInput> In;
  for (const ModuleFile &MF : Files) {
    SweepInput S;
    S.Spec.Value = MF.Path;
    S.Spec.Name = MF.Name;
    S.Spec.Format = ModuleFormat::MiniIR;
    S.Bytes = MF.Bytes;
    In.push_back(std::move(S));
  }
  std::vector<Verdict> Traced = runLayerSweep(In, Out);
  std::vector<std::string> Bad = verdictMismatches(L.Verdicts, Traced);
  Out.failOps(Bad.size(), "1-thread traced verdicts differ from the "
                          "engine's: " + nameList(Bad));

  Out.metric("driver.suite_ms", median(L.SuiteMs), "ms");
  Out.metric("driver.optimize_ms", median(L.OptimizeMs), "ms");
  Out.metric("driver.validate_ms", median(L.ValidateMs), "ms");
  Out.metric("driver.pool_utilisation", median(L.Utilisation), "ratio");
  Out.metric("driver.critical_path_share", median(L.CriticalShare), "ratio");
  Out.metric("driver.cache_hits", L.CacheHits, "count");
  Out.metric("driver.warm_hits", L.WarmHits, "count");
  Out.metric("driver.skipped_identical", L.SkippedIdentical, "count");
  Out.metric("driver.store.load_ms", Warm ? median(L.StoreLoadMs) : 0, "ms");
  Out.metric("driver.store.save_ms", double(SaveUs) / 1000.0, "ms");
  Out.metric("driver.store.entries", L.StoreEntries, "count");
  Out.metric("driver.store.bytes", Warm ? fileBytes(StorePath) : 0, "bytes");
  Out.metric("driver.store.hit_ratio",
             L.StoreEntries ? L.WarmHits / L.StoreEntries : 0, "ratio");
  for (const char *Name : {"server.admit_ms", "server.stream_ms",
                           "server.queue_wait_ms", "fleet.dispatch_overhead_ms",
                           "fleet.warm_job_ms_p50", "fleet.cold_job_ms_p50"})
    Out.metric(Name, 0, "ms");
  for (const char *Name : {"fleet.dedup_hits", "fleet.requeues",
                           "fleet.checkpoints"})
    Out.metric(Name, 0, "count");
  Out.metric("trace.pairs_per_s", L.pairsPerSecond(1), "pairs/s");
  Out.metric("trace.untraced_pairs_per_s", L.pairsPerSecond(0), "pairs/s");
  Out.metric("trace.overhead_ratio", L.pairsPerSecond(1) / L.pairsPerSecond(0),
             "ratio");
}
