//===- FleetWorkload.cpp - fleet-mixed ------------------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
//
// An in-process FleetRouter over 2 stock validate_server workers with one
// engine thread each, its store seeded during set-up. Four client
// connections run a closed loop: each submits one inline module, waits for
// JobDone, then submits the next, as a CI caller does.
//
// The warm pool is the suite itself: the 12 Table-1 modules, whole, and the
// store holds their verdicts. Jobs come in rounds of 48, round n in Table-1
// order rotated by seed + n. Three of every four jobs repeat a pool module,
// so they cost protocol, dispatch, optimization and store reads. Every
// fourth is cold: the next pool module with a dead `add` stamped into the
// entry block of every function. The stamp's constant is distinct for every
// cold job and a function of the seed, so every fingerprint in the module
// is new: no cache holds its verdicts, and the worker runs the validator on
// all of them and checkpoints its store shard. ADCE deletes the stamp, so
// the validator's work is that of the unstamped module. A cold job is a CI
// rebuild of a translation unit the fleet has not seen.
//
// So every round validates the whole suite once, budget-capped tail
// included, and replays it three times. Job contents depend only on the
// job's index, so two commits given the same seed see the same jobs, and
// the loop stops on a whole round, so runs differ only in order: freshly
// generated cold modules would put a seed-dependent number of the pairs
// that exhaust the normalizer's iteration budget (up to seconds each) in
// each run.
//
//===----------------------------------------------------------------------===//

#include "PerfBench.h"

#include "driver/ValidationEngine.h"
#include "fleet/FleetRouter.h"
#include "ir/Context.h"
#include "ir/Module.h"
#include "opt/Pass.h"
#include "server/ServerClient.h"
#include "support/Hashing.h"
#include "support/Trace.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <thread>

using namespace llvmmd;
using namespace perfbench;

namespace {

constexpr unsigned Workers = 2;
constexpr unsigned Clients = 4;
/// A run needs this many jobs, so the p95 has 10 samples beyond it.
constexpr unsigned MinJobs = 200;
/// Set-ups per run; setup_s is their median.
constexpr unsigned SetupReps = 3;

const char *const SocketPath = "fleet.sock";
const char *const StorePath = "fleet.store";

struct FleetModule {
  std::string Name;
  std::string Text;
  unsigned Functions = 0;
};

struct Inputs {
  uint64_t Seed = 0;
  std::vector<FleetModule> Warm;
  /// Jobs per round: each pool module three times and stamped once.
  uint64_t round() const { return 4 * Warm.size(); }
};

Inputs makeInputs(const Options &O) {
  Inputs In;
  In.Seed = O.Seed;
  for (const BenchmarkProfile &P : getPaperSuite())
    In.Warm.push_back({"warm-" + P.Name, moduleText(P), P.FunctionCount});
  return In;
}

/// The pool order of round \p Round.
std::vector<size_t> roundOrder(const Inputs &In, uint64_t Round) {
  return rotation(In.Seed + Round, In.Warm.size());
}

/// Module ids: 0..Warm-1 are the warm pool, Warm + c is cold module c.
size_t moduleOfJob(uint64_t J, const Inputs &In) {
  uint64_t W = In.Warm.size(), Round = J / In.round(), Q = J % In.round();
  if (Q % 4 == 3)
    return W + Round * W + Q / 4;
  return roundOrder(In, Round)[(3 * (Q / 4) + Q % 4) % W];
}

FleetModule moduleAt(size_t M, const Inputs &In) {
  if (M < In.Warm.size())
    return In.Warm[M];
  uint64_t C = M - In.Warm.size(), Round = C / In.Warm.size();
  const FleetModule &Base = In.Warm[roundOrder(In, Round)[C % In.Warm.size()]];
  return {"cold" + std::to_string(C) + "-" + Base.Name.substr(5),
          stamped(Base.Text, -1, hashCombine(In.Seed, 0) % 1000000000 + C + 1),
          Base.Functions};
}

ModuleSpec inlineSpec(const FleetModule &M) {
  ModuleSpec S;
  S.From = ModuleSpec::Source::Inline;
  S.Value = M.Text;
  S.Name = M.Name;
  S.Format = ModuleFormat::MiniIR;
  return S;
}

/// Validates the warm pool into the store the fleet is seeded from.
void primeStore(const Inputs &In, Outcome &Out, uint64_t &SaveUs) {
  EngineConfig Cfg;
  Cfg.Threads = EngineThreads;
  Cfg.CachePath = StorePath;
  Cfg.CacheLoad = false;
  Cfg.CacheSave = false;
  ValidationEngine E(Cfg);
  Context Ctx;
  std::vector<ModuleSpec> Specs;
  for (const FleetModule &M : In.Warm)
    Specs.push_back(inlineSpec(M));
  LoadResult L = loadModules(Ctx, Specs);
  if (!L) {
    Out.problem("loading the warm pool: " + L.Error);
    return;
  }
  std::vector<const Module *> Mods;
  for (const LoadedModule &LM : L.Modules)
    Mods.push_back(LM.M.get());
  SuiteRun R = E.runSuite(Mods, getPaperPipeline());
  uint64_t T0 = nowUs();
  std::string Error;
  if (!E.saveCache(&Error))
    Out.problem("saving the fleet's base store: " + Error);
  SaveUs = nowUs() - T0;
}

/// One client-side job record.
struct Job {
  uint64_t Index = 0;
  size_t Module = 0;
  bool Cold = false;
  bool Done = false;
  std::string Error;
  double LatencyMs = 0, AdmitMs = 0, EngineMs = 0;
  uint64_t DoneUs = 0;
  JobDonePayload Stats;
  /// The report's verdicts, digested once the job is timed.
  uint64_t Digest = 0;
  unsigned Pairs = 0, Validated = 0;
};

/// Submits job \p Index (module \p Module) on an open connection and
/// waits for its JobDone.
Job runJob(ServerClient &C, uint64_t Index, size_t Module, const Inputs &In) {
  Job J;
  J.Index = Index;
  J.Module = Module;
  J.Cold = Module >= In.Warm.size();
  FleetModule M = moduleAt(J.Module, In);
  SubmitPayload Req;
  SubmitModule SM;
  SM.Source = SubmitInlineMini;
  SM.Name = M.Name;
  SM.Text = std::move(M.Text);
  Req.Modules.push_back(std::move(SM));

  Span Whole(J.Cold ? "cold job" : "warm job", "fleet", M.Name);
  {
    Span S("submit -> Accepted", "server", M.Name);
    if (!C.submit(Req, nullptr, &J.Error))
      return J;
    J.AdmitMs = double(S.end()) / 1000.0;
  }
  Span Stream("Accepted -> JobDone", "server", M.Name);
  std::string Json;
  for (;;) {
    ServerClient::Event E;
    if (!C.nextEvent(E, &J.Error))
      return J;
    if (E.K == ServerClient::Event::Kind::SuiteReport)
      Json = std::move(E.SuiteJson);
    if (E.K == ServerClient::Event::Kind::Error) {
      J.Error = E.Error.Message;
      return J;
    }
    if (E.K == ServerClient::Event::Kind::JobDone) {
      J.Stats = E.Done;
      break;
    }
  }
  Stream.end();
  J.Done = true;
  J.LatencyMs = double(Whole.end()) / 1000.0;
  J.DoneUs = nowUs();
  J.EngineMs = double(J.Stats.WallMicroseconds) / 1000.0;
  std::vector<Verdict> V = verdictsFromJSON(Json);
  J.Digest = V.empty() ? 0 : verdictDigest(V);
  for (const Verdict &X : V) {
    J.Pairs += X.Transformed;
    J.Validated += X.Transformed && X.Validated;
  }
  return J;
}

bool connect(ServerClient &C, uint64_t Digest, std::string *Error) {
  C.close();
  return C.connectUnix(SocketPath, Error) &&
         C.handshake(Digest, nullptr, Error);
}

/// Sum of a family's samples over every worker label in a /metrics text.
double sumSamples(const std::string &Text, const std::string &Name) {
  double Sum = 0;
  std::istringstream IS(Text);
  for (std::string Line; std::getline(IS, Line);) {
    if (Line.compare(0, Name.size(), Name) != 0 || Line.size() == Name.size() ||
        (Line[Name.size()] != '{' && Line[Name.size()] != ' '))
      continue;
    Sum += std::strtod(Line.c_str() + Line.rfind(' ') + 1, nullptr);
  }
  return Sum;
}

struct Scrape {
  double QueueWaitUs = 0, QueueWaitJobs = 0, Checkpoints = 0;
  FleetCounters Counters;
};

Scrape scrape(FleetRouter &R, Outcome &Out) {
  Scrape S;
  S.Counters = R.counters();
  ServerClient C;
  std::string Text, Error;
  if (!connect(C, R.configDigest(), &Error) || !C.metrics(&Text, &Error)) {
    Out.problem("scraping fleet metrics: " + Error);
    return S;
  }
  S.QueueWaitUs = sumSamples(Text, "llvmmd_server_queue_wait_us_sum");
  S.QueueWaitJobs = sumSamples(Text, "llvmmd_server_queue_wait_us_count");
  S.Checkpoints = sumSamples(Text, "llvmmd_server_checkpoint_us_count");
  return S;
}

struct LoopResult {
  std::vector<Job> Jobs;
  uint64_t StartUs = 0;
  double WallS = 0;
  uint64_t EndJob = 0; ///< the first job index not run
};

/// The closed loop: Clients connections, each submitting its next job only
/// after the previous one's JobDone, from job \p FirstJob (a round's first)
/// on. Once \p Seconds have passed, no job of a later round starts, so the
/// loop ends on a whole round, and it runs at least one.
LoopResult runLoop(FleetRouter &R, const Inputs &In, uint64_t FirstJob,
                   double Seconds) {
  LoopResult L;
  std::vector<std::vector<Job>> PerClient(Clients);
  std::atomic<uint64_t> Next{FirstJob}, StopAt{UINT64_MAX};
  uint64_t Digest = R.configDigest();
  uint64_t Start = nowUs();
  uint64_t Deadline = Start + static_cast<uint64_t>(Seconds * 1e6);
  std::vector<std::thread> Threads;
  for (unsigned Ci = 0; Ci < Clients; ++Ci)
    Threads.emplace_back([&, Ci] {
      ServerClient C;
      std::string Error;
      bool Connected = connect(C, Digest, &Error);
      for (;;) {
        uint64_t J = Next.fetch_add(1);
        if (nowUs() >= Deadline) {
          uint64_t End = std::max(J / In.round() + 1,
                                  FirstJob / In.round() + 1) *
                         In.round();
          uint64_t Cur = StopAt.load();
          while (End < Cur && !StopAt.compare_exchange_weak(Cur, End)) {
          }
        }
        if (J >= StopAt.load())
          break;
        size_t M = moduleOfJob(J, In);
        if (!Connected) {
          Job Failed;
          Failed.Index = J;
          Failed.Error = Error;
          PerClient[Ci].push_back(Failed);
          Connected = connect(C, Digest, &Error);
          continue;
        }
        PerClient[Ci].push_back(runJob(C, J, M, In));
        if (!PerClient[Ci].back().Done)
          Connected = connect(C, Digest, &Error);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  L.StartUs = Start;
  L.WallS = secondsSince(Start);
  L.EndJob = StopAt.load();
  for (std::vector<Job> &V : PerClient)
    for (Job &J : V)
      L.Jobs.push_back(std::move(J));
  std::sort(L.Jobs.begin(), L.Jobs.end(),
            [](const Job &A, const Job &B) { return A.Index < B.Index; });
  return L;
}

/// The fleet's modules through one batch engine: the reference the
/// fleet's reports must match, and the optimized code the soundness check
/// runs on. Loaded a chunk at a time into fresh Contexts, so memory stays
/// bounded however many cold modules a run made.
struct Batch {
  std::vector<std::vector<Verdict>> PerModule; ///< indexed like the modules
  std::vector<uint64_t> Digests;               ///< of PerModule
  EngineCacheStats Stats;
  uint64_t PairUs = 0, MaxPairUs = 0; ///< over pairs it validated itself
  SoundnessResult Sound;
  /// Per module: it holds a validated pair with an interpreter witness.
  std::vector<bool> Unsound;
};

Batch runBatch(const std::vector<size_t> &Modules, const Inputs &In,
               Outcome &Out) {
  constexpr size_t Chunk = 12;
  Batch B;
  PairSet Done;
  EngineConfig Cfg;
  Cfg.Threads = EngineThreads;
  ValidationEngine E(Cfg);
  for (size_t First = 0; First < Modules.size(); First += Chunk) {
    Context Ctx;
    std::vector<ModuleSpec> Specs;
    for (size_t I = First; I < std::min(Modules.size(), First + Chunk); ++I)
      Specs.push_back(inlineSpec(moduleAt(Modules[I], In)));
    LoadResult L = loadModules(Ctx, Specs);
    if (!L) {
      Out.problem("loading the fleet's modules for the batch check: " +
                  L.Error);
      return B;
    }
    std::vector<const Module *> Mods;
    for (const LoadedModule &LM : L.Modules)
      Mods.push_back(LM.M.get());
    SuiteRun R = E.runSuite(Mods, getPaperPipeline());
    for (size_t I = 0; I < Mods.size(); ++I) {
      const ValidationReport &MR = R.Report.Modules[I];
      SuiteReport One;
      One.Modules.push_back(MR);
      B.PerModule.push_back(verdictsOf(One));
      B.Digests.push_back(verdictDigest(B.PerModule.back()));
      SoundnessResult SR = crossCheck(*Mods[I], *R.Optimized[I], MR, Done);
      B.Sound.Checked += SR.Checked;
      B.Sound.Witnessed.insert(B.Sound.Witnessed.end(), SR.Witnessed.begin(),
                               SR.Witnessed.end());
      B.Unsound.push_back(!SR.Witnessed.empty());
      for (const FunctionReportEntry &F : MR.Functions)
        if (F.Transformed && !F.SkippedIdentical && !F.CacheHit) {
          B.PairUs += F.Result.Microseconds;
          B.MaxPairUs = std::max(B.MaxPairUs, F.Result.Microseconds);
        }
    }
  }
  B.Stats = E.cacheStats();
  return B;
}

/// Per-job checks and the end-to-end numbers of one loop.
struct LoopSummary {
  unsigned Completed = 0;
  double Pairs = 0, Validated = 0;
  /// Per round: completed jobs, transformed pairs, and the last JobDone.
  std::vector<double> RoundJobs, RoundPairs;
  std::vector<uint64_t> RoundEndUs;
  std::vector<double> Latency, Admit, Stream, Overhead, WarmMs, ColdMs;
  double Hits = 0, WarmHits = 0, Misses = 0, Skipped = 0;
  std::vector<double> EngineMs;
};

LoopSummary checkLoop(const LoopResult &L, const Inputs &In,
                      const std::vector<size_t> &Modules, const Batch &B,
                      Outcome &Out) {
  LoopSummary S;
  for (const Job &J : L.Jobs) {
    ++Out.Attempted;
    // One failed operation per job, under the first check it fails.
    size_t Ref = std::lower_bound(Modules.begin(), Modules.end(), J.Module) -
                 Modules.begin();
    std::string Why;
    if (!J.Done)
      Why = "fleet job did not reach JobDone: " + J.Error;
    else if (!J.Cold && J.Stats.Misses != 0)
      Why = "warm fleet job validated pairs from scratch";
    else if (J.Cold && J.Stats.Misses == 0)
      Why = "cold fleet job was served from a cache";
    else if (Ref >= B.Digests.size() || J.Digest != B.Digests[Ref])
      Why = "fleet report differs from batch suiteToJSON";
    else if (B.Unsound[Ref])
      Why = "fleet job's module has validated pairs with an interpreter "
            "witness: " + nameList(B.Sound.Witnessed);
    if (!Why.empty()) {
      Out.failOps(1, Why);
      continue;
    }
    ++S.Completed;
    size_t Round = J.Index / In.round();
    if (Round >= S.RoundPairs.size()) {
      S.RoundJobs.resize(Round + 1, 0);
      S.RoundPairs.resize(Round + 1, 0);
      S.RoundEndUs.resize(Round + 1, 0);
    }
    S.RoundEndUs[Round] = std::max(S.RoundEndUs[Round], J.DoneUs);
    S.RoundJobs[Round] += 1;
    S.RoundPairs[Round] += J.Pairs;
    S.Latency.push_back(J.LatencyMs);
    S.Pairs += J.Pairs;
    S.Validated += J.Validated;
    S.Admit.push_back(J.AdmitMs);
    S.Stream.push_back(std::max(0.0, J.LatencyMs - J.AdmitMs - J.EngineMs));
    S.Overhead.push_back(std::max(0.0, J.LatencyMs - J.EngineMs));
    (J.Cold ? S.ColdMs : S.WarmMs).push_back(J.LatencyMs);
    S.EngineMs.push_back(J.EngineMs);
    S.Hits += double(J.Stats.Hits);
    S.WarmHits += double(J.Stats.WarmHits);
    S.Misses += double(J.Stats.Misses);
    S.Skipped += double(J.Stats.SkippedIdentical);
  }
  if (S.Completed < MinJobs)
    Out.problem("only " + std::to_string(S.Completed) +
                " fleet jobs completed; a run needs " +
                std::to_string(MinJobs) + " for its p95");
  return S;
}

/// Each round's wall, from the previous round's last JobDone (the loop's
/// start for the first) to its own.
std::vector<double> roundWalls(const LoopSummary &S, uint64_t StartUs) {
  std::vector<double> Walls;
  uint64_t Prev = StartUs;
  for (uint64_t End : S.RoundEndUs) {
    Walls.push_back(double(End - std::min(Prev, End)) / 1e6);
    Prev = std::max(Prev, End);
  }
  return Walls;
}

} // namespace

void perfbench::runFleetWorkload(const Options &O, Outcome &Out) {
  FleetConfig FC;
  FC.UnixPath = SocketPath;
  FC.Workers = Workers;
  FC.WorkerThreads = 1;
  FC.WorkerBinary = O.WorkerBinary;
  FC.StorePath = StorePath;

  // Set-up: inputs, the primed base store, the fleet spawned and warmed.
  std::vector<double> SetupS;
  Inputs In;
  uint64_t SaveUs = 0;
  std::unique_ptr<FleetRouter> Router;
  for (unsigned Rep = 0; Rep < SetupReps; ++Rep) {
    if (Router)
      Router->stop();
    Router.reset();
    std::remove(StorePath);
    for (unsigned W = 0; W < Workers; ++W)
      std::remove(VerdictStore::shardPath(StorePath, W).c_str());

    uint64_t T0 = nowUs();
    In = makeInputs(O);
    primeStore(In, Out, SaveUs);
    Router = std::make_unique<FleetRouter>(FC);
    std::string Error;
    if (!Router->start(&Error)) {
      Out.problem("starting the fleet: " + Error);
      return;
    }
    ServerClient C;
    if (!connect(C, Router->configDigest(), &Error)) {
      Out.problem("connecting to the fleet: " + Error);
      return;
    }
    for (size_t M = 0; M < In.Warm.size(); ++M) {
      Job J = runJob(C, M, M, In);
      if (!J.Done)
        Out.problem("warm-up job for " + In.Warm[M].Name + ": " + J.Error);
      else if (J.Stats.Misses != 0)
        Out.problem("warm-up job for " + In.Warm[M].Name +
                    " was not served from the store");
    }
    SetupS.push_back(secondsSince(T0));
  }
  for (size_t C = 0; C < In.Warm.size(); ++C) {
    FleetModule M = moduleAt(In.Warm.size() + C, In);
    Context Ctx;
    LoadResult L = loadModule(Ctx, inlineSpec(M));
    std::string Bad =
        L ? checkWellFormed(*L.Modules.front().M, M.Functions) : L.Error;
    if (!Bad.empty()) {
      Out.problem("cold module " + M.Name + ": " + Bad);
      break;
    }
  }

  // A traced run measures its first half untraced, the overhead's base,
  // and switches the library's tracer on for the second: the router then
  // propagates trace ids and merges the workers' spans.
  if (!resetPeakRss())
    Out.problem("cannot reset the peak-RSS mark after set-up");
  Scrape Before = scrape(*Router, Out);
  LoopResult L = runLoop(*Router, In, 0, O.Trace ? O.Seconds / 2 : O.Seconds);
  uint64_t FirstTracedRound = UINT64_MAX;
  if (O.Trace) {
    FirstTracedRound = L.EndJob / In.round();
    traceEnable();
    LoopResult T = runLoop(*Router, In, L.EndJob, O.Seconds / 2);
    for (Job &J : T.Jobs)
      L.Jobs.push_back(std::move(J));
    L.WallS += T.WallS;
  }
  Scrape After = scrape(*Router, Out);
  Router->stop();
  Router.reset();
  // Before the checks, whose batch run holds every module at once.
  double PeakRssMb = peakRssMb(true);

  // Every distinct module the fleet ran, through the batch engine.
  std::vector<size_t> Modules;
  for (const Job &J : L.Jobs)
    Modules.push_back(J.Module);
  std::sort(Modules.begin(), Modules.end());
  Modules.erase(std::unique(Modules.begin(), Modules.end()), Modules.end());
  Batch B = runBatch(Modules, In, Out);
  LoopSummary S = checkLoop(L, In, Modules, B, Out);
  if (B.Sound.Checked == 0)
    Out.problem("soundness cross-check found no validated pair to check");

  unsigned Cold = 0;
  for (const Job &J : L.Jobs)
    Cold += J.Cold;
  Out.note("fleet-mixed: " + std::to_string(Workers) + " workers x 1 engine "
           "thread, " + std::to_string(Clients) + " closed-loop clients; " +
           std::to_string(L.Jobs.size()) + " jobs (" + std::to_string(Cold) +
           " cold) of whole Table-1 modules in " + std::to_string(L.WallS) +
           " s");

  // Every round does the same work, so the throughput figures are medians
  // over rounds: a few seconds of host noise move one round, not the run.
  std::vector<double> Walls = roundWalls(S, L.StartUs);
  if (!O.Trace) {
    std::vector<double> Jobs, Pairs;
    for (size_t R = 0; R < Walls.size(); ++R) {
      if (Walls[R] <= 0 || S.RoundJobs[R] == 0)
        continue;
      Jobs.push_back(S.RoundJobs[R] / Walls[R]);
      Pairs.push_back(S.RoundPairs[R] / Walls[R]);
    }
    Out.metric("setup_s", median(SetupS), "s");
    Out.metric("pairs_per_s", median(Pairs), "pairs/s");
    Out.metric("jobs_per_s", median(Jobs), "jobs/s");
    Out.metric("job_latency_p50_ms", median(S.Latency), "ms");
    Out.metric("job_latency_p95_ms", quantile(S.Latency, 0.95), "ms");
    Out.metric("validation_rate", S.Pairs ? S.Validated / S.Pairs : 0,
               "ratio");
    Out.metric("peak_rss_mb", PeakRssMb, "MB");
    return;
  }

  // The sweep covers the warm pool and the first round's cold modules.
  std::vector<SweepInput> Sweep;
  std::vector<Verdict> Batched;
  for (size_t I = 0; I < Modules.size() && I < B.PerModule.size(); ++I) {
    if (Modules[I] >= 2 * In.Warm.size())
      break;
    SweepInput SI;
    SI.Spec = inlineSpec(moduleAt(Modules[I], In));
    SI.Bytes = SI.Spec.Value.size();
    Sweep.push_back(std::move(SI));
    Batched.insert(Batched.end(), B.PerModule[I].begin(),
                   B.PerModule[I].end());
  }
  std::vector<Verdict> Traced = runLayerSweep(Sweep, Out);
  std::vector<std::string> Bad = verdictMismatches(Batched, Traced);
  Out.failOps(Bad.size(), "1-thread traced verdicts differ from the "
                          "engine's: " + nameList(Bad));

  // Engine layer: per-job figures from JobDone, pool figures from the
  // batch reference run over the same modules.
  double VUs = double(std::max<uint64_t>(B.Stats.ValidateMicroseconds, 1));
  Out.metric("driver.suite_ms", median(S.EngineMs), "ms");
  Out.metric("driver.optimize_ms", B.Stats.OptimizeMicroseconds / 1000.0, "ms");
  Out.metric("driver.validate_ms", B.Stats.ValidateMicroseconds / 1000.0, "ms");
  Out.metric("driver.pool_utilisation", B.PairUs / (EngineThreads * VUs),
             "ratio");
  Out.metric("driver.critical_path_share", B.MaxPairUs / VUs, "ratio");
  Out.metric("driver.cache_hits", S.Hits, "count");
  Out.metric("driver.warm_hits", S.WarmHits, "count");
  Out.metric("driver.skipped_identical", S.Skipped, "count");

  EngineConfig Probe;
  Probe.Threads = 1;
  Probe.CachePath = StorePath;
  Probe.CacheSave = false;
  ValidationEngine P(Probe);
  Out.metric("driver.store.load_ms",
             P.cacheStats().StoreLoadMicroseconds / 1000.0, "ms");
  Out.metric("driver.store.save_ms", SaveUs / 1000.0, "ms");
  Out.metric("driver.store.entries", double(P.cacheStats().StoreLoaded),
             "count");
  Out.metric("driver.store.bytes", fileBytes(StorePath), "bytes");
  Out.metric("driver.store.hit_ratio",
             S.Hits + S.Misses ? S.WarmHits / (S.Hits + S.Misses) : 0,
             "ratio");

  double Waited = After.QueueWaitJobs - Before.QueueWaitJobs;
  Out.metric("server.admit_ms", median(S.Admit), "ms");
  Out.metric("server.stream_ms", median(S.Stream), "ms");
  Out.metric("server.queue_wait_ms",
             Waited > 0 ? (After.QueueWaitUs - Before.QueueWaitUs) / Waited /
                              1000.0
                        : 0,
             "ms");
  Out.metric("fleet.dispatch_overhead_ms", median(S.Overhead), "ms");
  Out.metric("fleet.warm_job_ms_p50", median(S.WarmMs), "ms");
  Out.metric("fleet.cold_job_ms_p50", median(S.ColdMs), "ms");
  Out.metric("fleet.dedup_hits",
             double(After.Counters.JobsDeduplicated -
                    Before.Counters.JobsDeduplicated),
             "count");
  Out.metric("fleet.requeues",
             double(After.Counters.JobsRequeued - Before.Counters.JobsRequeued),
             "count");
  Out.metric("fleet.checkpoints", After.Checkpoints - Before.Checkpoints,
             "count");
  double Pairs[2] = {0, 0}, WallS[2] = {0, 0};
  for (size_t R = 0; R < Walls.size(); ++R) {
    Pairs[R >= FirstTracedRound] += S.RoundPairs[R];
    WallS[R >= FirstTracedRound] += Walls[R];
  }
  double TracedRate = Pairs[1] / WallS[1], Untraced = Pairs[0] / WallS[0];
  Out.metric("trace.pairs_per_s", TracedRate, "pairs/s");
  Out.metric("trace.untraced_pairs_per_s", Untraced, "pairs/s");
  Out.metric("trace.overhead_ratio", TracedRate / Untraced, "ratio");
}
