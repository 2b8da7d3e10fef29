//===- FleetTest.cpp - Sharded validation fleet tests -------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
// The fleet invariants, end to end over real worker processes (a stock
// `validate_server` binary next to this test in the build tree):
//
//  * a suite served by the router is byte-identical to the batch engine's
//    report at any worker count;
//  * identical concurrent submissions share one engine run, and a
//    Subscribe joins a running job's stream with nothing missing;
//  * a `kill -9`'d worker costs exactly the jobs in flight on it — each is
//    requeued once onto the restarted worker (or failed with WorkerLost
//    once the attempt budget is spent), and the fleet itself keeps serving;
//  * a fleet restarted on its merged store replays 100% warm;
//  * a job queued for a busy worker runs on an idle one, while a repeat
//    still returns to its sticky worker whenever that worker is free.
//
// The JobTable's bookkeeping (replay buffers, truncation, requeue frame
// skipping, attempt budgets, sticky affinity) is unit-tested directly — no
// processes — at the bottom of the file.
//
//===----------------------------------------------------------------------===//

#include "fleet/FleetRouter.h"
#include "fleet/JobTable.h"

#include "driver/Report.h"
#include "driver/ValidationEngine.h"
#include "driver/VerdictStore.h"
#include "opt/Pass.h"
#include "support/Trace.h"
#include "workload/Generator.h"
#include "workload/Profiles.h"

#include "TestUtil.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <thread>

#ifndef _WIN32
#include <csignal>
#include <sys/socket.h>
#include <unistd.h>
#endif

using namespace llvmmd;

namespace {

/// Fresh socket/store paths under the test temp dir, removed on
/// destruction (worker sockets and store shards included).
class FleetDir {
public:
  explicit FleetDir(const std::string &Tag)
      : Sock(::testing::TempDir() + "/llvmmd-fleet-" + Tag + ".sock"),
        Store(::testing::TempDir() + "/llvmmd-fleet-" + Tag + ".vstore") {
    cleanup();
  }
  ~FleetDir() { cleanup(); }

  void cleanup() {
    std::remove(Sock.c_str());
    std::remove(Store.c_str());
    std::remove((Store + ".lock").c_str());
    std::remove(VerdictStore::journalPath(Store).c_str());
    for (unsigned I = 0; I < 8; ++I) {
      std::remove((Sock + ".w" + std::to_string(I)).c_str());
      std::string Shard = VerdictStore::shardPath(Store, I);
      std::remove(Shard.c_str());
      std::remove((Shard + ".lock").c_str());
      std::remove(VerdictStore::journalPath(Shard).c_str());
    }
  }

  const std::string Sock, Store;
};

/// ctest runs with the build tree as its working directory, where the
/// worker binary lives.
constexpr const char *WorkerBinary = "./validate_server";

FleetConfig smallFleetConfig(const FleetDir &D, unsigned Workers,
                             bool WithStore = false, bool Triage = false) {
  FleetConfig C;
  C.UnixPath = D.Sock;
  C.Workers = Workers;
  C.WorkerBinary = WorkerBinary;
  C.WorkerThreads = 1;
  C.Triage = Triage;
  if (WithStore)
    C.StorePath = D.Store;
  return C;
}

SubmitPayload profileSubmission(const std::string &Name, unsigned Functions) {
  SubmitPayload Req;
  SubmitModule M;
  M.Source = SubmitProfile;
  M.Name = Name;
  M.FnCount = Functions;
  Req.Modules.push_back(std::move(M));
  return Req;
}

/// Connect + handshake against a default-rules fleet.
bool attach(ServerClient &Client, const std::string &Sock,
            std::string *Error = nullptr) {
  RuleConfig Rules;
  return Client.connectUnix(Sock, Error) &&
         Client.handshake(verdictStoreConfigDigest(Rules), nullptr, Error);
}

/// Consumes response events until JobDone (true) or an Error event /
/// transport failure (false). Collects the suite JSON, the JobDone stats,
/// and optionally every streamed event for sequence comparison.
bool drainJob(ServerClient &Client, std::string *SuiteJson,
              JobDonePayload *Done, ErrorPayload *JobError = nullptr,
              std::vector<std::string> *Sequence = nullptr) {
  for (;;) {
    ServerClient::Event E;
    if (!Client.nextEvent(E))
      return false;
    switch (E.K) {
    case ServerClient::Event::Kind::Function:
      if (Sequence)
        Sequence->push_back("fn:" + E.Function.Json);
      break;
    case ServerClient::Event::Kind::ModuleReport:
      if (Sequence)
        Sequence->push_back("mod:" + E.Module.Json);
      break;
    case ServerClient::Event::Kind::SuiteReport:
      if (SuiteJson)
        *SuiteJson = E.SuiteJson;
      if (Sequence)
        Sequence->push_back("suite:" + E.SuiteJson);
      break;
    case ServerClient::Event::Kind::JobDone:
      if (Done)
        *Done = E.Done;
      return true;
    case ServerClient::Event::Kind::Error:
      if (JobError)
        *JobError = E.Error;
      return false;
    }
  }
}

bool runJob(ServerClient &Client, const SubmitPayload &Req,
            std::string *SuiteJson, JobDonePayload *Done = nullptr) {
  if (!Client.submit(Req))
    return false;
  return drainJob(Client, SuiteJson, Done);
}

/// What the batch engine emits for the same submission and cache state.
std::string batchSuiteJSON(const std::vector<SubmitModule> &Mods) {
  Context Ctx;
  EngineConfig EC;
  EC.Threads = 1;
  ValidationEngine Engine(EC);
  SuiteReport SR;
  SR.Pipeline = getPaperPipeline();
  SR.RuleMask = EC.Rules.Mask;
  SR.Stepwise = false;
  SR.Threads = Engine.getThreadCount();
  for (const SubmitModule &M : Mods) {
    BenchmarkProfile P = getProfile(M.Name);
    if (M.FnCount)
      P.FunctionCount = M.FnCount;
    auto Mod = generateBenchmark(Ctx, P);
    SR.Modules.push_back(Engine.run(*Mod, getPaperPipeline()).Report);
  }
  return suiteToJSON(SR);
}

/// Polls \p Pred every 20ms until it holds or \p TimeoutMs elapses.
bool eventually(const std::function<bool()> &Pred, unsigned TimeoutMs = 30000) {
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(TimeoutMs);
  while (std::chrono::steady_clock::now() < Deadline) {
    if (Pred())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return Pred();
}

} // namespace

//===----------------------------------------------------------------------===//
// Byte-identity and handshake
//===----------------------------------------------------------------------===//

TEST(FleetTest, SuiteByteIdenticalToBatchAcrossWorkerCounts) {
  // The fleet adds process boundaries, sharding, and a router in the
  // middle — and no bytes: any worker count serves the exact batch report.
  std::string Expected =
      batchSuiteJSON(profileSubmission("sqlite", 10).Modules);
  for (unsigned Workers : {1u, 2u, 4u}) {
    FleetDir D("bytes" + std::to_string(Workers));
    FleetRouter Router(smallFleetConfig(D, Workers));
    std::string Error;
    ASSERT_TRUE(Router.start(&Error)) << Error;

    ServerClient Client;
    ASSERT_TRUE(attach(Client, D.Sock));
    std::string Suite;
    ASSERT_TRUE(runJob(Client, profileSubmission("sqlite", 10), &Suite));
    EXPECT_EQ(Suite, Expected) << "at " << Workers << " workers";
    Router.stop();
  }
}

TEST(FleetTest, HandshakeRejectsConfigDigestMismatch) {
  FleetDir D("digest");
  FleetRouter Router(smallFleetConfig(D, 1));
  std::string Error;
  ASSERT_TRUE(Router.start(&Error)) << Error;

  // The router gates the digest itself: a mismatched client is refused at
  // the front door, before any worker sees the submission.
  ServerClient Bad;
  ASSERT_TRUE(Bad.connectUnix(D.Sock));
  RuleConfig Extended;
  Extended.Mask = RS_All;
  std::string Err;
  EXPECT_FALSE(
      Bad.handshake(verdictStoreConfigDigest(Extended), nullptr, &Err));
  EXPECT_NE(Err.find("digest"), std::string::npos) << Err;

  ServerClient Good;
  EXPECT_TRUE(attach(Good, D.Sock));
  EXPECT_TRUE(Good.ping());
  EXPECT_EQ(Router.counters().HandshakesRejected, 1u);
  Router.stop();
}

//===----------------------------------------------------------------------===//
// Dedup and subscribe
//===----------------------------------------------------------------------===//

TEST(FleetTest, DuplicateConcurrentSubmissionsRunEngineOnce) {
  FleetDir D("dedup");
  FleetRouter Router(smallFleetConfig(D, 1));
  std::string Error;
  ASSERT_TRUE(Router.start(&Error)) << Error;

  // Occupy the only worker with a long job so the next submission is
  // deterministically still queued (= live in the table) when its
  // duplicate arrives.
  ServerClient Busy;
  ASSERT_TRUE(attach(Busy, D.Sock));
  ASSERT_TRUE(Busy.submit(profileSubmission("sqlite", 24)));

  SubmitPayload Shared = profileSubmission("hmmer", 8);
  ServerClient First;
  ASSERT_TRUE(attach(First, D.Sock));
  AcceptedPayload FirstAcc;
  bool FirstDedup = true;
  ASSERT_TRUE(First.submit(Shared, &FirstAcc, nullptr, &FirstDedup));
  EXPECT_FALSE(FirstDedup);

  ServerClient Second;
  ASSERT_TRUE(attach(Second, D.Sock));
  AcceptedPayload SecondAcc;
  bool SecondDedup = false;
  ASSERT_TRUE(Second.submit(Shared, &SecondAcc, nullptr, &SecondDedup));
  EXPECT_TRUE(SecondDedup);
  EXPECT_EQ(SecondAcc.JobId, FirstAcc.JobId);

  // Both subscribers get the complete stream, byte for byte.
  std::string SuiteA, SuiteB;
  JobDonePayload DoneA, DoneB;
  std::vector<std::string> SeqA, SeqB;
  EXPECT_TRUE(drainJob(First, &SuiteA, &DoneA, nullptr, &SeqA));
  EXPECT_TRUE(drainJob(Second, &SuiteB, &DoneB, nullptr, &SeqB));
  EXPECT_EQ(SeqA, SeqB);
  EXPECT_EQ(DoneA.JobId, DoneB.JobId);
  EXPECT_EQ(SuiteA, batchSuiteJSON(Shared.Modules));

  EXPECT_TRUE(drainJob(Busy, nullptr, nullptr));
  // Two Submits of the shared payload, one engine run.
  FleetCounters C = Router.counters();
  EXPECT_EQ(C.JobsDeduplicated, 1u);
  EXPECT_EQ(C.JobsSubmitted, 2u); // the busy job + the shared job
  EXPECT_EQ(Router.tableStats().Deduplicated, 1u);
  Router.stop();
}

TEST(FleetTest, SubscribeJoinsRunningJobWithFullStream) {
  FleetDir D("subscribe");
  FleetRouter Router(smallFleetConfig(D, 1));
  std::string Error;
  ASSERT_TRUE(Router.start(&Error)) << Error;

  ServerClient Busy;
  ASSERT_TRUE(attach(Busy, D.Sock));
  ASSERT_TRUE(Busy.submit(profileSubmission("sqlite", 24)));

  ServerClient Submitter;
  ASSERT_TRUE(attach(Submitter, D.Sock));
  AcceptedPayload Acc;
  ASSERT_TRUE(Submitter.submit(profileSubmission("hmmer", 8), &Acc));

  // Attach by id while the job is in flight (queued behind the busy one).
  ServerClient Watcher;
  ASSERT_TRUE(attach(Watcher, D.Sock));
  JobIdPayload Info;
  ASSERT_TRUE(Watcher.subscribe(Acc.JobId, &Info));
  EXPECT_EQ(Info.JobId, Acc.JobId);

  std::string SuiteA, SuiteB;
  JobDonePayload DoneA, DoneB;
  std::vector<std::string> SeqA, SeqB;
  EXPECT_TRUE(drainJob(Submitter, &SuiteA, &DoneA, nullptr, &SeqA));
  EXPECT_TRUE(drainJob(Watcher, &SuiteB, &DoneB, nullptr, &SeqB));
  EXPECT_EQ(SeqA, SeqB);
  EXPECT_FALSE(SuiteB.empty());

  EXPECT_TRUE(drainJob(Busy, nullptr, nullptr));
  EXPECT_EQ(Router.counters().Subscribes, 1u);
  Router.stop();
}

TEST(FleetTest, SubscribeUnknownJobIsRefused) {
  FleetDir D("unknown");
  FleetRouter Router(smallFleetConfig(D, 1));
  std::string Error;
  ASSERT_TRUE(Router.start(&Error)) << Error;

  ServerClient Client;
  ASSERT_TRUE(attach(Client, D.Sock));
  std::string Err;
  EXPECT_FALSE(Client.subscribe(999, nullptr, &Err));
  EXPECT_NE(Err.find("not running"), std::string::npos) << Err;
  // The connection survives the refusal.
  EXPECT_TRUE(Client.ping());
  EXPECT_EQ(Router.counters().UnknownJobErrors, 1u);
  Router.stop();
}

TEST(FleetTest, DisconnectedSubscriberDoesNotAffectTheOther) {
  FleetDir D("unsub");
  FleetRouter Router(smallFleetConfig(D, 1));
  std::string Error;
  ASSERT_TRUE(Router.start(&Error)) << Error;

  ServerClient Busy;
  ASSERT_TRUE(attach(Busy, D.Sock));
  ASSERT_TRUE(Busy.submit(profileSubmission("sqlite", 24)));

  SubmitPayload Shared = profileSubmission("hmmer", 8);
  ServerClient Stayer;
  ASSERT_TRUE(attach(Stayer, D.Sock));
  ASSERT_TRUE(Stayer.submit(Shared));

  ServerClient Leaver;
  ASSERT_TRUE(attach(Leaver, D.Sock));
  bool Dedup = false;
  ASSERT_TRUE(Leaver.submit(Shared, nullptr, nullptr, &Dedup));
  EXPECT_TRUE(Dedup);
  Leaver.close(); // gone before a single response frame

  std::string Suite;
  JobDonePayload Done;
  EXPECT_TRUE(drainJob(Stayer, &Suite, &Done));
  EXPECT_EQ(Suite, batchSuiteJSON(Shared.Modules));
  EXPECT_TRUE(drainJob(Busy, nullptr, nullptr));
  Router.stop();
}

//===----------------------------------------------------------------------===//
// Crash recovery
//===----------------------------------------------------------------------===//

TEST(FleetTest, KilledWorkerJobRequeuedAndCompleted) {
  FleetDir D("kill");
  FleetRouter Router(smallFleetConfig(D, 1));
  std::string Error;
  ASSERT_TRUE(Router.start(&Error)) << Error;

  ServerClient Client;
  ASSERT_TRUE(attach(Client, D.Sock));
  ASSERT_TRUE(Client.submit(profileSubmission("sqlite", 32)));

  // kill -9 the worker as soon as the job is dispatched to it. The
  // monitor reaps and respawns; the dispatcher reconnects and requeues.
  ASSERT_TRUE(eventually(
      [&] { return Router.counters().JobsDispatched >= 1; }));
  ASSERT_TRUE(Router.workers()->killWorker(0));

  std::string Suite;
  JobDonePayload Done;
  EXPECT_TRUE(drainJob(Client, &Suite, &Done));
  // The re-run is byte-identical (engine determinism), so the client sees
  // a complete, correct stream despite the crash in the middle of it.
  EXPECT_EQ(Suite, batchSuiteJSON(profileSubmission("sqlite", 32).Modules));

  FleetCounters C = Router.counters();
  EXPECT_EQ(C.JobsCompleted, 1u);
  EXPECT_LE(C.JobsRequeued, 1u); // the crash costs at most the job in flight
  EXPECT_EQ(C.JobsFailed, 0u);
  // The kill is always observed: the job was requeued, or — when the
  // worker had already streamed the whole job before the signal landed —
  // the monitor reaps and respawns it, which it does asynchronously.
  EXPECT_TRUE(eventually([&] {
    return Router.workerRestarts() + Router.counters().JobsRequeued >= 1;
  }));
  Router.stop();
}

namespace {

/// Jobs worker \p W has completed, asked over a fresh connection to the
/// worker's own socket (~0 when it does not answer).
uint64_t workerJobsCompleted(FleetRouter &Router, unsigned W) {
  ServerClient C;
  std::string Json;
  if (!attach(C, Router.workers()->socketPath(W)) || !C.stats(&Json))
    return ~0ull;
  const std::string Field = "\"completed\": ";
  size_t At = Json.find(Field);
  return At == std::string::npos
             ? ~0ull
             : std::strtoull(Json.c_str() + At + Field.size(), nullptr, 10);
}

} // namespace

TEST(FleetTest, IdleWorkerTakesJobQueuedBehindBusyOne) {
  FleetDir D("steal");
  FleetConfig FC = smallFleetConfig(D, 2);
  FC.HealthPing = false; // the frozen worker below must stay, not be killed
  FleetRouter Router(std::move(FC));
  std::string Error;
  ASSERT_TRUE(Router.start(&Error)) << Error;
  SubmitPayload X = profileSubmission("hmmer", 6);
  SubmitPayload Y = profileSubmission("sjeng", 6);
  SubmitPayload Big = profileSubmission("sqlite", 8);

  // Sticky round-robin: X's key prefers worker 0, Y's worker 1.
  ServerClient Client;
  ASSERT_TRUE(attach(Client, D.Sock));
  std::string Suite;
  ASSERT_TRUE(runJob(Client, X, &Suite));
  ASSERT_TRUE(runJob(Client, Y, &Suite));
  ASSERT_TRUE(eventually([&] {
    return workerJobsCompleted(Router, 0) == 1 &&
           workerJobsCompleted(Router, 1) == 1;
  }));
  // A repeat goes back to its sticky worker while that worker is free.
  ASSERT_TRUE(runJob(Client, X, &Suite));
  EXPECT_TRUE(eventually([&] {
    return workerJobsCompleted(Router, 0) == 2 &&
           workerJobsCompleted(Router, 1) == 1;
  }));

  // Freeze worker 0 and hand it the next new key: its dispatcher is busy
  // with a job the worker cannot answer until it is resumed.
  pid_t Frozen = Router.workers()->pid(0);
  ASSERT_GT(Frozen, 0);
  ASSERT_EQ(::kill(Frozen, SIGSTOP), 0);
  // Resumed on every exit path: a frozen worker would stall the stop.
  struct Thaw {
    pid_t P;
    ~Thaw() { ::kill(P, SIGCONT); }
  } Resume{Frozen};
  ServerClient Blocked;
  ASSERT_TRUE(attach(Blocked, D.Sock));
  ASSERT_TRUE(Blocked.submit(Big));
  ASSERT_TRUE(
      eventually([&] { return Router.counters().JobsDispatched >= 4; }));

  // X prefers worker 0, which is busy: the idle worker 1 runs it, and the
  // report is byte-identical to the batch path. Bounded, so a regression
  // fails instead of hanging behind the frozen worker.
  timeval Tv{30, 0};
  ::setsockopt(Client.fd(), SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
  std::string Stolen;
  bool Ran = runJob(Client, X, &Stolen);
  ::kill(Frozen, SIGCONT);
  ASSERT_TRUE(Ran) << "the job waited behind the busy worker";
  EXPECT_EQ(Stolen, batchSuiteJSON(X.Modules));
  EXPECT_TRUE(eventually([&] { return workerJobsCompleted(Router, 1) == 2; }));

  std::string BigSuite;
  EXPECT_TRUE(drainJob(Blocked, &BigSuite, nullptr));
  EXPECT_EQ(BigSuite, batchSuiteJSON(Big.Modules));
  EXPECT_TRUE(eventually([&] { return workerJobsCompleted(Router, 0) == 3; }));
  EXPECT_EQ(Router.counters().JobsCompleted, 5u);
  Router.stop();
}

TEST(FleetTest, AttemptBudgetExhaustionFailsJobWithWorkerLost) {
  FleetDir D("budget");
  FleetConfig FC = smallFleetConfig(D, 1);
  FC.MaxJobAttempts = 1; // no requeue: the first lost attempt is fatal
  FleetRouter Router(std::move(FC));
  std::string Error;
  ASSERT_TRUE(Router.start(&Error)) << Error;

  ServerClient Client;
  ASSERT_TRUE(attach(Client, D.Sock));
  ASSERT_TRUE(Client.submit(profileSubmission("sqlite", 256)));
  // Kill only once response frames are streaming: a worker lost *before*
  // the submit goes through costs no attempt (the dispatcher's link
  // retry rides out the restart) — the budget is only spent on a stream
  // that dies mid-flight.
  ASSERT_TRUE(eventually(
      [&] { return Router.tableStats().FramesFanned >= 1; }));
  ASSERT_TRUE(Router.workers()->killWorker(0));

  ErrorPayload E;
  EXPECT_FALSE(drainJob(Client, nullptr, nullptr, &E));
  EXPECT_EQ(E.Code, ErrorCode::WorkerLost);
  EXPECT_TRUE(eventually([&] { return Router.counters().JobsFailed == 1; }));
  EXPECT_EQ(Router.counters().JobsRequeued, 0u);

  // The fleet outlives the failure: the restarted worker serves the next
  // submission normally.
  ServerClient Retry;
  ASSERT_TRUE(attach(Retry, D.Sock));
  std::string Suite;
  EXPECT_TRUE(runJob(Retry, profileSubmission("hmmer", 6), &Suite));
  EXPECT_FALSE(Suite.empty());
  Router.stop();
}

TEST(FleetTest, IdleWorkerRestartedAfterKill) {
  FleetDir D("restart");
  FleetRouter Router(smallFleetConfig(D, 2));
  std::string Error;
  ASSERT_TRUE(Router.start(&Error)) << Error;

  WorkerManager *WM = Router.workers();
  pid_t OldPid = WM->pid(1);
  uint64_t OldGen = WM->generation(1);
  ASSERT_GT(OldPid, 0);
  ASSERT_TRUE(WM->killWorker(1));

  // The monitor reaps the corpse and respawns on the same socket with a
  // bumped generation.
  ASSERT_TRUE(eventually([&] {
    return WM->restarts() >= 1 && WM->pid(1) > 0 && WM->pid(1) != OldPid &&
           WM->generation(1) > OldGen;
  }));

  ServerClient Client;
  ASSERT_TRUE(attach(Client, D.Sock));
  std::string Suite;
  EXPECT_TRUE(runJob(Client, profileSubmission("hmmer", 6), &Suite));
  EXPECT_FALSE(Suite.empty());
  Router.stop();
}

//===----------------------------------------------------------------------===//
// Fleet-wide metrics roll-up
//===----------------------------------------------------------------------===//

TEST(FleetTest, MetricsRollUpAggregatesWorkersAndShowsRespawns) {
  FleetDir D("metrics");
  FleetRouter Router(smallFleetConfig(D, 2));
  std::string Error;
  ASSERT_TRUE(Router.start(&Error)) << Error;

  ServerClient Client;
  ASSERT_TRUE(attach(Client, D.Sock));
  std::string Suite;
  ASSERT_TRUE(runJob(Client, profileSubmission("sqlite", 8), &Suite));

  // Kill the idle worker and wait for the monitor to respawn it, so the
  // scrape that follows must show the restart.
  WorkerManager *WM = Router.workers();
  pid_t OldPid = WM->pid(1);
  ASSERT_TRUE(WM->killWorker(1));
  ASSERT_TRUE(eventually(
      [&] { return WM->restarts() >= 1 && WM->pid(1) > 0 &&
                   WM->pid(1) != OldPid; }));

  // Scrape until the respawned worker answers (its listen can lag the
  // monitor's respawn by a beat; a not-yet-up worker reports worker_up 0,
  // which is correct but not what this test is about).
  std::string Text;
  ASSERT_TRUE(eventually([&] {
    return Client.metrics(&Text) &&
           Text.find("llvmmd_fleet_worker_up{worker=\"1\"} 1") !=
               std::string::npos;
  })) << Text;
  // The router's own families: jobs routed, and the respawn the kill
  // caused.
  EXPECT_NE(Text.find("# TYPE llvmmd_fleet_jobs_completed_total counter"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("llvmmd_fleet_jobs_completed_total 1"),
            std::string::npos);
  // Anchor at line start: the bare find would hit the # HELP line.
  size_t RestartPos = Text.find("\nllvmmd_fleet_worker_restarts_total ");
  ASSERT_NE(RestartPos, std::string::npos);
  uint64_t Restarts = std::strtoull(
      Text.c_str() + RestartPos +
          std::strlen("\nllvmmd_fleet_worker_restarts_total "),
      nullptr, 10);
  EXPECT_GE(Restarts, 1u);

  // Per-worker liveness and the workers' own scrapes merged in, each
  // sample re-labeled with its worker — one TYPE group per family even
  // with two workers exporting the same names.
  EXPECT_NE(Text.find("llvmmd_fleet_worker_up{worker=\"0\"} 1"),
            std::string::npos);
  EXPECT_NE(Text.find("llvmmd_server_jobs_completed_total{worker=\"0\"}"),
            std::string::npos);
  EXPECT_NE(Text.find("llvmmd_server_jobs_completed_total{worker=\"1\"}"),
            std::string::npos);
  size_t FirstType =
      Text.find("# TYPE llvmmd_server_jobs_completed_total counter");
  ASSERT_NE(FirstType, std::string::npos);
  EXPECT_EQ(
      Text.find("# TYPE llvmmd_server_jobs_completed_total counter",
                FirstType + 1),
      std::string::npos)
      << "same-name worker families must merge into one TYPE group";
  Router.stop();
}

TEST(FleetTest, ConcurrentScrapesCoalesceOntoOneSweep) {
  FleetDir D("coalesce");
  FleetRouter Router(smallFleetConfig(D, 2));
  std::string Error;
  ASSERT_TRUE(Router.start(&Error)) << Error;

  // Prime the cache, then race a burst of scrapes inside the TTL: they
  // must all be served by at most one additional sweep (zero if the
  // primer's is still fresh), not one sweep each.
  std::string Primer = Router.metricsText();
  ASSERT_NE(Primer.find("llvmmd_fleet_metrics_sweeps_total"),
            std::string::npos)
      << Primer;
  uint64_t Before = Router.counters().MetricsSweeps;

  constexpr unsigned Scrapers = 8;
  std::vector<std::string> Texts(Scrapers);
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < Scrapers; ++I)
    Threads.emplace_back([&, I] { Texts[I] = Router.metricsText(); });
  for (std::thread &T : Threads)
    T.join();
  uint64_t After = Router.counters().MetricsSweeps;
  EXPECT_LE(After - Before, 1u)
      << Scrapers << " concurrent scrapes cost " << (After - Before)
      << " sweeps";
  for (const std::string &T : Texts)
    EXPECT_NE(T.find("llvmmd_fleet_workers"), std::string::npos);
  Router.stop();
}

//===----------------------------------------------------------------------===//
// Distributed tracing
//===----------------------------------------------------------------------===//

namespace {

/// Tracing is process-global; every enable must pair with a disable on
/// every exit path or later tests in this binary pay for it.
struct TraceGuard {
  TraceGuard() { traceEnable(); }
  ~TraceGuard() { traceDisable(); }
};

/// Distinct `args.trace_id` values in a Chrome trace JSON.
std::set<std::string> traceIdsIn(const std::string &Json) {
  std::set<std::string> Ids;
  size_t Pos = 0;
  while ((Pos = Json.find("\"trace_id\": \"", Pos)) != std::string::npos) {
    Pos += std::strlen("\"trace_id\": \"");
    Ids.insert(Json.substr(Pos, Json.find('"', Pos) - Pos));
  }
  return Ids;
}

/// Distinct pids among events that carry a trace id. Each event renders
/// `"pid": N` before its args, so scan back from every trace_id hit.
std::set<std::string> tracedPidsIn(const std::string &Json) {
  std::set<std::string> Pids;
  size_t Pos = 0;
  while ((Pos = Json.find("\"trace_id\":", Pos)) != std::string::npos) {
    size_t PidKey = Json.rfind("\"pid\": ", Pos);
    if (PidKey != std::string::npos) {
      PidKey += std::strlen("\"pid\": ");
      Pids.insert(Json.substr(PidKey, Json.find(',', PidKey) - PidKey));
    }
    ++Pos;
  }
  return Pids;
}

} // namespace

TEST(FleetTest, TracedFleetJobMergesOneFlameAcrossPids) {
  FleetDir D("trace");
  FleetRouter Router(smallFleetConfig(D, 1));
  std::string Error;
  ASSERT_TRUE(Router.start(&Error)) << Error;

  // Tracing on in the router's process = the fleet's front door mints a
  // trace id per admitted job; the worker self-enables when it sees it
  // and ships its spans home on JobDone.
  TraceGuard G;
  ServerClient Client;
  ASSERT_TRUE(attach(Client, D.Sock));
  std::string Suite;
  JobDonePayload Done;
  ASSERT_TRUE(runJob(Client, profileSubmission("hmmer", 6), &Suite, &Done));

  // The trace id rode JobDone back to the subscriber; the blob did not
  // (it is the router's to merge, not the client's to re-parse).
  EXPECT_NE(Done.TraceId, 0u);
  EXPECT_TRUE(Done.TraceBlob.empty());

  // Byte-identity holds with propagation enabled end to end.
  EXPECT_EQ(Suite, batchSuiteJSON(profileSubmission("hmmer", 6).Modules));

  Router.stop();
  std::string Json = traceToJSON();
  // One flame: a single trace id spanning at least two processes (router
  // dispatch + worker engine), with the phases nested under it.
  std::set<std::string> Ids = traceIdsIn(Json);
  EXPECT_EQ(Ids.size(), 1u) << Json;
  EXPECT_GE(tracedPidsIn(Json).size(), 2u)
      << "expected router and worker pids in one trace:\n"
      << Json;
  EXPECT_NE(Json.find("\"name\": \"dispatch\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\": \"job\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\": \"queue_wait\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\": \"validate\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Warm restart
//===----------------------------------------------------------------------===//

TEST(FleetTest, RestartedFleetReplaysEverythingWarm) {
  FleetDir D("warm");
  SubmitPayload Req = profileSubmission("sqlite", 10);
  std::string ColdSuite;

  {
    FleetRouter Router(
        smallFleetConfig(D, 2, /*WithStore=*/true, /*Triage=*/true));
    std::string Error;
    ASSERT_TRUE(Router.start(&Error)) << Error;
    ServerClient Client;
    ASSERT_TRUE(attach(Client, D.Sock));
    JobDonePayload Done;
    ASSERT_TRUE(runJob(Client, Req, &ColdSuite, &Done));
    EXPECT_GT(Done.Misses, 0u); // genuinely cold
    Router.stop();              // workers checkpoint; shards merge
  }

  VerdictStore::HeaderInfo Base = VerdictStore::peekHeader(D.Store);
  ASSERT_TRUE(Base.ok()) << Base.Message;
  EXPECT_GT(Base.VerdictEntries, 0u);

  {
    FleetRouter Router(
        smallFleetConfig(D, 2, /*WithStore=*/true, /*Triage=*/true));
    std::string Error;
    ASSERT_TRUE(Router.start(&Error)) << Error;
    ServerClient Client;
    ASSERT_TRUE(attach(Client, D.Sock));
    std::string WarmSuite;
    JobDonePayload Done;
    ASSERT_TRUE(runJob(Client, Req, &WarmSuite, &Done));
    // 100% warm: no verdict and no triage result computed from scratch —
    // and the replayed report carries the same verdict bytes.
    EXPECT_EQ(Done.Misses, 0u);
    EXPECT_EQ(Done.TriageMisses, 0u);
    EXPECT_GT(Done.Hits + Done.WarmHits + Done.SkippedIdentical, 0u);
    Router.stop();
  }
}

//===----------------------------------------------------------------------===//
// JobTable bookkeeping (no processes)
//===----------------------------------------------------------------------===//

namespace {

struct CaptureSink {
  JobTable::SinkPtr S;
  std::vector<std::pair<FrameType, std::string>> Frames;
  bool Fail = false;

  CaptureSink() : S(std::make_shared<JobTable::Sink>()) {
    S->Write = [this](FrameType T, const std::string &P) {
      if (Fail)
        return false;
      Frames.emplace_back(T, P);
      return true;
    };
  }
};

SubmitPayload inlineSubmission(const std::string &Name) {
  SubmitPayload Req;
  SubmitModule M;
  M.Source = SubmitProfile;
  M.Name = Name;
  M.FnCount = 4;
  Req.Modules.push_back(M);
  return Req;
}

} // namespace

TEST(FleetTest, JobTableDedupReplaysBufferedFrames) {
  JobTable::Config C;
  C.Workers = 2;
  JobTable T(C);

  CaptureSink A;
  auto R1 = T.submit(inlineSubmission("sqlite"), A.S,
                     [](uint64_t, bool Created, uint32_t) {
                       EXPECT_TRUE(Created);
                     });
  ASSERT_TRUE(R1.Created);

  T.beginAttempt(R1.J);
  T.deliver(R1.J, FrameType::Function, "f1");
  T.deliver(R1.J, FrameType::Function, "f2");

  // The duplicate joins mid-stream: the reply says two frames were
  // replayed, and the sink holds exactly the stream so far.
  CaptureSink B;
  uint32_t Replayed = 0;
  auto R2 = T.submit(inlineSubmission("sqlite"), B.S,
                     [&](uint64_t Id, bool Created, uint32_t N) {
                       EXPECT_FALSE(Created);
                       EXPECT_EQ(Id, R1.J->Id);
                       Replayed = N;
                     });
  EXPECT_FALSE(R2.Created);
  EXPECT_EQ(Replayed, 2u);
  ASSERT_EQ(B.Frames.size(), 2u);
  EXPECT_EQ(B.Frames[1].second, "f2");

  // A different submission is NOT deduplicated.
  CaptureSink Other;
  auto R3 = T.submit(inlineSubmission("hmmer"), Other.S,
                     [](uint64_t, bool, uint32_t) {});
  EXPECT_TRUE(R3.Created);

  T.deliver(R1.J, FrameType::SuiteReport, "s");
  JobDonePayload Done;
  T.complete(R1.J, Done);
  ASSERT_EQ(A.Frames.size(), 4u);
  ASSERT_EQ(B.Frames.size(), 4u);
  EXPECT_EQ(A.Frames.back().first, FrameType::JobDone);
  JobDonePayload DoneOut;
  ASSERT_TRUE(decodeJobDone(A.Frames.back().second, DoneOut));
  EXPECT_EQ(DoneOut.JobId, R1.J->Id); // rewritten to the router's id
  EXPECT_EQ(T.liveJobs(), 1u);        // only the hmmer job remains
  EXPECT_EQ(T.stats().Deduplicated, 1u);
}

TEST(FleetTest, JobTableTruncatedReplayRefusesAttachAndRedupes) {
  JobTable::Config C;
  C.ReplayBufferBytes = 24; // tiny: the second frame blows the window
  JobTable T(C);

  CaptureSink A;
  auto R = T.submit(inlineSubmission("sqlite"), A.S,
                    [](uint64_t, bool, uint32_t) {});
  T.beginAttempt(R.J);
  T.deliver(R.J, FrameType::Function, "0123456789");
  T.deliver(R.J, FrameType::Function, "0123456789"); // past the cap
  EXPECT_EQ(T.stats().ReplayTruncations, 1u);
  // The live subscriber still streams...
  EXPECT_EQ(A.Frames.size(), 2u);

  // ...but nothing can attach anymore: the replay would have a hole.
  CaptureSink B;
  std::string Err;
  EXPECT_EQ(T.subscribeJob(R.J->Id, B.S, [](uint64_t, bool, uint32_t) {},
                           &Err),
            nullptr);
  EXPECT_NE(Err.find("replay window"), std::string::npos) << Err;

  // A duplicate Submit gets a fresh job instead of a holey stream.
  CaptureSink C2;
  auto R2 = T.submit(inlineSubmission("sqlite"), C2.S,
                     [](uint64_t, bool, uint32_t) {});
  EXPECT_TRUE(R2.Created);
  EXPECT_NE(R2.J->Id, R.J->Id);
  // Same key, same sticky worker.
  EXPECT_EQ(R2.J->WorkerIndex, R.J->WorkerIndex);

  // The old job's finish must not evict the new job's key mapping.
  JobDonePayload Done;
  T.complete(R.J, Done);
  CaptureSink D2;
  auto R3 = T.submit(inlineSubmission("sqlite"), D2.S,
                     [](uint64_t, bool, uint32_t) {});
  EXPECT_FALSE(R3.Created);
  EXPECT_EQ(R3.J->Id, R2.J->Id);
}

TEST(FleetTest, JobTableRequeueSkipsAlreadyDeliveredFrames) {
  JobTable T(JobTable::Config{});
  CaptureSink A;
  auto R = T.submit(inlineSubmission("sqlite"), A.S,
                    [](uint64_t, bool, uint32_t) {});

  // Attempt 1 streams two frames, then the worker dies.
  T.beginAttempt(R.J);
  T.deliver(R.J, FrameType::Function, "f1");
  T.deliver(R.J, FrameType::Function, "f2");
  ASSERT_TRUE(T.requeueOrFail(R.J));

  // Attempt 2 re-produces the stream from the start (determinism); the
  // subscriber must see f1/f2 exactly once and f3 for the first time.
  T.beginAttempt(R.J);
  T.deliver(R.J, FrameType::Function, "f1");
  T.deliver(R.J, FrameType::Function, "f2");
  T.deliver(R.J, FrameType::Function, "f3");
  JobDonePayload Done;
  T.complete(R.J, Done);

  ASSERT_EQ(A.Frames.size(), 4u); // f1, f2, f3, JobDone
  EXPECT_EQ(A.Frames[0].second, "f1");
  EXPECT_EQ(A.Frames[1].second, "f2");
  EXPECT_EQ(A.Frames[2].second, "f3");
  EXPECT_EQ(A.Frames[3].first, FrameType::JobDone);
}

TEST(FleetTest, JobTableAttemptBudgetFailsJobWithWorkerLost) {
  JobTable::Config C;
  C.MaxJobAttempts = 2;
  JobTable T(C);
  CaptureSink A;
  auto R = T.submit(inlineSubmission("sqlite"), A.S,
                    [](uint64_t, bool, uint32_t) {});

  T.beginAttempt(R.J);
  EXPECT_TRUE(T.requeueOrFail(R.J)); // one requeue left
  T.beginAttempt(R.J);
  EXPECT_FALSE(T.requeueOrFail(R.J)); // budget spent: job failed

  ASSERT_EQ(A.Frames.size(), 1u);
  EXPECT_EQ(A.Frames[0].first, FrameType::Error);
  ErrorPayload E;
  ASSERT_TRUE(decodeError(A.Frames[0].second, E));
  EXPECT_EQ(E.Code, ErrorCode::WorkerLost);
  EXPECT_EQ(T.liveJobs(), 0u);
}

TEST(FleetTest, JobTableStickyAffinitySpreadsDistinctKeys) {
  JobTable::Config C;
  C.Workers = 4;
  JobTable T(C);

  auto WorkerOf = [&](const std::string &Name) {
    CaptureSink S;
    auto R = T.submit(inlineSubmission(Name), S.S,
                      [](uint64_t, bool, uint32_t) {});
    JobDonePayload Done;
    unsigned W = R.J->WorkerIndex;
    T.complete(R.J, Done); // finished: the next same-key submit re-creates
    return W;
  };

  unsigned A = WorkerOf("a"), B = WorkerOf("b"), C1 = WorkerOf("c"),
           D = WorkerOf("d");
  // Distinct keys take distinct round-robin slots...
  EXPECT_EQ((A + 1) % 4, B);
  EXPECT_EQ((B + 1) % 4, C1);
  EXPECT_EQ((C1 + 1) % 4, D);
  // ...and a key that comes back lands on the worker it warmed, even
  // though its first job is long gone.
  EXPECT_EQ(WorkerOf("a"), A);
  EXPECT_EQ(WorkerOf("c"), C1);
}
