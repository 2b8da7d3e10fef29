//===- FleetRouter.h - Sharded validation fleet front-end -------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet's single front door: a router daemon that speaks the same
/// framed protocol as `validate_server` (clients — validate_client, the CI
/// scripts — cannot tell the difference), performs the digest-gated
/// handshake itself, and fans submissions out over a fleet of per-core
/// worker processes supervised by the WorkerManager.
///
/// The load-bearing invariant is *byte-identity*: a worker's response
/// frames are streamed back to the subscribers unchanged (only the JobDone
/// frame has its job id rewritten into the router's numbering), so a suite
/// report served by the fleet is byte-identical to `batch_validate --json`
/// over the same inputs and store state — the same bar the single server
/// already meets, now across process boundaries.
///
/// Structure (blocking I/O throughout, like the server):
///
///   * accept thread + one detached thread per client connection
///     (handshake, Submit/Subscribe/Stats/Ping/Shutdown);
///   * a JobTable deduplicating identical concurrent submissions onto one
///     engine run and letting Subscribe join a running job mid-flight
///     (bounded replay buffer, then the live tail);
///   * one dispatcher thread per worker owning that worker's connection,
///     all fed from one FIFO queue. Jobs prefer a worker by submission
///     key, so a repeated suite returns to the shard that already holds
///     its verdicts: a dispatcher takes its own worker's oldest job first.
///     When it has none, it takes the oldest job queued for a worker that
///     is busy (or gone) rather than sit idle beside a backlog — sound
///     because verdicts are deterministic and every shard starts from the
///     same seeded base, so only warmth, never bytes, depends on the
///     worker. A job whose preferred worker is free waits for it.
///     A worker crash (`kill -9`) costs exactly the jobs in flight on it:
///     the dispatcher reconnects to the restarted worker (generation-
///     checked via WorkerHello) and requeues, skipping frames already
///     fanned out — determinism makes the re-run byte-identical — until
///     the per-job attempt budget is spent, at which point the job fails
///     with a WorkerLost error. The fleet itself never goes down with a
///     worker.
///
/// Store lifecycle is the WorkerManager's: shards seeded from the merged
/// base at start, checkpointed by the workers while serving, merged back
/// at drain — so a restarted fleet replays 100% warm.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_FLEET_FLEETROUTER_H
#define LLVMMD_FLEET_FLEETROUTER_H

#include "fleet/JobTable.h"
#include "fleet/WorkerManager.h"
#include "normalize/Rules.h"
#include "server/Protocol.h"
#include "server/ServerClient.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace llvmmd {

struct FleetConfig {
  /// Client-facing unix socket (unlinked before bind and on shutdown).
  std::string UnixPath;
  /// Client-facing loopback TCP: -1 = none, 0 = ephemeral.
  int TcpPort = -1;
  unsigned Workers = 2;
  /// Worker executable; a stock validate_server.
  std::string WorkerBinary = "./validate_server";
  /// Worker i listens on `WorkerSocketPrefix + ".w" + i`; "" derives the
  /// prefix from UnixPath.
  std::string WorkerSocketPrefix;
  /// Base verdict store ("" = no persistence); workers persist to
  /// per-worker shards that are merged back into it at drain.
  std::string StorePath;
  /// Engine threads per worker (0 = hardware default).
  unsigned WorkerThreads = 1;
  std::string Pipeline;
  /// Rule configuration the handshake digest is computed from. Only the
  /// mask is forwardable to workers; strategy/iterations must stay at
  /// their defaults (WorkerManager::start rejects the mismatch otherwise).
  RuleConfig Rules;
  bool Triage = false;
  unsigned CheckpointEveryJobs = 1;
  /// Admission bound on queued-not-yet-running jobs across the fleet.
  unsigned MaxQueuedJobs = 64;
  /// Total dispatch attempts per job (2 = one requeue after a crash).
  unsigned MaxJobAttempts = 2;
  uint64_t ReplayBufferBytes = 8ull << 20;
  unsigned PingIntervalMs = 500;
  unsigned PingTimeoutMs = 2000;
  bool HealthPing = true;
  uint32_t MaxFrameBytes = DefaultMaxFrameBytes;
  /// `HOST:PORT` for the embedded HTTP responder (GET /metrics +
  /// /healthz; empty = none, port 0 = ephemeral). A stock Prometheus can
  /// scrape the fleet-wide roll-up straight off the router.
  std::string HttpMetrics;
  /// How long one roll-up's worker sweep stays fresh: scrapes within the
  /// TTL are served from cache, and concurrent scrapes coalesce onto one
  /// in-flight sweep either way. 0 disables caching (every scrape
  /// sweeps). Kept short by default — a scrape is a view of "now".
  unsigned MetricsCacheTtlMs = 250;
};

struct FleetCounters {
  uint64_t ConnectionsAccepted = 0;
  uint64_t HandshakesRejected = 0;
  uint64_t ProtocolErrors = 0;
  uint64_t JobsSubmitted = 0;    ///< jobs created (post-dedup)
  uint64_t JobsDeduplicated = 0; ///< Submits folded onto a live job
  uint64_t Subscribes = 0;
  uint64_t UnknownJobErrors = 0;
  uint64_t JobsRejected = 0; ///< admission control
  uint64_t JobsDispatched = 0; ///< attempts handed to a worker
  uint64_t JobsCompleted = 0;
  uint64_t JobsErrored = 0; ///< worker answered with an Error frame
  uint64_t JobsFailed = 0;  ///< attempt budget exhausted (WorkerLost)
  uint64_t JobsRequeued = 0;
  uint64_t WorkerReconnects = 0;
  uint64_t MaxQueueDepth = 0;
  /// Worker sweeps actually performed by the metrics roll-up; scrapes
  /// served from cache or coalesced onto an in-flight sweep don't count.
  uint64_t MetricsSweeps = 0;
};

class FleetRouter {
public:
  explicit FleetRouter(FleetConfig Config);
  ~FleetRouter();

  FleetRouter(const FleetRouter &) = delete;
  FleetRouter &operator=(const FleetRouter &) = delete;

  /// Binds the listeners, seeds and spawns the workers (failing loudly if
  /// any cannot serve), and starts the accept + dispatcher threads.
  bool start(std::string *Error = nullptr);

  /// Asynchronous graceful-stop trigger (see ValidationServer): admission
  /// closes, dispatchers drain, workers shut down and checkpoint, shards
  /// merge into the base store.
  void requestStop();

  /// Async-signal-safe stop subset: atomic stores only; all waiters poll.
  void requestStopFromSignal() {
    Accepting = false;
    DrainAndExit = true;
    AcceptStop = true;
    StopRequested = true;
  }

  /// Blocking stop. Must not be called from a router-owned thread.
  void stop();

  /// Blocks until a requested stop completes (daemon main loop).
  void wait();

  bool isStopped() const { return Stopped; }

  uint64_t configDigest() const;
  int boundTcpPort() const { return BoundTcpPort; }

  FleetCounters counters() const;
  JobTable::Stats tableStats() const;
  uint64_t workerRestarts() const;
  std::string statsJSON() const;
  /// The fleet-wide /metrics roll-up in Prometheus text exposition
  /// format: the router's own `llvmmd_fleet_*` families plus every live
  /// worker's scrape with its samples re-labeled `worker="N"` (same-name
  /// families from different workers merge into one `# TYPE` group).
  /// Served from a short-TTL cache (MetricsCacheTtlMs); on a miss, one
  /// sweep runs and concurrent scrapes wait for its result instead of
  /// sweeping again. The sweep asks each dispatcher to scrape over its
  /// persistent worker link (serviced between jobs), falling back to a
  /// fresh dial when the link is down or the dispatcher is mid-job.
  std::string metricsText() const;

  /// The HTTP responder's kernel-assigned port; -1 when HttpMetrics is
  /// unset or before start().
  int boundHttpPort() const;

  /// Test/demo access to the supervised workers (pids, kill).
  WorkerManager *workers() { return WM.get(); }

private:
  struct Connection {
    int Fd = -1;
    uint64_t Id = 0;
    std::mutex WriteLock;
    std::atomic<bool> Alive{true};
    bool Handshaken = false;
  };

  /// One worker's dispatch state: the dispatcher's cached connection
  /// (dispatcher-thread only), and under DispatchLock whether its worker
  /// can take a job now.
  struct WorkerLink {
    std::unique_ptr<ServerClient> Client;
    uint64_t ConnectedGen = 0;
    /// The worker is running a job: set when the dispatcher takes one,
    /// cleared as soon as the worker's answer is over (before the job's
    /// subscribers hear the end). Jobs queued for a busy worker may go to
    /// an idle one. Guarded by DispatchLock.
    bool Busy = false;
    /// The dispatcher has exited (drain): its jobs may go to anyone.
    bool Exited = false;
    /// Scrape-request slot: the roll-up sweep bumps ScrapeSeq and the
    /// dispatcher — the only thread allowed to touch Client — answers
    /// between jobs, setting ScrapeDoneSeq/ScrapeOk/ScrapeText and
    /// notifying DispatchCV. A dispatcher that is mid-job simply doesn't
    /// answer before the requester's deadline, which then falls back to a
    /// fresh dial. Guarded by DispatchLock.
    uint64_t ScrapeSeq = 0;
    uint64_t ScrapeDoneSeq = 0;
    bool ScrapeOk = false;
    std::string ScrapeText;
  };

  /// A queued dispatch and the worker it prefers: the job's sticky worker,
  /// or for a requeue the worker that lost it (restarted by now).
  struct QueuedJob {
    JobTable::JobPtr J;
    unsigned Worker = 0;
  };

  bool listenOn(int Fd, const std::string &What, std::string *Error);
  void acceptLoop();
  void handleConnection(std::shared_ptr<Connection> C);
  bool handleFrame(const std::shared_ptr<Connection> &C, const Frame &F);
  void dispatcherLoop(unsigned W);
  /// Dispatcher-thread only: answer a pending scrape request over the
  /// persistent link (if it is currently connected).
  void serviceScrape(unsigned W);
  /// One actual worker sweep + roll-up render (the cache miss path of
  /// metricsText).
  std::string buildRollup() const;
  /// One dispatch attempt; requeues or finishes the job itself.
  void runJobOnWorker(unsigned W, const JobTable::JobPtr &J);
  bool ensureWorkerLink(unsigned W, std::string *Error);
  void enqueue(const JobTable::JobPtr &J);
  /// DispatchLock held: moves the job dispatcher \p W should run next into
  /// \p Out — its own worker's oldest, else the oldest queued for a busy
  /// or exited worker. False when there is none.
  bool takeJobLocked(unsigned W, JobTable::JobPtr &Out);
  /// The worker's answer to its current job is over.
  void markIdle(unsigned W);
  bool sendFrame(Connection &C, FrameType T, const std::string &Payload);
  void sendError(Connection &C, ErrorCode Code, const std::string &Msg);
  void bumpCounter(uint64_t FleetCounters::*Field, uint64_t Delta = 1);

  FleetConfig Cfg;
  std::unique_ptr<JobTable> Table;
  std::unique_ptr<WorkerManager> WM;
  std::vector<std::unique_ptr<WorkerLink>> Links;
  /// Guards Queue and every link's Busy/Exited/scrape fields; DispatchCV
  /// wakes dispatchers (work, scrape requests, stop) and scrape waiters.
  mutable std::mutex DispatchLock;
  mutable std::condition_variable DispatchCV;
  std::deque<QueuedJob> Queue;
  /// The /metrics + /healthz sidecar (HttpMetrics config); null when off.
  std::unique_ptr<class HttpServer> Http;

  /// Roll-up cache: one sweep's rendered text plus its timestamp, and the
  /// in-flight flag that coalesces concurrent cache misses onto a single
  /// sweep. All guarded by MetricsCacheLock (mutable: metricsText is
  /// logically const).
  mutable std::mutex MetricsCacheLock;
  mutable std::condition_variable MetricsCacheCV;
  mutable std::string MetricsCache;
  mutable std::chrono::steady_clock::time_point MetricsCacheAt;
  mutable bool MetricsCacheValid = false;
  mutable bool MetricsRefreshInFlight = false;

  std::vector<int> ListenFds;
  int BoundTcpPort = -1;
  std::atomic<bool> AcceptStop{false};

  std::thread AcceptThread;
  std::vector<std::thread> Dispatchers;

  std::mutex ConnLock;
  std::condition_variable ConnDoneCV;
  std::vector<std::shared_ptr<Connection>> Conns;
  uint64_t NextConnId = 1;

  std::atomic<uint64_t> QueuedJobs{0};

  std::atomic<bool> Accepting{false};
  std::atomic<bool> DrainAndExit{false};

  mutable std::mutex LifeLock;
  std::condition_variable LifeCV;
  std::atomic<bool> Started{false};
  std::atomic<bool> StopRequested{false};
  std::atomic<bool> Stopped{false};

  mutable std::mutex StatsLock;
  FleetCounters Counters;
};

} // namespace llvmmd

#endif // LLVMMD_FLEET_FLEETROUTER_H
