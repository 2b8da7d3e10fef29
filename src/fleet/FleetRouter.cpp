//===- FleetRouter.cpp - Sharded validation fleet front-end -------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "fleet/FleetRouter.h"

#include "driver/VerdictStore.h"
#include "support/Http.h"
#include "support/Log.h"
#include "support/Telemetry.h"
#include "support/Trace.h"

#include <chrono>
#include <cstring>
#include <map>
#include <sstream>

#ifndef _WIN32
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

using namespace llvmmd;

FleetRouter::FleetRouter(FleetConfig Config) : Cfg(std::move(Config)) {
  if (Cfg.WorkerSocketPrefix.empty())
    Cfg.WorkerSocketPrefix =
        Cfg.UnixPath.empty() ? "llvmmd-fleet" : Cfg.UnixPath;
}

FleetRouter::~FleetRouter() { stop(); }

uint64_t FleetRouter::configDigest() const {
  return verdictStoreConfigDigest(Cfg.Rules);
}

FleetCounters FleetRouter::counters() const {
  std::lock_guard<std::mutex> G(StatsLock);
  return Counters;
}

JobTable::Stats FleetRouter::tableStats() const {
  return Table ? Table->stats() : JobTable::Stats();
}

uint64_t FleetRouter::workerRestarts() const {
  return WM ? WM->restarts() : 0;
}

void FleetRouter::bumpCounter(uint64_t FleetCounters::*Field, uint64_t Delta) {
  std::lock_guard<std::mutex> G(StatsLock);
  Counters.*Field += Delta;
}

std::string FleetRouter::statsJSON() const {
  FleetCounters C = counters();
  JobTable::Stats T = tableStats();
  std::ostringstream OS;
  OS << "{\"schema\": \"llvmmd-fleet-stats-v1\""
     << ", \"workers\": " << Cfg.Workers
     << ", \"connections_accepted\": " << C.ConnectionsAccepted
     << ", \"handshakes_rejected\": " << C.HandshakesRejected
     << ", \"protocol_errors\": " << C.ProtocolErrors << ", \"jobs\": {"
     << "\"submitted\": " << C.JobsSubmitted
     << ", \"deduplicated\": " << C.JobsDeduplicated
     << ", \"dispatched\": " << C.JobsDispatched
     << ", \"completed\": " << C.JobsCompleted
     << ", \"errored\": " << C.JobsErrored
     << ", \"failed\": " << C.JobsFailed
     << ", \"requeued\": " << C.JobsRequeued
     << ", \"rejected\": " << C.JobsRejected
     << ", \"queue_depth\": " << QueuedJobs.load()
     << ", \"max_queue_depth\": " << C.MaxQueueDepth
     << ", \"live\": " << (Table ? Table->liveJobs() : 0) << '}'
     << ", \"subscribes\": " << C.Subscribes
     << ", \"unknown_job_errors\": " << C.UnknownJobErrors
     << ", \"replay_truncations\": " << T.ReplayTruncations
     << ", \"frames_fanned\": " << T.FramesFanned
     << ", \"worker_restarts\": " << (WM ? WM->restarts() : 0)
     << ", \"worker_health_kills\": " << (WM ? WM->healthKills() : 0)
     << ", \"worker_reconnects\": " << C.WorkerReconnects << "}\n";
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Fleet-wide /metrics roll-up
//===----------------------------------------------------------------------===//

namespace {

/// One metric family parsed out of a worker's text exposition: the
/// `# HELP` / `# TYPE` header plus its sample lines (re-labeled by the
/// caller). Same-name families from different workers merge so the
/// roll-up stays valid exposition format (one TYPE header per name).
struct ExpoFamily {
  std::string Help;
  std::string Type;
  std::vector<std::string> Samples;
};

/// Injects `worker="N"` as the first label of one sample line
/// (`name{labels} value` or `name value`).
std::string withWorkerLabel(const std::string &Line, unsigned Worker) {
  std::string Label = "worker=\"" + std::to_string(Worker) + "\"";
  size_t Brace = Line.find('{');
  size_t Space = Line.find(' ');
  if (Brace != std::string::npos && (Space == std::string::npos ||
                                     Brace < Space))
    return Line.substr(0, Brace + 1) + Label + "," + Line.substr(Brace + 1);
  if (Space == std::string::npos)
    return Line; // not a sample line; passed through untouched
  return Line.substr(0, Space) + "{" + Label + "}" + Line.substr(Space);
}

/// Parses a worker scrape into \p Families, appending each sample with
/// the worker label. `_bucket`/`_sum`/`_count` samples attach to their
/// histogram's family (the most recent TYPE header), exactly as the
/// exposition format groups them.
void mergeWorkerScrape(const std::string &Text, unsigned Worker,
                       std::vector<std::string> &Order,
                       std::map<std::string, ExpoFamily> &Families) {
  std::string Current;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string::npos)
      End = Text.size();
    std::string Line = Text.substr(Pos, End - Pos);
    Pos = End + 1;
    if (Line.empty())
      continue;
    if (Line.rfind("# HELP ", 0) == 0 || Line.rfind("# TYPE ", 0) == 0) {
      size_t NameStart = 7;
      size_t NameEnd = Line.find(' ', NameStart);
      if (NameEnd == std::string::npos)
        continue;
      std::string Name = Line.substr(NameStart, NameEnd - NameStart);
      auto It = Families.find(Name);
      if (It == Families.end()) {
        Order.push_back(Name);
        It = Families.emplace(Name, ExpoFamily()).first;
      }
      std::string Rest = Line.substr(NameEnd + 1);
      if (Line[2] == 'H') {
        if (It->second.Help.empty())
          It->second.Help = Rest;
      } else if (It->second.Type.empty())
        It->second.Type = Rest;
      Current = Name;
      continue;
    }
    if (Line[0] == '#' || Current.empty())
      continue;
    Families[Current].Samples.push_back(withWorkerLabel(Line, Worker));
  }
}

} // namespace

std::string FleetRouter::metricsText() const {
  // Short-TTL cache with coalescing: a fresh sweep is served to everyone
  // who asks within the TTL, and scrapes racing a cache miss wait for the
  // one in-flight sweep instead of stampeding the workers. TTL 0 keeps
  // the coalescing but never serves stale text.
  const auto Ttl = std::chrono::milliseconds(Cfg.MetricsCacheTtlMs);
  std::unique_lock<std::mutex> G(MetricsCacheLock);
  for (;;) {
    if (MetricsCacheValid && Cfg.MetricsCacheTtlMs &&
        std::chrono::steady_clock::now() - MetricsCacheAt < Ttl)
      return MetricsCache;
    if (!MetricsRefreshInFlight)
      break;
    MetricsCacheCV.wait(G); // the in-flight sweep's result serves us too
  }
  MetricsRefreshInFlight = true;
  G.unlock();
  std::string Text = buildRollup();
  G.lock();
  MetricsCache = Text;
  MetricsCacheAt = std::chrono::steady_clock::now();
  MetricsCacheValid = true;
  MetricsRefreshInFlight = false;
  MetricsCacheCV.notify_all();
  return Text;
}

int FleetRouter::boundHttpPort() const {
  return Http ? Http->boundPort() : -1;
}

std::string FleetRouter::buildRollup() const {
  // The sweep count is itself a sample in the roll-up (bumped before the
  // snapshot below so each sweep sees itself); the delta between two
  // scrapes tells an operator how well the cache is coalescing.
  const_cast<FleetRouter *>(this)->bumpCounter(&FleetCounters::MetricsSweeps);
  FleetCounters C = counters();
  JobTable::Stats T = tableStats();

  std::ostringstream OS;
  auto Emit = [&OS](const char *Name, const char *Type, const char *Help,
                    uint64_t Value) {
    OS << "# HELP " << Name << " " << Help << "\n# TYPE " << Name << " "
       << Type << "\n"
       << Name << " " << Value << "\n";
  };
  Emit("llvmmd_fleet_workers", "gauge", "Configured worker processes",
       Cfg.Workers);
  Emit("llvmmd_fleet_queue_depth", "gauge",
       "Jobs queued across all dispatchers", QueuedJobs.load());
  Emit("llvmmd_fleet_jobs_submitted_total", "counter",
       "Jobs admitted by the router", C.JobsSubmitted);
  Emit("llvmmd_fleet_jobs_deduplicated_total", "counter",
       "Submissions deduplicated onto a running identical job",
       C.JobsDeduplicated);
  Emit("llvmmd_fleet_jobs_dispatched_total", "counter",
       "Dispatch attempts sent to workers", C.JobsDispatched);
  Emit("llvmmd_fleet_jobs_completed_total", "counter",
       "Jobs completed by workers", C.JobsCompleted);
  Emit("llvmmd_fleet_jobs_requeued_total", "counter",
       "Jobs requeued after a worker loss", C.JobsRequeued);
  Emit("llvmmd_fleet_jobs_failed_total", "counter",
       "Jobs failed with WorkerLost after the attempt budget",
       C.JobsFailed);
  Emit("llvmmd_fleet_worker_restarts_total", "counter",
       "Worker processes respawned by the monitor",
       WM ? WM->restarts() : 0);
  Emit("llvmmd_fleet_worker_health_kills_total", "counter",
       "Workers killed by the health check", WM ? WM->healthKills() : 0);
  Emit("llvmmd_fleet_worker_reconnects_total", "counter",
       "Dispatcher reconnects to (re)spawned workers", C.WorkerReconnects);
  Emit("llvmmd_fleet_frames_fanned_total", "counter",
       "Response frames fanned out to subscribers", T.FramesFanned);
  Emit("llvmmd_fleet_metrics_sweeps_total", "counter",
       "Worker metric sweeps performed (cache hits excluded)",
       C.MetricsSweeps);

  // Per-worker scrapes, preferably over the dispatchers' persistent
  // links: every dispatcher is asked up front (they scrape concurrently
  // between jobs), then each answer is collected against one shared
  // deadline. A dispatcher that is mid-job, drained, or whose link is
  // down answers late or not at all — those workers fall back to a fresh
  // dial, so a worker mid-respawn is simply reported down and the
  // roll-up stays useful while the monitor restarts it.
  std::vector<uint64_t> Targets(Cfg.Workers, 0);
  {
    std::lock_guard<std::mutex> G(DispatchLock);
    for (unsigned W = 0; W < Cfg.Workers && WM; ++W)
      Targets[W] = ++Links[W]->ScrapeSeq;
  }
  DispatchCV.notify_all();
  const auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(300);

  std::vector<std::string> Order;
  std::map<std::string, ExpoFamily> Families;
  std::string Up = "# HELP llvmmd_fleet_worker_up Worker scrape reachability "
                   "(1 = scraped)\n# TYPE llvmmd_fleet_worker_up gauge\n";
  for (unsigned W = 0; W < Cfg.Workers && WM; ++W) {
    WorkerLink &L = *Links[W];
    std::string Text, Err;
    bool Ok = false, Answered = false;
    {
      std::unique_lock<std::mutex> G(DispatchLock);
      Answered = DispatchCV.wait_until(
          G, Deadline, [&] { return L.ScrapeDoneSeq >= Targets[W]; });
      if (Answered && L.ScrapeOk) {
        Ok = true;
        Text = L.ScrapeText;
      }
    }
    if (!Ok) {
      ServerClient Probe;
      Probe.MaxFrameBytes = Cfg.MaxFrameBytes;
      Probe.Retry.Retries = 2;
      Probe.Retry.BaseDelayMs = 5;
      Probe.Retry.MaxDelayMs = 20;
      Ok = Probe.connectUnix(WM->socketPath(W), &Err) &&
           Probe.handshake(configDigest(), nullptr, &Err) &&
           Probe.metrics(&Text, &Err);
    }
    Up += "llvmmd_fleet_worker_up{worker=\"" + std::to_string(W) + "\"} " +
          (Ok ? "1" : "0") + "\n";
    if (Ok)
      mergeWorkerScrape(Text, W, Order, Families);
    else
      logInfo("fleet", "metrics scrape of worker " + std::to_string(W) +
                           " failed: " + Err);
  }
  OS << Up;
  for (const std::string &Name : Order) {
    const ExpoFamily &F = Families[Name];
    if (!F.Help.empty())
      OS << "# HELP " << Name << " " << F.Help << "\n";
    if (!F.Type.empty())
      OS << "# TYPE " << Name << " " << F.Type << "\n";
    for (const std::string &S : F.Samples)
      OS << S << "\n";
  }
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

bool FleetRouter::listenOn(int Fd, const std::string &What,
                           std::string *Error) {
#ifndef _WIN32
  if (Fd < 0 || ::listen(Fd, 64) != 0) {
    if (Error)
      *Error = "cannot listen on " + What;
    if (Fd >= 0)
      ::close(Fd);
    return false;
  }
  ListenFds.push_back(Fd);
  return true;
#else
  (void)Fd;
  (void)What;
  if (Error)
    *Error = "router sockets are POSIX-only";
  return false;
#endif
}

bool FleetRouter::start(std::string *Error) {
#ifndef _WIN32
  {
    std::lock_guard<std::mutex> G(LifeLock);
    if (Started) {
      if (Error)
        *Error = "router already started";
      return false;
    }
  }
  if (Cfg.UnixPath.empty() && Cfg.TcpPort < 0) {
    if (Error)
      *Error = "no listener configured (need UnixPath and/or TcpPort)";
    return false;
  }
  if (Cfg.Workers == 0) {
    if (Error)
      *Error = "a fleet needs at least one worker";
    return false;
  }

  if (!Cfg.UnixPath.empty()) {
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    if (Cfg.UnixPath.size() >= sizeof(Addr.sun_path)) {
      if (Error)
        *Error = "unix socket path too long: " + Cfg.UnixPath;
      return false;
    }
    std::strncpy(Addr.sun_path, Cfg.UnixPath.c_str(),
                 sizeof(Addr.sun_path) - 1);
    ::unlink(Cfg.UnixPath.c_str());
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0 ||
        ::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
      if (Error)
        *Error = "cannot bind unix socket '" + Cfg.UnixPath + "'";
      if (Fd >= 0)
        ::close(Fd);
      return false;
    }
    if (!listenOn(Fd, "unix socket '" + Cfg.UnixPath + "'", Error))
      return false;
  }

  if (Cfg.TcpPort >= 0) {
    int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    int One = 1;
    if (Fd >= 0)
      ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    sockaddr_in Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    Addr.sin_port = htons(static_cast<uint16_t>(Cfg.TcpPort));
    if (Fd < 0 ||
        ::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
      if (Error)
        *Error = "cannot bind 127.0.0.1:" + std::to_string(Cfg.TcpPort);
      if (Fd >= 0)
        ::close(Fd);
      return false;
    }
    socklen_t AddrLen = sizeof(Addr);
    ::getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &AddrLen);
    BoundTcpPort = ntohs(Addr.sin_port);
    if (!listenOn(Fd, "tcp port " + std::to_string(BoundTcpPort), Error))
      return false;
  }

  // The /metrics sidecar binds before the workers spawn: a bad
  // --http-metrics address should fail fast, not after paying fleet
  // startup. The handler runs on the responder's own connection threads
  // and only ever calls the (internally locked) roll-up.
  if (!Cfg.HttpMetrics.empty()) {
    Http = std::make_unique<HttpServer>();
    Http->handle("/metrics", [this] {
      HttpResponse R;
      R.ContentType = PrometheusContentType;
      R.Body = metricsText();
      return R;
    });
    Http->handle("/healthz", [] {
      HttpResponse R;
      R.Body = "ok\n";
      return R;
    });
    if (!Http->start(Cfg.HttpMetrics, Error)) {
      Http.reset();
      for (int Fd : ListenFds)
        ::close(Fd);
      ListenFds.clear();
      if (!Cfg.UnixPath.empty())
        ::unlink(Cfg.UnixPath.c_str());
      return false;
    }
  }

  JobTable::Config TC;
  TC.ConfigDigest = configDigest();
  TC.Workers = Cfg.Workers;
  TC.ReplayBufferBytes = Cfg.ReplayBufferBytes;
  TC.MaxJobAttempts = Cfg.MaxJobAttempts;
  Table = std::make_unique<JobTable>(TC);

  WorkerManager::Config WC;
  WC.Binary = Cfg.WorkerBinary;
  WC.SocketPrefix = Cfg.WorkerSocketPrefix;
  WC.StoreBase = Cfg.StorePath;
  WC.Workers = Cfg.Workers;
  WC.WorkerThreads = Cfg.WorkerThreads;
  WC.Pipeline = Cfg.Pipeline;
  // Forward the mask only when it differs from the worker default, so the
  // workers' own digest computation stays the source of truth.
  WC.RuleMask = Cfg.Rules.Mask == RuleConfig().Mask ? ~0u : Cfg.Rules.Mask;
  WC.Triage = Cfg.Triage;
  WC.CheckpointEveryJobs = Cfg.CheckpointEveryJobs;
  WC.QueueBound = Cfg.MaxQueuedJobs;
  WC.ConfigDigest = configDigest();
  WC.PingIntervalMs = Cfg.PingIntervalMs;
  WC.PingTimeoutMs = Cfg.PingTimeoutMs;
  WC.HealthPing = Cfg.HealthPing;
  WM = std::make_unique<WorkerManager>(WC);
  if (!WM->start(Error)) {
    WM.reset();
    if (Http) {
      Http->stop();
      Http.reset();
    }
    for (int Fd : ListenFds)
      ::close(Fd);
    ListenFds.clear();
    if (!Cfg.UnixPath.empty())
      ::unlink(Cfg.UnixPath.c_str());
    return false;
  }

  Links.clear();
  for (unsigned W = 0; W < Cfg.Workers; ++W)
    Links.push_back(std::make_unique<WorkerLink>());

  Accepting = true;
  Started = true;
  Stopped = false;
  StopRequested = false;
  AcceptStop = false;
  DrainAndExit = false;
  AcceptThread = std::thread([this] { acceptLoop(); });
  for (unsigned W = 0; W < Cfg.Workers; ++W)
    Dispatchers.emplace_back([this, W] { dispatcherLoop(W); });
  return true;
#else
  if (Error)
    *Error = "the fleet router is POSIX-only";
  return false;
#endif
}

void FleetRouter::requestStop() {
  requestStopFromSignal();
  {
    // Taking the lock orders the flag store before any dispatcher's next
    // predicate check, so the notify below cannot be missed.
    std::lock_guard<std::mutex> G(DispatchLock);
  }
  DispatchCV.notify_all();
  LifeCV.notify_all();
}

void FleetRouter::stop() {
#ifndef _WIN32
  if (!Started || Stopped)
    return;
  requestStop();

  if (AcceptThread.joinable())
    AcceptThread.join();
  // Dispatchers drain their queues: every admitted job still completes (or
  // fails through its attempt budget) and its subscribers hear the end.
  for (std::thread &T : Dispatchers)
    if (T.joinable())
      T.join();
  Dispatchers.clear();

  // Workers shut down gracefully — they checkpoint their shards — and the
  // shards merge back into the base store.
  if (WM)
    WM->stop();

  {
    std::unique_lock<std::mutex> G(ConnLock);
    for (const auto &C : Conns) {
      std::lock_guard<std::mutex> WG(C->WriteLock);
      if (C->Fd >= 0)
        ::shutdown(C->Fd, SHUT_RDWR);
    }
    ConnDoneCV.wait(G, [this] { return Conns.empty(); });
  }

  for (int Fd : ListenFds)
    ::close(Fd);
  ListenFds.clear();
  if (!Cfg.UnixPath.empty())
    ::unlink(Cfg.UnixPath.c_str());

  // The HTTP responder outlives the drain so a scraper watching the
  // shutdown sees the final counters; it goes down last.
  if (Http)
    Http->stop();

  Stopped = true;
  LifeCV.notify_all();
#endif
}

void FleetRouter::wait() {
  {
    std::unique_lock<std::mutex> G(LifeLock);
    while (!LifeCV.wait_for(G, std::chrono::milliseconds(200), [this] {
      return StopRequested.load() || Stopped.load();
    }))
      ;
  }
  stop();
}

//===----------------------------------------------------------------------===//
// Client connections
//===----------------------------------------------------------------------===//

void FleetRouter::acceptLoop() {
#ifndef _WIN32
  std::vector<pollfd> Polls;
  for (int Fd : ListenFds)
    Polls.push_back({Fd, POLLIN, 0});
  while (!AcceptStop) {
    int N = ::poll(Polls.data(), Polls.size(), /*timeout_ms=*/100);
    if (N <= 0)
      continue;
    for (pollfd &P : Polls) {
      if (!(P.revents & POLLIN))
        continue;
      int Fd = ::accept(P.fd, nullptr, nullptr);
      if (Fd < 0)
        continue;
      // A client that stops reading must not park a dispatcher in a
      // blocking send forever (that would also wedge graceful shutdown).
      timeval SendTimeout{30, 0};
      ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &SendTimeout,
                   sizeof(SendTimeout));
      auto C = std::make_shared<Connection>();
      C->Fd = Fd;
      {
        std::lock_guard<std::mutex> G(ConnLock);
        C->Id = NextConnId++;
        Conns.push_back(C);
      }
      bumpCounter(&FleetCounters::ConnectionsAccepted);
      std::thread([this, C] { handleConnection(C); }).detach();
    }
  }
#endif
}

bool FleetRouter::sendFrame(Connection &C, FrameType T,
                            const std::string &Payload) {
  if (!C.Alive.load())
    return false;
  std::lock_guard<std::mutex> G(C.WriteLock);
  if (C.Fd < 0 || !writeFrame(C.Fd, T, Payload)) {
    C.Alive = false;
    return false;
  }
  return true;
}

void FleetRouter::sendError(Connection &C, ErrorCode Code,
                            const std::string &Msg) {
  ErrorPayload E;
  E.Code = Code;
  E.Message = Msg;
  sendFrame(C, FrameType::Error, encodeError(E));
}

void FleetRouter::handleConnection(std::shared_ptr<Connection> C) {
#ifndef _WIN32
  for (;;) {
    Frame F;
    ReadStatus RS = readFrame(C->Fd, F, Cfg.MaxFrameBytes);
    if (RS == ReadStatus::Eof)
      break;
    if (RS != ReadStatus::Ok) {
      bumpCounter(&FleetCounters::ProtocolErrors);
      sendError(*C, ErrorCode::Protocol,
                RS == ReadStatus::Oversized
                    ? "frame exceeds the size limit"
                    : "truncated or unreadable frame");
      break;
    }
    if (!handleFrame(C, F))
      break;
  }
  C->Alive = false;
  {
    std::lock_guard<std::mutex> WG(C->WriteLock);
    ::close(C->Fd);
    C->Fd = -1;
  }
  {
    std::lock_guard<std::mutex> G(ConnLock);
    for (size_t I = 0; I < Conns.size(); ++I) {
      if (Conns[I].get() == C.get()) {
        Conns.erase(Conns.begin() + I);
        break;
      }
    }
    ConnDoneCV.notify_all();
  }
#endif
}

bool FleetRouter::handleFrame(const std::shared_ptr<Connection> &C,
                              const Frame &F) {
  if (!C->Handshaken) {
    if (F.Type != FrameType::Hello) {
      bumpCounter(&FleetCounters::ProtocolErrors);
      sendError(*C, ErrorCode::Protocol, "expected Hello");
      return false;
    }
    HelloPayload H;
    if (!decodeHello(F.Payload, H)) {
      bumpCounter(&FleetCounters::ProtocolErrors);
      sendError(*C, ErrorCode::Protocol, "undecodable Hello");
      return false;
    }
    if (H.Version != ServerProtocolVersion) {
      bumpCounter(&FleetCounters::HandshakesRejected);
      sendError(*C, ErrorCode::Handshake,
                "protocol version " + std::to_string(H.Version) +
                    " (router speaks " +
                    std::to_string(ServerProtocolVersion) + ")");
      return false;
    }
    if (H.ConfigDigest != configDigest()) {
      bumpCounter(&FleetCounters::HandshakesRejected);
      sendError(*C, ErrorCode::Handshake,
                "config digest mismatch: the fleet validates under a "
                "different rule configuration");
      return false;
    }
    HelloOkPayload Ok;
    Ok.ConfigDigest = configDigest();
    Ok.EngineThreads = Cfg.Workers; // serving parallelism, not one engine's
    Ok.TriageEnabled = Cfg.Triage;
    C->Handshaken = true;
    return sendFrame(*C, FrameType::HelloOk, encodeHelloOk(Ok));
  }

  switch (F.Type) {
  case FrameType::Submit: {
    SubmitPayload S;
    if (!decodeSubmit(F.Payload, S) || S.Modules.empty()) {
      bumpCounter(&FleetCounters::ProtocolErrors);
      sendError(*C, ErrorCode::Protocol, "undecodable or empty Submit");
      return false;
    }
    if (!Accepting || QueuedJobs.load() >= Cfg.MaxQueuedJobs) {
      bumpCounter(&FleetCounters::JobsRejected);
      sendError(*C, ErrorCode::QueueFull,
                !Accepting ? "fleet is shutting down"
                           : "queue full (" +
                                 std::to_string(QueuedJobs.load()) +
                                 " jobs pending)");
      return true;
    }
    // The fleet's front door mints the trace id: when the router is
    // tracing, every admitted job gets one (client-supplied ids are
    // kept), rides the Submit frame to the worker, and comes home on
    // JobDone with the worker's span blob.
    if (traceEnabled() && S.TraceId == 0)
      S.TraceId = traceMintTraceId();
    auto Sink = std::make_shared<JobTable::Sink>();
    std::shared_ptr<Connection> Keep = C;
    Sink->Write = [this, Keep](FrameType T, const std::string &P) {
      return sendFrame(*Keep, T, P);
    };
    // The reply callback runs before any replayed/live frame can reach
    // this sink, so the client always reads Accepted/JobId first.
    auto Reply = [&](uint64_t Id, bool Created, uint32_t Replayed) {
      if (Created) {
        AcceptedPayload A;
        A.JobId = Id;
        A.QueuePosition = static_cast<uint32_t>(QueuedJobs.load());
        sendFrame(*C, FrameType::Accepted, encodeAccepted(A));
      } else {
        JobIdPayload JI;
        JI.JobId = Id;
        JI.Deduplicated = 1;
        JI.ReplayedFrames = Replayed;
        sendFrame(*C, FrameType::JobId, encodeJobId(JI));
      }
    };
    JobTable::SubmitResult R = Table->submit(S, std::move(Sink), Reply);
    if (R.Created) {
      bumpCounter(&FleetCounters::JobsSubmitted);
      enqueue(R.J);
    } else {
      bumpCounter(&FleetCounters::JobsDeduplicated);
    }
    return true;
  }
  case FrameType::Subscribe: {
    SubscribePayload SP;
    if (!decodeSubscribe(F.Payload, SP)) {
      bumpCounter(&FleetCounters::ProtocolErrors);
      sendError(*C, ErrorCode::Protocol, "undecodable Subscribe");
      return false;
    }
    auto Sink = std::make_shared<JobTable::Sink>();
    std::shared_ptr<Connection> Keep = C;
    Sink->Write = [this, Keep](FrameType T, const std::string &P) {
      return sendFrame(*Keep, T, P);
    };
    auto Reply = [&](uint64_t Id, bool, uint32_t Replayed) {
      JobIdPayload JI;
      JI.JobId = Id;
      JI.Deduplicated = 0;
      JI.ReplayedFrames = Replayed;
      sendFrame(*C, FrameType::JobId, encodeJobId(JI));
    };
    std::string Err;
    if (!Table->subscribeJob(SP.JobId, std::move(Sink), Reply, &Err)) {
      bumpCounter(&FleetCounters::UnknownJobErrors);
      sendError(*C, ErrorCode::UnknownJob, Err);
      return true;
    }
    bumpCounter(&FleetCounters::Subscribes);
    return true;
  }
  case FrameType::Stats:
    return sendFrame(*C, FrameType::StatsReply, statsJSON());
  case FrameType::Metrics:
    return sendFrame(*C, FrameType::MetricsReply, metricsText());
  case FrameType::Ping:
    return sendFrame(*C, FrameType::Pong, std::string());
  case FrameType::Shutdown:
    requestStop();
    return true;
  default:
    bumpCounter(&FleetCounters::ProtocolErrors);
    sendError(*C, ErrorCode::Protocol, "unexpected frame type");
    return false;
  }
}

//===----------------------------------------------------------------------===//
// Dispatch: one thread per worker
//===----------------------------------------------------------------------===//

void FleetRouter::enqueue(const JobTable::JobPtr &J) {
  uint64_t Depth = ++QueuedJobs;
  {
    std::lock_guard<std::mutex> G(DispatchLock);
    Queue.push_back({J, J->WorkerIndex});
  }
  // Every dispatcher re-checks: the preferred one takes it if free, an
  // idle one if the preferred worker is busy.
  DispatchCV.notify_all();
  std::lock_guard<std::mutex> G(StatsLock);
  if (Depth > Counters.MaxQueueDepth)
    Counters.MaxQueueDepth = Depth;
}

bool FleetRouter::takeJobLocked(unsigned W, JobTable::JobPtr &Out) {
  auto Pick = Queue.end();
  for (auto It = Queue.begin(); It != Queue.end(); ++It) {
    if (It->Worker == W) {
      Pick = It;
      break;
    }
    const WorkerLink &Owner = *Links[It->Worker];
    if (Pick == Queue.end() && (Owner.Busy || Owner.Exited))
      Pick = It;
  }
  if (Pick == Queue.end())
    return false;
  Out = std::move(Pick->J);
  Queue.erase(Pick);
  return true;
}

void FleetRouter::markIdle(unsigned W) {
  std::lock_guard<std::mutex> G(DispatchLock);
  Links[W]->Busy = false;
}

void FleetRouter::dispatcherLoop(unsigned W) {
  WorkerLink &L = *Links[W];
  for (;;) {
    JobTable::JobPtr J;
    bool Scrape = false;
    {
      std::unique_lock<std::mutex> G(DispatchLock);
      // Bounded wait: the signal-safe stop path stores flags without a
      // notify. A drain ends once the whole queue is empty, so no job is
      // left behind for a dispatcher that already exited.
      for (;;) {
        // A scrape waiting on the persistent link is quick, so it goes
        // first, and the loop re-checks for a job right after.
        Scrape = L.ScrapeDoneSeq < L.ScrapeSeq;
        if (Scrape || takeJobLocked(W, J) ||
            (DrainAndExit.load() && Queue.empty()))
          break;
        DispatchCV.wait_for(G, std::chrono::milliseconds(200));
      }
      if (J) {
        L.Busy = true;
        // Jobs still queued for this worker may now go to an idle one.
        if (!Queue.empty())
          DispatchCV.notify_all();
      }
    }
    if (Scrape) {
      serviceScrape(W);
      continue;
    }
    if (!J)
      break;
    --QueuedJobs;
    runJobOnWorker(W, J);
  }
  // A roll-up racing the drain must not wait out its deadline on a
  // dispatcher that will never answer.
  {
    std::lock_guard<std::mutex> G(DispatchLock);
    L.Exited = true;
    L.ScrapeDoneSeq = L.ScrapeSeq;
    L.ScrapeOk = false;
    L.ScrapeText.clear();
  }
  DispatchCV.notify_all();
  L.Client.reset();
}

void FleetRouter::serviceScrape(unsigned W) {
  WorkerLink &L = *Links[W];
  uint64_t Target;
  {
    std::lock_guard<std::mutex> G(DispatchLock);
    if (L.ScrapeDoneSeq >= L.ScrapeSeq)
      return;
    Target = L.ScrapeSeq;
  }
  // Reuse the persistent link only when it already exists for the live
  // worker generation: a scrape must never pay the reconnect retry
  // schedule (the roll-up's fresh-dial fallback covers a down link), and
  // answering "no" fast beats answering "yes" slowly.
  std::string Text, Err;
  bool Ok = false;
  if (L.Client && WM && L.ConnectedGen == WM->generation(W)) {
    Ok = L.Client->metrics(&Text, &Err);
    if (!Ok)
      L.Client.reset(); // poisoned link; the next job redials
  }
  {
    std::lock_guard<std::mutex> G(DispatchLock);
    L.ScrapeDoneSeq = Target;
    L.ScrapeOk = Ok;
    L.ScrapeText = std::move(Text);
  }
  DispatchCV.notify_all();
}

bool FleetRouter::ensureWorkerLink(unsigned W, std::string *Error) {
  WorkerLink &L = *Links[W];
  uint64_t Gen = WM->generation(W);
  // The cached connection is only trusted if the worker generation it was
  // made against is still alive *and* it still answers: a kill -9'd worker
  // leaves a connected-looking socket that fails on first use.
  if (L.Client && L.ConnectedGen == Gen && L.Client->ping())
    return true;
  L.Client.reset();

  // The whole sequence retries as a unit, not just connect(): a connect to
  // a just-SIGKILLed worker can land in the dead listener's backlog and
  // *succeed*, only to be reset on the first handshake read — and the
  // half-restarted worker can transiently answer with a pid the manager
  // has not published yet. Ride the schedule out until the monitor's
  // respawn (reap + rebind within ~100ms) is actually serving.
  ServerClient::RetryPolicy Rounds;
  Rounds.Retries = 16;
  Rounds.BaseDelayMs = 5;
  Rounds.MaxDelayMs = 500;
  for (unsigned Attempt = 0;; ++Attempt) {
    auto C = std::make_unique<ServerClient>();
    C->MaxFrameBytes = Cfg.MaxFrameBytes;
    // Quick per-connect retries only; the outer loop owns the pacing.
    C->Retry.Retries = 3;
    C->Retry.BaseDelayMs = 5;
    C->Retry.MaxDelayMs = 50;
    if (C->connectUnix(WM->socketPath(W), Error) &&
        C->handshake(configDigest(), nullptr, Error)) {
      WorkerHelloPayload WH;
#ifndef _WIN32
      WH.RouterId = static_cast<uint64_t>(::getpid());
#endif
      WH.WorkerIndex = W;
      WH.Generation = WM->generation(W);
      WorkerHelloOkPayload Ok;
      if (C->workerHello(WH, &Ok, Error)) {
        if (Ok.Pid == static_cast<uint64_t>(WM->pid(W))) {
          L.Client = std::move(C);
          L.ConnectedGen = WM->generation(W);
          bumpCounter(&FleetCounters::WorkerReconnects);
          return true;
        }
        if (Error)
          *Error = "worker " + std::to_string(W) +
                   " socket answered with a foreign pid";
      }
    }
    if (Attempt >= Rounds.Retries)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(
        ServerClient::retryDelayMs(Rounds, Attempt)));
  }
}

void FleetRouter::runJobOnWorker(unsigned W, const JobTable::JobPtr &J) {
  WorkerLink &L = *Links[W];
  Table->beginAttempt(J);
  bumpCounter(&FleetCounters::JobsDispatched);
  // Explicit trace id: dispatcher threads run concurrent traced jobs, so
  // the process-global current id would be ambiguous here.
  TraceSpan DispatchSpan("dispatch", "fleet", J->Req.TraceId,
                         "worker " + std::to_string(W) + " job " +
                             std::to_string(J->Id));

  // Worker-lost epilogue: requeue at the front of the queue, preferring
  // this worker (the restarted worker picks it straight back up), until
  // the attempt budget is spent; then the job fails to its subscribers
  // with WorkerLost.
  auto Lost = [&](const std::string &Why) {
    L.Client.reset();
    markIdle(W);
    if (Table->requeueOrFail(J)) {
      bumpCounter(&FleetCounters::JobsRequeued);
      logWarn("fleet", "worker " + std::to_string(W) + " lost (" + Why +
                           "); job " + std::to_string(J->Id) + " requeued" +
                           traceLogTag(J->Req.TraceId));
      if (traceEnabled())
        traceCompleteEventForTrace(J->Req.TraceId, "requeue", "fleet",
                                   traceNowUs(), 0,
                                   "worker " + std::to_string(W));
      ++QueuedJobs;
      std::lock_guard<std::mutex> G(DispatchLock);
      Queue.push_front({J, W});
    } else {
      bumpCounter(&FleetCounters::JobsFailed);
      logError("fleet", "worker " + std::to_string(W) + " lost (" + Why +
                            "); attempt budget spent, job " +
                            std::to_string(J->Id) +
                            " failed with WorkerLost" +
                            traceLogTag(J->Req.TraceId));
    }
  };

  std::string Err;
  if (!ensureWorkerLink(W, &Err))
    return Lost(Err.empty() ? "cannot connect" : Err);
  AcceptedPayload Acc;
  if (!L.Client->submit(J->Req, &Acc, &Err))
    return Lost(Err.empty() ? "submit failed" : Err);

  for (;;) {
    Frame F;
    // Raw frames on purpose: the payload bytes go to the subscribers
    // exactly as the worker produced them — that is what makes a fleet
    // suite report byte-identical to the batch path.
    ReadStatus RS = readFrame(L.Client->fd(), F, Cfg.MaxFrameBytes);
    if (RS != ReadStatus::Ok)
      return Lost("stream broken mid-job");
    switch (F.Type) {
    case FrameType::Function:
    case FrameType::ModuleReport:
    case FrameType::SuiteReport:
      Table->deliver(J, F.Type, F.Payload);
      break;
    case FrameType::JobDone: {
      JobDonePayload D;
      if (!decodeJobDone(F.Payload, D))
        return Lost("undecodable JobDone");
      // The worker ships its spans home on JobDone; merging them here is
      // what turns a fleet job into one flame across pids. A bad blob
      // only costs the worker's spans, never the job.
      markIdle(W);
      if (D.TraceId && !D.TraceBlob.empty() && traceEnabled()) {
        std::string IngestErr;
        if (!traceIngestEvents(D.TraceBlob, &IngestErr))
          logWarn("fleet", "job " + std::to_string(J->Id) +
                               ": span blob rejected: " + IngestErr +
                               traceLogTag(D.TraceId));
      }
      Table->complete(J, D);
      bumpCounter(&FleetCounters::JobsCompleted);
      return;
    }
    case FrameType::Error: {
      // An in-protocol worker error (unknown profile, parse failure) is
      // the job's answer, not a worker failure: forward and finish.
      ErrorPayload E;
      if (!decodeError(F.Payload, E)) {
        E.Code = ErrorCode::Protocol;
        E.Message = "undecodable worker error";
      }
      markIdle(W);
      Table->fail(J, E.Code, E.Message);
      bumpCounter(&FleetCounters::JobsErrored);
      return;
    }
    default:
      // A worker violating the protocol is a lost worker.
      return Lost("unexpected frame type " +
                  std::to_string(static_cast<unsigned>(F.Type)));
    }
  }
}
