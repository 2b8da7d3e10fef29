//===- WorkerManager.cpp - Worker process lifecycle ---------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "fleet/WorkerManager.h"

#include "driver/VerdictStore.h"
#include "server/Protocol.h"
#include "server/ServerClient.h"

#include <cstdio>
#include <fstream>

#ifndef _WIN32
#include <csignal>
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

using namespace llvmmd;

namespace {

#ifndef _WIN32
/// Bounds the monitor's protocol probes: a wedged worker must not wedge
/// the monitor with it.
void setRecvTimeout(int Fd, unsigned Ms) {
  timeval Tv;
  Tv.tv_sec = Ms / 1000;
  Tv.tv_usec = static_cast<suseconds_t>((Ms % 1000) * 1000);
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
}
#endif

/// Byte-copy \p From over \p To (both verdict stores; the format is
/// self-contained, so a file copy is a valid seed).
bool copyFile(const std::string &From, const std::string &To) {
  std::ifstream In(From, std::ios::binary);
  if (!In)
    return false;
  std::ofstream Out(To, std::ios::binary | std::ios::trunc);
  if (!Out)
    return false;
  Out << In.rdbuf();
  return static_cast<bool>(Out);
}

} // namespace

WorkerManager::WorkerManager(Config C) : Cfg(std::move(C)) {
  Slots.resize(Cfg.Workers);
}

WorkerManager::~WorkerManager() { stop(); }

std::string WorkerManager::socketPath(unsigned I) const {
  return Cfg.SocketPrefix + ".w" + std::to_string(I);
}

std::string WorkerManager::shardPath(unsigned I) const {
  return Cfg.StoreBase.empty() ? std::string()
                               : VerdictStore::shardPath(Cfg.StoreBase, I);
}

pid_t WorkerManager::pid(unsigned I) const {
  std::lock_guard<std::mutex> G(Lock);
  return I < Slots.size() ? Slots[I].Pid : -1;
}

uint64_t WorkerManager::generation(unsigned I) const {
  std::lock_guard<std::mutex> G(Lock);
  return I < Slots.size() ? Slots[I].Generation : 0;
}

bool WorkerManager::killWorker(unsigned I) {
#ifndef _WIN32
  pid_t P = pid(I);
  return P > 0 && ::kill(P, SIGKILL) == 0;
#else
  (void)I;
  return false;
#endif
}

//===----------------------------------------------------------------------===//
// Store seeding and merging
//===----------------------------------------------------------------------===//

void WorkerManager::seedShards() {
  if (Cfg.StoreBase.empty())
    return;
  // Union whatever the last fleet left behind — a cleanly-drained fleet
  // already merged, but a crashed one may hold verdicts only in its shards.
  // Inputs that fail to load (missing, stale version, different rules)
  // contribute nothing; the workers rebuild those verdicts.
  std::vector<std::string> Inputs;
  for (unsigned I = 0; I < Cfg.Workers; ++I) {
    VerdictStore::HeaderInfo HI = VerdictStore::peekHeader(shardPath(I));
    if (HI.ok() && HI.ConfigDigest == Cfg.ConfigDigest)
      Inputs.push_back(shardPath(I));
  }
  VerdictStore::HeaderInfo Base = VerdictStore::peekHeader(Cfg.StoreBase);
  if (Base.ok() && Base.ConfigDigest == Cfg.ConfigDigest)
    Inputs.push_back(Cfg.StoreBase);
  if (!Inputs.empty())
    VerdictStore::mergePaths(Inputs, Cfg.StoreBase, Cfg.ConfigDigest);
  // Every worker starts from the full fleet history: with cold shards a
  // restarted fleet would only be warm for keys that happen to land on the
  // worker that proved them last time.
  // A replaced shard's old journal goes with it: the merge above already
  // replayed it into the base.
  Base = VerdictStore::peekHeader(Cfg.StoreBase);
  if (Base.ok() && Base.ConfigDigest == Cfg.ConfigDigest)
    for (unsigned I = 0; I < Cfg.Workers; ++I) {
      copyFile(Cfg.StoreBase, shardPath(I));
      std::remove(VerdictStore::journalPath(shardPath(I)).c_str());
    }
}

void WorkerManager::mergeShards() {
  if (Cfg.StoreBase.empty())
    return;
  std::vector<std::string> Inputs;
  for (unsigned I = 0; I < Cfg.Workers; ++I) {
    VerdictStore::HeaderInfo HI = VerdictStore::peekHeader(shardPath(I));
    if (HI.ok() && HI.ConfigDigest == Cfg.ConfigDigest)
      Inputs.push_back(shardPath(I));
  }
  if (!Inputs.empty())
    // mergePaths saves with merge-on-save, so the base's own entries
    // survive even if no shard re-proved them.
    VerdictStore::mergePaths(Inputs, Cfg.StoreBase, Cfg.ConfigDigest);
}

//===----------------------------------------------------------------------===//
// Spawning
//===----------------------------------------------------------------------===//

bool WorkerManager::spawn(unsigned I, std::string *Error) {
#ifndef _WIN32
  std::string Sock = socketPath(I);
  ::unlink(Sock.c_str());

  std::vector<std::string> Args;
  Args.push_back(Cfg.Binary);
  Args.push_back("--listen");
  Args.push_back(Sock);
  Args.push_back("--queue");
  Args.push_back(std::to_string(Cfg.QueueBound));
  Args.push_back("--checkpoint");
  Args.push_back(std::to_string(Cfg.CheckpointEveryJobs));
  Args.push_back("--quiet");
  if (Cfg.WorkerThreads) {
    Args.push_back("--threads");
    Args.push_back(std::to_string(Cfg.WorkerThreads));
  }
  if (!Cfg.Pipeline.empty()) {
    Args.push_back("--pipeline");
    Args.push_back(Cfg.Pipeline);
  }
  if (Cfg.RuleMask != ~0u) {
    Args.push_back("--rule-mask");
    Args.push_back(std::to_string(Cfg.RuleMask));
  }
  if (Cfg.Triage)
    Args.push_back("--triage");
  if (!Cfg.StoreBase.empty()) {
    Args.push_back("--cache");
    Args.push_back(shardPath(I));
  }
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(const_cast<char *>(A.c_str()));
  Argv.push_back(nullptr);

  pid_t Child = ::fork();
  if (Child < 0) {
    if (Error)
      *Error = "cannot fork worker " + std::to_string(I);
    return false;
  }
  if (Child == 0) {
    // Worker stdio goes nowhere: it runs --quiet, and a worker must never
    // interleave bytes into the router's own streams.
    int Null = ::open("/dev/null", O_RDWR);
    if (Null >= 0) {
      ::dup2(Null, 0);
      ::dup2(Null, 1);
      ::dup2(Null, 2);
      if (Null > 2)
        ::close(Null);
    }
    ::execv(Argv[0], Argv.data());
    _exit(127); // exec failed; the parent's verify step reports it
  }
  Slots[I].Pid = Child;
  ++Slots[I].Generation;
  Slots[I].LastPing = std::chrono::steady_clock::now();
  return true;
#else
  (void)I;
  if (Error)
    *Error = "the worker fleet is POSIX-only";
  return false;
#endif
}

bool WorkerManager::verifyWorker(unsigned I, std::string *Error) {
#ifndef _WIN32
  ServerClient C;
  // The worker was just exec'd; its socket appears when it binds. ENOENT /
  // ECONNREFUSED during that window are exactly what the retry policy is
  // for.
  C.Retry.Retries = 16;
  C.Retry.BaseDelayMs = 5;
  C.Retry.MaxDelayMs = 250;
  std::string Err;
  if (!C.connectUnix(socketPath(I), &Err)) {
    if (Error)
      *Error = "worker " + std::to_string(I) + ": " + Err;
    return false;
  }
  setRecvTimeout(C.fd(), Cfg.PingTimeoutMs);
  if (!C.handshake(Cfg.ConfigDigest, nullptr, &Err)) {
    if (Error)
      *Error = "worker " + std::to_string(I) + " handshake: " + Err;
    return false;
  }
  WorkerHelloPayload WH;
  WH.RouterId = static_cast<uint64_t>(::getpid());
  WH.WorkerIndex = I;
  WH.Generation = generation(I);
  WorkerHelloOkPayload Ok;
  if (!C.workerHello(WH, &Ok, &Err)) {
    if (Error)
      *Error = "worker " + std::to_string(I) + " identity: " + Err;
    return false;
  }
  if (Ok.Pid != static_cast<uint64_t>(pid(I))) {
    if (Error)
      *Error = "worker " + std::to_string(I) +
               " socket answered with a foreign pid (stale daemon?)";
    return false;
  }
  return true;
#else
  (void)I;
  if (Error)
    *Error = "the worker fleet is POSIX-only";
  return false;
#endif
}

bool WorkerManager::start(std::string *Error) {
#ifndef _WIN32
  if (Started) {
    if (Error)
      *Error = "worker manager already started";
    return false;
  }
  if (Cfg.Workers == 0) {
    if (Error)
      *Error = "a fleet needs at least one worker";
    return false;
  }
  seedShards();
  {
    std::lock_guard<std::mutex> G(Lock);
    for (unsigned I = 0; I < Cfg.Workers; ++I)
      if (!spawn(I, Error))
        return false;
  }
  // Fail fast and loudly when a worker cannot serve (bad binary path,
  // digest mismatch from an unsupported rule configuration) instead of
  // letting every later job time out against it.
  for (unsigned I = 0; I < Cfg.Workers; ++I)
    if (!verifyWorker(I, Error)) {
      Started = true; // stop() must clean up what was spawned
      stop();
      Started = false;
      return false;
    }
  StopMonitor = false;
  Monitor = std::thread([this] { monitorLoop(); });
  Started = true;
  return true;
#else
  if (Error)
    *Error = "the worker fleet is POSIX-only";
  return false;
#endif
}

//===----------------------------------------------------------------------===//
// Supervision
//===----------------------------------------------------------------------===//

bool WorkerManager::pingWorker(unsigned I) {
#ifndef _WIN32
  ServerClient C;
  // A couple of quick retries so a worker mid-restart (reaped a tick ago,
  // socket not bound yet) is not double-punished.
  C.Retry.Retries = 3;
  C.Retry.BaseDelayMs = 10;
  C.Retry.MaxDelayMs = 50;
  if (!C.connectUnix(socketPath(I)))
    return false;
  setRecvTimeout(C.fd(), Cfg.PingTimeoutMs);
  return C.handshake(Cfg.ConfigDigest) && C.ping();
#else
  (void)I;
  return false;
#endif
}

void WorkerManager::monitorLoop() {
#ifndef _WIN32
  while (!StopMonitor) {
    // Reap: an exited worker is restarted on its socket path. The bumped
    // generation tells dispatchers their cached connection is to a ghost.
    {
      std::lock_guard<std::mutex> G(Lock);
      for (unsigned I = 0; I < Slots.size() && !StopMonitor; ++I) {
        if (Slots[I].Pid <= 0)
          continue;
        int St = 0;
        if (::waitpid(Slots[I].Pid, &St, WNOHANG) == Slots[I].Pid) {
          Slots[I].Pid = -1;
          ++Restarts;
          spawn(I, nullptr);
        }
      }
    }
    // Ping deadline: protocol-dead-but-process-alive workers get SIGKILL;
    // the reap above turns that into a restart next tick.
    if (Cfg.HealthPing) {
      for (unsigned I = 0; I < Cfg.Workers && !StopMonitor; ++I) {
        pid_t P;
        uint64_t Gen;
        {
          std::lock_guard<std::mutex> G(Lock);
          auto Now = std::chrono::steady_clock::now();
          if (Now - Slots[I].LastPing <
              std::chrono::milliseconds(Cfg.PingIntervalMs))
            continue;
          Slots[I].LastPing = Now;
          P = Slots[I].Pid;
          Gen = Slots[I].Generation;
        }
        if (P <= 0 || pingWorker(I))
          continue;
        std::lock_guard<std::mutex> G(Lock);
        // Only kill the generation that failed the ping; a worker that
        // restarted underneath the probe is innocent.
        if (Slots[I].Pid == P && Slots[I].Generation == Gen) {
          ::kill(P, SIGKILL);
          ++HealthKills;
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
#endif
}

void WorkerManager::stop() {
#ifndef _WIN32
  if (!Started)
    return;
  StopMonitor = true;
  if (Monitor.joinable())
    Monitor.join();

  // Graceful first: a Shutdown frame makes the worker drain and checkpoint
  // its shard, which is what keeps the restarted fleet 100% warm.
  for (unsigned I = 0; I < Cfg.Workers; ++I) {
    if (pid(I) <= 0)
      continue;
    ServerClient C;
    if (C.connectUnix(socketPath(I))) {
      setRecvTimeout(C.fd(), Cfg.PingTimeoutMs);
      if (C.handshake(Cfg.ConfigDigest))
        C.requestShutdown();
    }
  }
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(Cfg.ShutdownGraceMs);
  for (;;) {
    bool AnyAlive = false;
    {
      std::lock_guard<std::mutex> G(Lock);
      for (Slot &S : Slots) {
        if (S.Pid <= 0)
          continue;
        int St = 0;
        if (::waitpid(S.Pid, &St, WNOHANG) == S.Pid)
          S.Pid = -1;
        else
          AnyAlive = true;
      }
    }
    if (!AnyAlive || std::chrono::steady_clock::now() >= Deadline)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  {
    std::lock_guard<std::mutex> G(Lock);
    for (Slot &S : Slots) {
      if (S.Pid <= 0)
        continue;
      ::kill(S.Pid, SIGKILL);
      int St = 0;
      ::waitpid(S.Pid, &St, 0);
      S.Pid = -1;
    }
  }
  for (unsigned I = 0; I < Cfg.Workers; ++I)
    ::unlink(socketPath(I).c_str());

  mergeShards();
  Started = false;
#endif
}
