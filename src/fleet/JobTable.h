//===- JobTable.h - Fleet job registry: dedup + subscribe -------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The router's job registry: every in-flight submission lives here from
/// admission until its JobDone (or Error) frame has been fanned out.
///
/// Two sharing behaviors fall out of the registry, both justified by the
/// engine's determinism (identical submissions under identical rules
/// produce byte-identical response frames):
///
///  * **Submit dedup** — a Submit whose module list hashes (and compares)
///    equal to a live job's joins that job's stream instead of running the
///    engine again. The duplicate submitter is answered with a JobId frame
///    naming the shared job; every response frame then fans out to all
///    subscribers.
///  * **Subscribe-many** — a Subscribe frame attaches to a live job by id,
///    replaying the already-streamed frames from a bounded per-job buffer
///    before the live tail. When the buffer had to be truncated (one job
///    streamed more than ReplayBufferBytes), late attaches are refused
///    with UnknownJob rather than handed a stream with a hole in it; a
///    duplicate Submit in that state runs a fresh job instead of joining.
///
/// Crash recovery uses the same determinism: when a worker dies mid-job
/// the dispatcher requeues the job and the table *skips* the data frames
/// that were already fanned out (the re-run reproduces them byte-for-byte),
/// so subscribers see each frame exactly once. The attempt budget bounds
/// the damage of a persistently-crashing job: past MaxJobAttempts the job
/// fails to every subscriber with a WorkerLost error.
///
/// Locking: TableLock guards the id/key/affinity maps; each job's
/// StreamLock serializes buffer appends, fan-out, and attach-replay so an
/// attach observes a clean prefix/tail boundary. Order: TableLock before
/// StreamLock, never the reverse.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_FLEET_JOBTABLE_H
#define LLVMMD_FLEET_JOBTABLE_H

#include "server/Protocol.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace llvmmd {

class JobTable {
public:
  /// One subscriber's write side. Returns false when the client is gone;
  /// the table then drops the sink (the job itself keeps running — its
  /// verdicts still warm the worker's store for everyone else).
  using Writer = std::function<bool(FrameType, const std::string &)>;

  struct Sink {
    Writer Write;
    bool Dead = false;
  };
  using SinkPtr = std::shared_ptr<Sink>;

  struct Config {
    /// Folded into every job key so two rule configurations can never
    /// dedup onto each other (the router re-checks at handshake anyway).
    uint64_t ConfigDigest = 0;
    /// Worker count the affinity map spreads keys over.
    unsigned Workers = 1;
    /// Byte bound on one job's replay buffer (frame payloads + headers).
    uint64_t ReplayBufferBytes = 8ull << 20;
    /// Total dispatch attempts per job (1 = no requeue after a crash).
    unsigned MaxJobAttempts = 2;
  };

  struct Job {
    uint64_t Id = 0;
    uint64_t Key = 0;
    SubmitPayload Req;
    /// Sticky preference (set once at creation from the affinity map): a
    /// repeat of the same key goes back to where its verdicts are already
    /// warm, unless that worker is busy while another one idles (the
    /// router's dispatch rule).
    unsigned WorkerIndex = 0;

    // Everything below is guarded by StreamLock.
    std::mutex StreamLock;
    std::vector<std::pair<FrameType, std::string>> Buffer;
    uint64_t BufferBytes = 0;
    bool BufferTruncated = false;
    /// Data frames fanned out across all attempts; the requeue skip count.
    uint64_t DeliveredFrames = 0;
    /// Data frames seen from the worker in the current attempt.
    uint64_t SeenThisAttempt = 0;
    unsigned Attempts = 0;
    bool Finished = false;
    std::vector<SinkPtr> Subs;
  };
  using JobPtr = std::shared_ptr<Job>;

  /// Invoked with (jobId, created, replayedFrames) at the moment the reply
  /// frame must be written: for an attach, under the job's StreamLock so
  /// the reply precedes every replayed frame and the live tail.
  using ReplyFn = std::function<void(uint64_t, bool, uint32_t)>;

  explicit JobTable(Config C) : Cfg(C) {}

  JobTable(const JobTable &) = delete;
  JobTable &operator=(const JobTable &) = delete;

  /// The dedup key: module list (profile/name/text/fn-count) folded with
  /// the config digest.
  uint64_t keyOf(const SubmitPayload &Req) const;

  struct SubmitResult {
    JobPtr J;             ///< never null
    bool Created = false; ///< caller must enqueue J to worker J->WorkerIndex
    uint32_t ReplayedFrames = 0;
  };

  /// Dedup-or-create. On dedup, \p Reply runs and the buffer replays to
  /// \p S before any live frame can interleave; on create, \p Reply runs
  /// with the fresh id (no frames exist yet — the caller enqueues after).
  SubmitResult submit(const SubmitPayload &Req, SinkPtr S,
                      const ReplyFn &Reply);

  /// Attach to a live job by id. Null when the job is unknown/finished or
  /// its replay buffer was truncated (\p Error says which).
  JobPtr subscribeJob(uint64_t JobId, SinkPtr S, const ReplyFn &Reply,
                      std::string *Error);

  /// Dispatcher: a streaming attempt begins (counts against the budget and
  /// resets the skip cursor).
  void beginAttempt(const JobPtr &J);

  /// Dispatcher: one data frame (Function/ModuleReport/SuiteReport) from
  /// the worker, byte-unchanged. Frames already fanned out by a previous
  /// attempt are skipped; new ones are buffered and fanned out.
  void deliver(const JobPtr &J, FrameType T, const std::string &Payload);

  /// Dispatcher: the worker's JobDone arrived. The payload's JobId is
  /// rewritten to the router's before fan-out; the job leaves the table.
  void complete(const JobPtr &J, JobDonePayload Done);

  /// Dispatcher: the job is over without a JobDone (worker Error frame, or
  /// the attempt budget ran out). Fans an Error frame out and removes the
  /// job.
  void fail(const JobPtr &J, ErrorCode Code, const std::string &Msg);

  /// Dispatcher: the worker died mid-attempt. True = requeue (budget
  /// left); false = the job was failed to its subscribers with WorkerLost.
  bool requeueOrFail(const JobPtr &J);

  size_t liveJobs() const;

  struct Stats {
    uint64_t Created = 0;
    uint64_t Deduplicated = 0;
    uint64_t Subscribed = 0;
    uint64_t ReplayTruncations = 0;
    uint64_t FramesFanned = 0; ///< frame×subscriber sends (replays included)
  };
  Stats stats() const;

private:
  unsigned pickWorker(uint64_t Key);
  /// Fan one frame to every live sink of \p J. StreamLock must be held.
  void fanOutLocked(Job &J, FrameType T, const std::string &Payload);
  void finishLocked(std::unique_lock<std::mutex> &TableG, Job &J,
                    FrameType T, const std::string &Payload);

  Config Cfg;
  mutable std::mutex TableLock;
  std::unordered_map<uint64_t, JobPtr> ById;
  std::unordered_map<uint64_t, JobPtr> ByKey;
  std::unordered_map<uint64_t, unsigned> Affinity;
  unsigned NextWorker = 0;
  uint64_t NextJobId = 1;
  mutable std::mutex StatsLock;
  Stats Counters;
};

} // namespace llvmmd

#endif // LLVMMD_FLEET_JOBTABLE_H
