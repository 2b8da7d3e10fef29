//===- ValidationEngine.h - Parallel batch validation -----------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batch validation subsystem. Where `validatePair` proves one function
/// pair and `runLLVMMD` loops over a module synchronously, the
/// ValidationEngine owns throughput: it optimizes a module, schedules every
/// independent (original, optimized) pair across a work-stealing thread
/// pool, skips structurally identical pairs in O(1) via function
/// fingerprints, memoizes verdicts across submissions, and aggregates a
/// deterministic ValidationReport regardless of thread count.
///
/// Two granularities are supported:
///  * WholePipeline — one pair per function, original vs fully optimized
///    (the paper's Figure 4 experiment);
///  * PerPass — the function is snapshotted after every pass that changes
///    it and each consecutive snapshot pair is validated, so a failure is
///    attributed to the specific guilty pass.
///
/// Both phases run on the pool. The *optimization* phase parallelizes per
/// function: each optimizer task gets its own PassManager clone (passes
/// carry scratch state) and interns constants through the lock-striped
/// Context concurrently. The *validation* phase parallelizes per pair.
/// Scheduling, cache interaction and report aggregation stay sequential and
/// in deterministic submission order, so reports are byte-identical for any
/// thread count. Pipelines containing passes the registry cannot rebuild
/// (caller-assembled pass objects without a registered name) fall back to
/// sequential optimization on the caller's PassManager.
///
/// `runSuite` shards the engine over a whole suite of modules: every
/// (module, function) optimize task and every validation pair is scheduled
/// on the one shared pool, the verdict cache deduplicates across modules,
/// and the result is one ValidationReport per module plus a suite roll-up.
///
/// A ValidationEngine instance must not be used from multiple threads at
/// once, but may be reused across many runs to exploit its verdict cache.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_DRIVER_VALIDATIONENGINE_H
#define LLVMMD_DRIVER_VALIDATIONENGINE_H

#include "driver/Report.h"
#include "driver/ThreadPool.h"
#include "driver/VerdictStore.h"
#include "normalize/Rules.h"
#include "triage/Triage.h"

#include <memory>
#include <string>
#include <unordered_map>

namespace llvmmd {

class Function;
class Module;
class PassManager;

enum class ValidationGranularity : uint8_t {
  WholePipeline, ///< one validation per transformed function
  PerPass,       ///< snapshot + validate after every changing pass
};

struct EngineConfig {
  /// Worker threads for both phases; 0 = one per hardware thread.
  unsigned Threads = 0;
  /// Rule sets and fixpoint budget. Rules.M is set by the engine to the
  /// original module of each run.
  RuleConfig Rules;
  ValidationGranularity Granularity = ValidationGranularity::WholePipeline;
  /// Memoize verdicts by (fingerprint, fingerprint, rule) key across
  /// submissions to the same engine.
  bool UseCache = true;
  /// Restore the last certified body when a validation fails: the original
  /// in whole-pipeline mode, the last validated snapshot in stepwise mode
  /// (the paper's `replace fo by fi in output`).
  bool RevertFailures = false;
  /// Path of the persistent verdict store (VerdictStore format). Empty
  /// keeps the cache in-memory only.
  std::string CachePath;
  /// With CachePath set: merge the store into the cache at construction. A
  /// store whose magic/version/config digest mismatches is rejected and the
  /// cache starts empty (the store will be rebuilt on save).
  bool CacheLoad = true;
  /// With CachePath set: save the cache back (atomically, merging the
  /// current on-disk contents) after every run that memoized new verdicts.
  bool CacheSave = true;
  /// Alarm triage (src/triage/): with Triage.Enabled, every rejected pair
  /// is post-processed on the shared pool — differential witness search,
  /// delta reduction, rule-gap attribution — and the TriageResult lands in
  /// the function's report entry. Deterministic across thread counts.
  TriageOptions Triage;
};

struct EngineCacheStats {
  uint64_t Hits = 0;   ///< verdicts replayed (cache or duplicate in batch)
  /// The subset of Hits replayed from entries the persistent store
  /// contributed ("warm"); Hits - WarmHits were proven by this process
  /// ("cold" in-memory hits and in-batch duplicates).
  uint64_t WarmHits = 0;
  uint64_t Misses = 0; ///< pairs validated from scratch
  uint64_t SkippedIdentical = 0; ///< fingerprint-equal pairs, skipped O(1)
  uint64_t Entries = 0;          ///< memoized verdicts currently held
  uint64_t StoreLoaded = 0; ///< entries merged in from the persistent store
  /// Verdict entries written by the most recent save, or by the most
  /// recent checkpoint append (only the new entries).
  uint64_t StoreSaved = 0;
  /// Triage replay accounting, mirroring the verdict fields: rejected pairs
  /// whose TriageResult was replayed from the in-memory triage cache
  /// (TriageHits; TriageWarmHits of those came from the persistent store)
  /// vs re-interpreted from scratch (TriageMisses).
  uint64_t TriageHits = 0;
  uint64_t TriageWarmHits = 0;
  uint64_t TriageMisses = 0;
  uint64_t TriageStoreLoaded = 0; ///< triage entries merged from the store
  /// Phase wall-time accounting, accumulated across runs (microseconds).
  /// Telemetry only — these numbers never feed verdict-bearing report
  /// fields (suite JSON exposes them solely behind IncludeTiming).
  uint64_t OptimizeMicroseconds = 0;  ///< phase 1: optimize + fingerprint
  uint64_t ValidateMicroseconds = 0;  ///< batch pair validation
  uint64_t StepwiseMicroseconds = 0;  ///< stepwise synthesis + attribution
  uint64_t TriageMicroseconds = 0;    ///< differential/reduce/attribute
  uint64_t RevertMicroseconds = 0;    ///< failure revert re-cloning
  uint64_t StoreLoadMicroseconds = 0; ///< verdict store load
  uint64_t StoreSaveMicroseconds = 0; ///< verdict store checkpoint/save
  /// Per-pass optimize wall time (pass name → accumulated microseconds),
  /// populated in stepwise granularity where passes run individually; the
  /// whole-pipeline path accounts under OptimizeMicroseconds only.
  std::vector<std::pair<std::string, uint64_t>> PassMicroseconds;
};

/// The result of one engine run: the certified optimized module (same
/// Context as the input) plus the full report.
struct EngineRun {
  std::unique_ptr<Module> Optimized;
  ValidationReport Report;
};

/// The result of one suite run: the certified optimized modules (same order
/// as the inputs, each in its input's Context) plus per-module reports and
/// the roll-up.
struct SuiteRun {
  std::vector<std::unique_ptr<Module>> Optimized;
  SuiteReport Report;
};

class ValidationEngine {
public:
  explicit ValidationEngine(EngineConfig Config = EngineConfig());
  ~ValidationEngine();

  ValidationEngine(const ValidationEngine &) = delete;
  ValidationEngine &operator=(const ValidationEngine &) = delete;

  /// Clones \p M, runs \p Pipeline (comma-separated pass names) on every
  /// defined function, and validates according to the configured
  /// granularity. Asserts on an unparsable pipeline.
  EngineRun run(const Module &M, const std::string &Pipeline);

  /// Same, over a caller-assembled pass manager (e.g. one containing
  /// passes that have no pipeline name).
  EngineRun run(const Module &M, PassManager &PM);

  /// Validates a whole suite in one batch: every module is cloned and
  /// optimized with \p Pipeline, all (module, function) work is scheduled
  /// over the one shared pool, and verdicts deduplicate across modules
  /// through the cache. Modules may live in different Contexts. Reports are
  /// emitted per module (input order) plus a suite roll-up.
  SuiteRun runSuite(const std::vector<const Module *> &Modules,
                    const std::string &Pipeline);

  /// Validates two already-optimized modules pairwise: every defined
  /// function of \p Optimized against \p Original's function of the same
  /// name. No passes are run and nothing is reverted; "transformed" means
  /// the fingerprints differ.
  ValidationReport validateModules(const Module &Original,
                                   const Module &Optimized);

  /// Swaps the rule configuration for subsequent runs. Safe across runs:
  /// the verdict cache keys on (mask, strategy, fixpoint budget, and the
  /// globals the rules can read), so entries from other configurations can
  /// never be replayed.
  void setRules(const RuleConfig &Rules) { Cfg.Rules = Rules; }
  const RuleConfig &getRules() const { return Cfg.Rules; }

  const EngineCacheStats &cacheStats() const { return Stats; }
  void clearCache();
  unsigned getThreadCount() const { return Pool.getThreadCount(); }

  /// New verdicts or triage results were memoized since the last save.
  /// Lets callers that own the checkpoint cadence (the validation server's
  /// periodic checkpointer) skip rewriting an unchanged store.
  bool cacheDirty() const { return CacheDirty; }

  /// The VerdictStore header digest for the engine's current rule
  /// configuration (per-module globals are digested into entry keys, not
  /// here).
  uint64_t storeConfigDigest() const;

  /// Merges the store at Cfg.CachePath into the verdict cache; entries the
  /// engine already proved keep their in-memory verdict. Called by the
  /// constructor when CachePath is set and CacheLoad is on; callable again
  /// to pick up verdicts other processes saved meanwhile.
  VerdictStore::LoadResult loadCache();

  /// Atomically saves the verdict cache to Cfg.CachePath, merging the
  /// current on-disk contents (journal included, which the save deletes).
  /// Called automatically after every run that memoized new verdicts (when
  /// CachePath is set and CacheSave is on).
  bool saveCache(std::string *Error = nullptr);

  /// Checkpoints only what was memoized since the last save: one record
  /// appended to the store's journal, O(new entries). Falls back to
  /// saveCache() whenever VerdictStore::append asks for a full save (no
  /// loadable store yet, a bad journal tail, or a journal that would
  /// outgrow the store file) or fails.
  bool checkpointCache(std::string *Error = nullptr);

private:
  /// Verdict cache keys are shared with the persistent store: both
  /// fingerprints plus a digest of everything else the verdict depends on
  /// (rule mask, sharing strategy, fixpoint budget, and — when
  /// RS_GlobalFold can read initializers — the module's globals;
  /// fingerprints hash globals by name only, so the same pair in two
  /// modules may differ).
  using CacheKey = VerdictKey;
  using CacheKeyHash = VerdictKeyHash;

  /// One memoized verdict plus its provenance: FromStore marks entries the
  /// persistent store contributed, so replays can be attributed warm (prior
  /// process) vs cold (this process).
  struct CachedVerdict {
    ValidationResult Result;
    bool FromStore = false;
  };

  /// One memoized triage outcome (same key space as verdicts, plus the
  /// options digest the stored entry was computed under).
  struct CachedTriage {
    StoredTriage Stored;
    bool FromStore = false;
  };

  /// A scheduled validation: a unique, uncached (original, optimized) pair
  /// of module \p Mod within the current batch.
  struct PairJob {
    const Function *A = nullptr;
    const Function *B = nullptr;
    unsigned Mod = 0;
    CacheKey Key;
    ValidationResult Result;
  };
  /// Where one job's verdict lands: module \p Mod, function \p Fn, step
  /// \p Step (-1 for the whole-pipeline slot). Duplicate pairs in a batch
  /// share a job and are marked as (deterministic) cache hits.
  struct Landing {
    unsigned Mod = 0;
    size_t Fn = 0;
    int Step = -1;
    size_t Job = 0;
    bool DuplicateHit = false;
  };

  /// Per-batch scheduling state (jobs, landings, duplicate tracking);
  /// defined in the implementation. One batch spans all modules of a suite.
  struct BatchState;
  /// Per-module optimization state (clone, snapshots, pending pairs);
  /// defined in the implementation.
  struct ModuleRunState;

  /// The CacheKey::Config value for validating against \p OrigModule under
  /// the current rule configuration.
  uint64_t cacheConfigDigest(const Module &OrigModule) const;

  /// Resolves the pair against the cache / in-batch duplicates or appends a
  /// job; the verdict will land in module \p Mod's report at function
  /// \p Fn (step \p Step, or the whole-pipeline slot when \p Step is -1).
  void scheduleValidation(BatchState &B, unsigned Mod, uint64_t FpA,
                          uint64_t FpB, const Function *A,
                          const Function *OptF, size_t Fn, int Step);

  /// Validates every scheduled job in parallel, lands all verdicts into the
  /// per-module reports, and memoizes the new ones.
  void executeBatch(BatchState &B,
                    const std::vector<ValidationReport *> &Reports);

  /// Optimizes, fingerprints and snapshots one function of one module;
  /// thread-safe against itself on other functions.
  void optimizeFunction(ModuleRunState &S, size_t Fi, PassManager &PM);

  /// The shared engine core: run every module through optimize + validate
  /// as one batch over the pool. When \p ProtoPM is registry-constructible
  /// (its clone() returns non-null), each optimizer task runs its own
  /// clone in parallel; otherwise \p ProtoPM itself runs the functions
  /// sequentially in submission order.
  SuiteRun runModules(const std::vector<const Module *> &Modules,
                      const std::string &PipelineName, PassManager &ProtoPM);

  /// Replays cached triage results into \p Candidates' report entries and
  /// returns the (Mod, Fn) subset that still needs triagePair, preserving
  /// the deterministic submission order. \p Digests are the per-module
  /// CacheKey::Config values, \p OptionDigests the per-module
  /// triageOptionsDigest values.
  std::vector<std::pair<unsigned, size_t>> resolveTriageCache(
      const std::vector<std::pair<unsigned, size_t>> &Candidates,
      const std::vector<ValidationReport *> &Reports,
      const std::vector<uint64_t> &Digests,
      const std::vector<uint64_t> &OptionDigests);

  /// Memoizes freshly computed triage results for \p Tasks (the
  /// resolveTriageCache leftovers, now filled in).
  void memoizeTriage(const std::vector<std::pair<unsigned, size_t>> &Tasks,
                     const std::vector<ValidationReport *> &Reports,
                     const std::vector<uint64_t> &Digests,
                     const std::vector<uint64_t> &OptionDigests);

  EngineConfig Cfg;
  ThreadPool Pool;
  std::unordered_map<CacheKey, CachedVerdict, CacheKeyHash> Cache;
  std::unordered_map<CacheKey, CachedTriage, CacheKeyHash> TriageCache;
  EngineCacheStats Stats;
  /// New verdicts or triage results were memoized since the last save;
  /// gates save-on-report so replay-only runs don't rewrite an unchanged
  /// store.
  bool CacheDirty = false;
  /// Keys memoized since the last save (recorded only with a CachePath):
  /// what checkpointCache appends.
  std::vector<CacheKey> UnsavedVerdicts;
  std::vector<CacheKey> UnsavedTriage;
  VerdictStore::JournalCursor Journal;
};

} // namespace llvmmd

#endif // LLVMMD_DRIVER_VALIDATIONENGINE_H
