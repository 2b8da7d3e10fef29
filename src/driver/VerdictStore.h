//===- VerdictStore.h - Persistent cross-process verdict store --*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent half of the engine's verdict cache. Function fingerprints
/// are byte-stable across runs, so a verdict proven in one process is just
/// as valid in the next — the store serializes the memo table
/// `(fp_orig, fp_opt, config) -> ValidationResult` to a versioned binary
/// file and merges it back on load, which turns repeated CI validations of
/// the same compiler output into pure replays.
///
/// Safety over convenience:
///  * the header carries a magic, a format version, and a config digest
///    (rule mask, sharing strategy, fixpoint budget, plus a semantics salt
///    bumped whenever validator behavior changes); anything mismatched is
///    *rejected* — the caller rebuilds from scratch rather than replaying
///    verdicts proven under different rules. Per-module state (the globals
///    digest RS_GlobalFold depends on) is part of every entry's key, so
///    entries from other modules are inert rather than wrong.
///  * every shard payload is checksummed and the shard index carries its
///    own hash; a truncated or bit-flipped file loads as Corrupt, never as
///    a partial cache.
///  * saves are atomic (write temp + rename), merge the current on-disk
///    contents first, and serialize against each other via an advisory
///    lock on `<path>.lock`, so concurrent shards writing the same path
///    union their verdicts (last writer wins per key) instead of
///    clobbering or losing each other's updates.
///  * since v3 the payload is split into page-aligned shards partitioned by
///    the entry key's Config field — the per-module digest folds into
///    Config, so one module's verdicts land in one shard. A
///    MappedVerdictStore mmaps the file (when the platform has mmap) and
///    materializes shards lazily on first lookup: probing a store for one
///    module's verdicts touches the index page plus that module's shard
///    pages, not the whole file.
///  * a checkpoint need not rewrite the store: append() writes only the
///    entries new since the last save as one record of `<path>.journal`
///    (same entry encoding, same digest gate, its own payload hash), under
///    the same lock. load() replays the journal after the store file, so
///    every reader — restarts, mergePaths, the fleet's shard merge — sees
///    it. A crash mid-append leaves a torn tail that ends the replay: only
///    that record is lost. Every save() with merge folds the journal into
///    one store file and deletes it; that is the only compaction. append()
///    asks its caller for such a save when no loadable store file exists,
///    when the journal's tail is bad, or when the journal would grow
///    larger than the store file, so the total write work stays linear in
///    the entries written.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_DRIVER_VERDICTSTORE_H
#define LLVMMD_DRIVER_VERDICTSTORE_H

#include "triage/Triage.h"
#include "validator/Validator.h"

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace llvmmd {

struct RuleConfig;

/// What one memoized verdict is keyed on: both structural fingerprints plus
/// everything else the verdict depends on (rule mask, sharing strategy,
/// fixpoint budget, and the module-globals digest when RS_GlobalFold can
/// read initializers). Shared between the in-memory cache and the store.
struct VerdictKey {
  uint64_t FpA = 0, FpB = 0;
  uint64_t Config = 0;
  bool operator==(const VerdictKey &O) const {
    return FpA == O.FpA && FpB == O.FpB && Config == O.Config;
  }
};

struct VerdictKeyHash {
  size_t operator()(const VerdictKey &K) const;
};

using VerdictMap =
    std::unordered_map<VerdictKey, ValidationResult, VerdictKeyHash>;

/// One memoized triage outcome, stored next to the verdict it explains:
/// same fingerprint pair, with the key's Config additionally folding in
/// the triage-options digest (triageOptionsDigest: corpus size, budgets,
/// resolved corpus bias) so two modules that share a rejected pair but
/// mine different biases hold separate entries. The digest also rides
/// along in the value and is re-checked on replay — a mismatched entry is
/// inert, never wrong.
struct StoredTriage {
  uint64_t OptionsDigest = 0;
  TriageResult Result;
};

using TriageMap = std::unordered_map<VerdictKey, StoredTriage, VerdictKeyHash>;

/// Digest of everything engine-global a replayed verdict depends on: rule
/// mask, sharing strategy, fixpoint budget, and the store's semantics salt.
/// This is the store header's compatibility gate; per-module inputs are
/// digested into each entry's key instead.
uint64_t verdictStoreConfigDigest(const RuleConfig &Rules);

class VerdictStore {
public:
  /// On-disk layout version. Bump when the serialized shape changes.
  /// v2 appended the triage section (entries keyed like verdicts, carrying
  /// the full TriageResult plus its options digest); v3 restructured the
  /// payload into page-aligned, per-module shards behind an index header.
  /// v3 is written; v2 is still read (and rewritten as v3 on the next
  /// save); v1 stores are rejected as BadVersion and rebuilt.
  static constexpr uint32_t FormatVersion = 3;
  /// Shard payloads start on multiples of this and the index is sized to
  /// it, so mapping one shard touches only its own pages.
  static constexpr size_t PageBytes = 4096;
  /// Folded into every config digest; bump when validator *behavior*
  /// changes in a way old verdicts must not survive (new rules, fingerprint
  /// algorithm changes, ...). Orthogonal to FormatVersion, which only
  /// covers the byte layout.
  static constexpr uint64_t SemanticsSalt = 0x6c6d642d76312e31ULL; // "lmd-v1.1"

  enum class LoadStatus : uint8_t {
    Loaded,         ///< entries merged into the map
    NoFile,         ///< nothing at the path (fresh start, not an error)
    BadMagic,       ///< not a verdict store
    BadVersion,     ///< serialized with a different FormatVersion
    ConfigMismatch, ///< produced under a different rule configuration
    Corrupt,        ///< truncated file or checksum failure
  };

  struct LoadResult {
    LoadStatus Status = LoadStatus::NoFile;
    uint64_t EntriesInFile = 0; ///< entries the file claims to hold
    uint64_t EntriesMerged = 0; ///< entries actually added to the map
    uint64_t JournalRecords = 0; ///< journal records replayed after the file
    std::string Message;        ///< human-readable detail on rejection
    bool loaded() const { return Status == LoadStatus::Loaded; }
  };

  /// Loads the store at \p Path and merges its entries into \p Map (and,
  /// when \p Triage is non-null, its triage section into \p *Triage). Keys
  /// already present keep their in-memory value (the current process has
  /// fresher information). On any rejection both maps are left untouched.
  /// Once a v3 store file loads, the records of `<path>.journal` under the
  /// same digest are replayed on top of it (a later record wins per key);
  /// the replay stops at the first torn or corrupt record, and records
  /// under another digest are skipped. (append() never extends a v2 file.)
  static LoadResult load(const std::string &Path, uint64_t ConfigDigest,
                         VerdictMap &Map, TriageMap *Triage = nullptr);

  /// Atomically replaces the store at \p Path with \p Map: serialize to a
  /// sibling temp file, then rename over the target. When \p MergeExisting
  /// (the default), a loadable on-disk store with the same digest — its
  /// journal included — is folded in first (in-memory entries win per key),
  /// so two engines saving to the same path union their verdicts instead
  /// of clobbering. \p Triage, when non-null, is written (and merged) the
  /// same way. The journal is deleted after the rename either way. \p Map
  /// is taken by value and merged into in place: a caller done with its
  /// map moves it in instead of paying for a copy. Returns the number of
  /// verdict entries written, or ~0ull on I/O failure (with \p Error set).
  static uint64_t save(const std::string &Path, uint64_t ConfigDigest,
                       VerdictMap Map, std::string *Error = nullptr,
                       bool MergeExisting = true,
                       const TriageMap *Triage = nullptr);

  /// The journal next to the store at \p Path: `<path>.journal`.
  static std::string journalPath(const std::string &Path);

  /// What one appender remembers between appends so that an append costs
  /// O(entries appended): the identity of the store file it last verified
  /// loadable, and how much of the journal (by identity) it has verified.
  /// Anything else — a store rewritten or a journal appended by another
  /// process — is re-verified under the lock. Start from a default value.
  struct JournalCursor {
    uint64_t StoreStamp = 0;
    uint64_t StoreBytes = 0;
    uint64_t JournalStamp = 0;
    uint64_t JournalBytes = 0;
  };

  enum class AppendStatus : uint8_t {
    Appended, ///< one record landed at the end of the journal
    /// Nothing was written; the caller must save() everything it holds,
    /// which folds the journal into a rewritten store file. Returned when
    /// no v3 store file under \p ConfigDigest loads (the journal would not
    /// be replayed), when the journal ends in a bad record (an append after
    /// it would never be replayed), and when the record would make the
    /// journal larger than the store file (so full saves come
    /// geometrically rarely and the total write work stays linear).
    NeedsSave,
    Failed, ///< I/O failure (Error set)
  };

  /// Appends \p Map and \p Triage (the entries new since the last save) as
  /// one journal record, entries sorted by key, under the save lock, at a
  /// cost of O(new entries) — or asks for a full save (see AppendStatus).
  static AppendStatus append(const std::string &Path, uint64_t ConfigDigest,
                             const VerdictMap &Map, const TriageMap *Triage,
                             JournalCursor &Cursor,
                             std::string *Error = nullptr);

  /// Serializes \p Map (+ optional triage section) to the store byte format
  /// (header included). Exposed for tests that need to corrupt specific
  /// offsets.
  static std::string serialize(uint64_t ConfigDigest, const VerdictMap &Map,
                               const TriageMap *Triage = nullptr);

  /// The canonical per-worker shard path under a fleet base store:
  /// `<base>.shard<index>`. Kept here (not in src/fleet/) so offline tools
  /// and the fleet agree on the naming forever.
  static std::string shardPath(const std::string &BasePath, unsigned Index);

  /// Header-only inspection without touching entry payloads (the checksum
  /// IS verified — a corrupt store should say so, not report a count).
  struct HeaderInfo {
    LoadStatus Status = LoadStatus::NoFile;
    uint32_t Version = 0;
    uint32_t ShardCount = 0; ///< 0 for v2 stores (single flat payload)
    uint64_t ConfigDigest = 0;
    uint64_t VerdictEntries = 0;
    uint64_t TriageEntries = 0;
    uint64_t FileBytes = 0;
    /// The journal as load() would replay it: whole records under the
    /// store's digest and the entries they carry (a key may be counted
    /// again if a later record or the store file holds it too). A torn or
    /// corrupt tail is JournalBytes - JournalValidBytes bytes that load()
    /// ignores; it does not make the store Corrupt.
    uint64_t JournalRecords = 0;
    uint64_t JournalVerdictEntries = 0;
    uint64_t JournalTriageEntries = 0;
    uint64_t JournalBytes = 0; ///< journal file size (0 when absent)
    uint64_t JournalValidBytes = 0;
    std::string Message;
    bool ok() const { return Status == LoadStatus::Loaded; }
  };

  /// Reads \p Path's header (any config digest accepted — the caller is
  /// inspecting, not replaying). Status mirrors load(): BadMagic/BadVersion/
  /// Corrupt on rejection, Loaded when the header and checksums hold. For a
  /// v3 store the entry counts come straight from the index — no entry is
  /// parsed — but every shard checksum is still verified: inspection stays
  /// honest about damage. The journal fields describe `<path>.journal`
  /// (record checksums verified, entries not parsed) whenever the store
  /// file itself checks out.
  static HeaderInfo peekHeader(const std::string &Path);

  /// One v3 shard's slot in the index, for occupancy inspection
  /// (`store_tool --stats`). Offsets/bytes are the on-disk payload (the
  /// page padding between shards is derivable from the next offset);
  /// ChecksumOk is the shard's payload hash verified against the file.
  struct ShardStats {
    uint64_t Offset = 0;
    uint64_t Bytes = 0;
    uint64_t VerdictEntries = 0;
    uint64_t TriageEntries = 0;
    bool ChecksumOk = false;
  };

  /// Per-shard occupancy of the v3 store at \p Path, in index order. Unlike
  /// peekHeader a damaged shard does not reject the whole inspection: the
  /// bad shard reports ChecksumOk=false and \p Info (when given) comes back
  /// Corrupt, but every shard's index record is still returned — exactly
  /// what "which shard is hurt, how much is lost" needs. A v2 store (no
  /// shards) or an unreadable header yields an empty vector with \p Info
  /// carrying the peekHeader-style status. \p Info's journal fields are
  /// filled as in peekHeader, so a live store's occupancy is complete.
  static std::vector<ShardStats> peekShards(const std::string &Path,
                                            HeaderInfo *Info = nullptr);

  /// Offline union of \p Inputs into \p OutPath: every input must load
  /// under \p ConfigDigest (earlier inputs win per key, matching
  /// merge-on-save's in-memory-wins rule when inputs are ordered
  /// freshest-first). Returns the number of verdict entries written, or
  /// ~0ull with \p Error set when any input is rejected or the write fails.
  static uint64_t mergePaths(const std::vector<std::string> &Inputs,
                             const std::string &OutPath, uint64_t ConfigDigest,
                             std::string *Error = nullptr);
};

/// Read-only view of a store that materializes shards lazily: open() maps
/// the file (mmap on POSIX, a plain read elsewhere) and verifies only the
/// header and shard index; a lookup verifies and parses just the shard its
/// key hashes to, the first time any key lands there. A warm probe against
/// an N-module store therefore costs O(index pages + pages of the shards
/// actually hit), while load() always pays for the whole file.
///
/// The config digest is gated at open() exactly like load(). A shard whose
/// checksum fails materializes as empty (lookups miss; the caller re-proves
/// — wrong answers are impossible, only wasted work). v2 stores are served
/// through the same interface by materializing the flat payload eagerly.
///
/// The journal is NOT replayed: only the store file is mapped, so an entry
/// that so far lives only in `<path>.journal` is a miss here (re-proved,
/// never a wrong verdict). Benchmarks and tests are the only users; a
/// reader that must see every checkpointed verdict uses load().
///
/// Not thread-safe: confine one instance to one thread.
class MappedVerdictStore {
public:
  /// Opens \p Path; returns null (with \p Out describing why, when given)
  /// unless the header, index, and digest all check out.
  static std::unique_ptr<MappedVerdictStore>
  open(const std::string &Path, uint64_t ConfigDigest,
       VerdictStore::LoadResult *Out = nullptr);
  ~MappedVerdictStore();
  MappedVerdictStore(const MappedVerdictStore &) = delete;
  MappedVerdictStore &operator=(const MappedVerdictStore &) = delete;

  /// The stored verdict for \p K, or null. Materializes K's shard on first
  /// touch. The pointer lives as long as this object.
  const ValidationResult *lookup(const VerdictKey &K);
  /// The stored triage outcome for \p K, or null.
  const StoredTriage *lookupTriage(const VerdictKey &K);

  unsigned numShards() const;
  /// How many shards have been verified + parsed so far (the laziness
  /// observable the tests and benches assert on).
  unsigned shardsMaterialized() const;
  uint64_t verdictEntriesInFile() const;

private:
  MappedVerdictStore();
  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace llvmmd

#endif // LLVMMD_DRIVER_VERDICTSTORE_H
