//===- VerdictStore.cpp - Persistent cross-process verdict store --------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
//
// v3 on-disk layout (all integers little-endian, see support/Hashing.h):
//
//   header   u64 magic           "LMDVSTR\x01"
//            u32 format version  VerdictStore::FormatVersion
//            u32 shard count     S (>= 1)
//            u64 config digest   verdictStoreConfigDigest at save time
//            u64 verdict total   sum of the index's verdict counts
//            u64 triage total    sum of the index's triage counts
//            u64 index hash      FNV-1a over the S * 40 index bytes
//   index    S records, 40 bytes each:
//            u64 offset          absolute, PageBytes-aligned
//            u64 bytes           shard payload size (padding excluded)
//            u64 verdict count, u64 triage count
//            u64 payload hash    FNV-1a over the shard payload
//   shards   at their offsets, zero-padded up to the next shard; the file
//            ends exactly at the last shard's final payload byte, so both
//            truncation and appended garbage break the size equation.
//
// Entries are partitioned by hashing the key's Config field (which folds in
// the per-module globals digest), so one module's verdicts form one shard
// and a reader probing for one module touches one shard's pages. Layout is
// fully deterministic: shard count derives from the entry count, offsets
// are forced to the canonical packing, entries sort by key within a shard.
//
// Shard payload:  <verdict entries> <triage entries>  (counts in the index)
//   per verdict entry:
//            u64 fpA, u64 fpB, u64 config
//            u8  flags           bit0 Validated, bit1 Unsupported,
//                                bit2 EqualOnConstruction
//            u64 graph nodes, live nodes, rewrites, sharing merges,
//                iterations, microseconds
//            u32 reason length + raw bytes
//   per triage entry:
//            u64 fpA, u64 fpB, u64 config, u64 options digest
//            u8  classification
//            u8  flags           bit0 Reduced, bit1 ReduceMinimal,
//                                bit2 GapRan, bit3 GapDiverged,
//                                bit4 ClosedByAllRules
//            u32 inputs tried, inputs skipped, reduce validations,
//                missing-rule mask
//            u64 orig/opt insts before, orig/opt insts after
//            u32 witness-input count + per input (u32 length + bytes)
//            6 strings (u32 length + bytes each): witness divergence,
//                reduced orig, reduced opt, gap node a, gap node b,
//                missing rule
//
// Journal (`<store>.journal`), a sequence of records appended by
// VerdictStore::append between full saves:
//
//   record   u64 magic           "LMDVJRN\x01"
//            u64 config digest   records under another digest are skipped
//            u64 verdict count, u64 triage count
//            u64 payload bytes
//            u64 payload hash    FNV-1a over the payload
//            payload             verdict entries, then triage entries, each
//                                sorted by key, encoded as in a shard
//
// Replay walks the records in order and stops at the first one that is
// short, has a bad magic or fails its hash: a crash mid-append costs that
// record only. Every save() deletes the journal after its rename.
//
// v2 (still read, rewritten as v3 on the next save) was one flat payload:
// the same header magic/version, then u32 reserved, u64 config digest,
// u64 entry count, u64 payload hash, the verdict entries, a u64 triage
// count, and the triage entries — all behind a single whole-payload hash.
//
//===----------------------------------------------------------------------===//

#include "driver/VerdictStore.h"

#include "normalize/Rules.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#ifndef _WIN32
#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

using namespace llvmmd;

size_t VerdictKeyHash::operator()(const VerdictKey &K) const {
  uint64_t H = hashCombine(K.FpA, K.FpB);
  H = hashCombine(H, K.Config);
  return static_cast<size_t>(H);
}

uint64_t llvmmd::verdictStoreConfigDigest(const RuleConfig &Rules) {
  uint64_t H = hashCombine(VerdictStore::SemanticsSalt, Rules.Mask);
  H = hashCombine(H, static_cast<uint64_t>(Rules.Strategy));
  H = hashCombine(H, Rules.MaxIterations);
  return H;
}

namespace {

constexpr uint64_t StoreMagic = 0x0152545356444d4cULL; // "LMDVSTR\x01" LE
constexpr uint32_t LegacyVersion2 = 2;
// magic + version + shard count + digest + verdict total + triage total +
// index hash.
constexpr size_t HeaderSizeV3 = 8 + 4 + 4 + 8 + 8 + 8 + 8;
constexpr size_t IndexRecordSize = 8 + 8 + 8 + 8 + 8;
constexpr uint64_t JournalMagic = 0x014e524a56444d4cULL; // "LMDVJRN\x01" LE
// magic + digest + verdict count + triage count + payload bytes + hash.
constexpr size_t JournalHeaderSize = 6 * 8;
// The smallest encoded entry (a verdict with an empty reason; a triage
// entry is larger); bounds the counts a record header may claim.
constexpr uint64_t MinEntryBytes = 3 * 8 + 1 + 6 * 8 + 4;

size_t alignToPage(size_t N) {
  return (N + VerdictStore::PageBytes - 1) & ~(VerdictStore::PageBytes - 1);
}

/// Deterministic shard count for a store holding \p Entries entries total:
/// a power of two targeting ~128 entries per shard, clamped to [1, 64] so
/// small stores stay one page of index + one shard and huge ones do not
/// drown in padding.
uint32_t shardCountFor(size_t Entries) {
  size_t Want = (Entries + 127) / 128;
  uint32_t S = 1;
  while (S < Want && S < 64)
    S <<= 1;
  return S;
}

/// Which shard a key lives in. Keyed on Config only: the per-module globals
/// digest folds into Config, so all of one module's entries land together.
uint32_t shardFor(uint64_t Config, uint32_t ShardCount) {
  return static_cast<uint32_t>(hashCombine(0x9e3779b97f4a7c15ULL, Config) &
                               (ShardCount - 1));
}

bool keyLess(const VerdictKey &KA, const VerdictKey &KB) {
  if (KA.FpA != KB.FpA)
    return KA.FpA < KB.FpA;
  if (KA.FpB != KB.FpB)
    return KA.FpB < KB.FpB;
  return KA.Config < KB.Config;
}

/// The entries of \p M in key order (hash-table order is not stable).
template <typename MapT>
std::vector<const typename MapT::value_type *> sortedEntries(const MapT &M) {
  std::vector<const typename MapT::value_type *> Out;
  Out.reserve(M.size());
  for (const auto &KV : M)
    Out.push_back(&KV);
  std::sort(Out.begin(), Out.end(), [](const auto *A, const auto *B) {
    return keyLess(A->first, B->first);
  });
  return Out;
}

enum ResultFlags : uint8_t {
  RF_Validated = 1u << 0,
  RF_Unsupported = 1u << 1,
  RF_EqualOnConstruction = 1u << 2,
};

void appendEntry(std::string &Out, const VerdictKey &K,
                 const ValidationResult &R) {
  appendU64LE(Out, K.FpA);
  appendU64LE(Out, K.FpB);
  appendU64LE(Out, K.Config);
  uint8_t Flags = (R.Validated ? RF_Validated : 0) |
                  (R.Unsupported ? RF_Unsupported : 0) |
                  (R.EqualOnConstruction ? RF_EqualOnConstruction : 0);
  Out.push_back(static_cast<char>(Flags));
  appendU64LE(Out, R.GraphNodes);
  appendU64LE(Out, R.LiveNodes);
  appendU64LE(Out, R.Rewrites);
  appendU64LE(Out, R.SharingMerges);
  appendU64LE(Out, R.Iterations);
  appendU64LE(Out, R.Microseconds);
  appendU32LE(Out, static_cast<uint32_t>(R.Reason.size()));
  Out.append(R.Reason);
}

enum TriageFlags : uint8_t {
  TF_Reduced = 1u << 0,
  TF_ReduceMinimal = 1u << 1,
  TF_GapRan = 1u << 2,
  TF_GapDiverged = 1u << 3,
  TF_ClosedByAllRules = 1u << 4,
};

void appendTriageEntry(std::string &Out, const VerdictKey &K,
                       const StoredTriage &T) {
  appendU64LE(Out, K.FpA);
  appendU64LE(Out, K.FpB);
  appendU64LE(Out, K.Config);
  appendU64LE(Out, T.OptionsDigest);
  const TriageResult &R = T.Result;
  Out.push_back(static_cast<char>(R.Classification));
  uint8_t Flags = (R.Reduced ? TF_Reduced : 0) |
                  (R.ReduceMinimal ? TF_ReduceMinimal : 0) |
                  (R.GapRan ? TF_GapRan : 0) |
                  (R.GapDiverged ? TF_GapDiverged : 0) |
                  (R.ClosedByAllRules ? TF_ClosedByAllRules : 0);
  Out.push_back(static_cast<char>(Flags));
  appendU32LE(Out, R.InputsTried);
  appendU32LE(Out, R.InputsSkipped);
  appendU32LE(Out, R.ReduceValidations);
  appendU32LE(Out, R.MissingRuleMask);
  appendU64LE(Out, R.OrigInstsBefore);
  appendU64LE(Out, R.OptInstsBefore);
  appendU64LE(Out, R.OrigInstsAfter);
  appendU64LE(Out, R.OptInstsAfter);
  appendU32LE(Out, static_cast<uint32_t>(R.WitnessInputs.size()));
  for (const std::string &In : R.WitnessInputs)
    appendLPString(Out, In);
  appendLPString(Out, R.WitnessDivergence);
  appendLPString(Out, R.ReducedOrig);
  appendLPString(Out, R.ReducedOpt);
  appendLPString(Out, R.GapNodeA);
  appendLPString(Out, R.GapNodeB);
  appendLPString(Out, R.MissingRule);
}

bool readTriageEntry(const char *Data, size_t Size, size_t &Cur, VerdictKey &K,
                     StoredTriage &T) {
  if (!readU64LE(Data, Size, Cur, K.FpA) ||
      !readU64LE(Data, Size, Cur, K.FpB) ||
      !readU64LE(Data, Size, Cur, K.Config) ||
      !readU64LE(Data, Size, Cur, T.OptionsDigest))
    return false;
  if (Size - Cur < 2)
    return false;
  uint8_t Cls = static_cast<unsigned char>(Data[Cur++]);
  // An out-of-range classification byte means the file cannot have been
  // produced by this writer; treat it like any other corruption.
  if (Cls > static_cast<uint8_t>(TriageClassification::Inconclusive))
    return false;
  TriageResult &R = T.Result;
  R.Classification = static_cast<TriageClassification>(Cls);
  uint8_t Flags = static_cast<unsigned char>(Data[Cur++]);
  R.Reduced = Flags & TF_Reduced;
  R.ReduceMinimal = Flags & TF_ReduceMinimal;
  R.GapRan = Flags & TF_GapRan;
  R.GapDiverged = Flags & TF_GapDiverged;
  R.ClosedByAllRules = Flags & TF_ClosedByAllRules;
  uint32_t WitnessCount = 0;
  if (!readU32LE(Data, Size, Cur, R.InputsTried) ||
      !readU32LE(Data, Size, Cur, R.InputsSkipped) ||
      !readU32LE(Data, Size, Cur, R.ReduceValidations) ||
      !readU32LE(Data, Size, Cur, R.MissingRuleMask) ||
      !readU64LE(Data, Size, Cur, R.OrigInstsBefore) ||
      !readU64LE(Data, Size, Cur, R.OptInstsBefore) ||
      !readU64LE(Data, Size, Cur, R.OrigInstsAfter) ||
      !readU64LE(Data, Size, Cur, R.OptInstsAfter) ||
      !readU32LE(Data, Size, Cur, WitnessCount))
    return false;
  // Bound the count by the bytes actually left (each input costs at least
  // its u32 length) so a corrupt count cannot drive a huge allocation.
  if (WitnessCount > (Size - Cur) / 4)
    return false;
  R.WitnessInputs.resize(WitnessCount);
  for (std::string &In : R.WitnessInputs)
    if (!readLPString(Data, Size, Cur, In))
      return false;
  return readLPString(Data, Size, Cur, R.WitnessDivergence) &&
         readLPString(Data, Size, Cur, R.ReducedOrig) &&
         readLPString(Data, Size, Cur, R.ReducedOpt) &&
         readLPString(Data, Size, Cur, R.GapNodeA) &&
         readLPString(Data, Size, Cur, R.GapNodeB) &&
         readLPString(Data, Size, Cur, R.MissingRule);
}

bool readEntry(const char *Data, size_t Size, size_t &Cur, VerdictKey &K,
               ValidationResult &R) {
  if (!readU64LE(Data, Size, Cur, K.FpA) ||
      !readU64LE(Data, Size, Cur, K.FpB) ||
      !readU64LE(Data, Size, Cur, K.Config))
    return false;
  if (Cur >= Size)
    return false;
  uint8_t Flags = static_cast<unsigned char>(Data[Cur++]);
  R.Validated = Flags & RF_Validated;
  R.Unsupported = Flags & RF_Unsupported;
  R.EqualOnConstruction = Flags & RF_EqualOnConstruction;
  uint32_t ReasonLen = 0;
  if (!readU64LE(Data, Size, Cur, R.GraphNodes) ||
      !readU64LE(Data, Size, Cur, R.LiveNodes) ||
      !readU64LE(Data, Size, Cur, R.Rewrites) ||
      !readU64LE(Data, Size, Cur, R.SharingMerges) ||
      !readU64LE(Data, Size, Cur, R.Iterations) ||
      !readU64LE(Data, Size, Cur, R.Microseconds) ||
      !readU32LE(Data, Size, Cur, ReasonLen))
    return false;
  if (Size - Cur < ReasonLen)
    return false;
  R.Reason.assign(Data + Cur, ReasonLen);
  Cur += ReasonLen;
  return true;
}

/// Parses one shard payload: \p VerdictCount entries, then \p TriageCount
/// triage entries, nothing else. The caller has already verified the hash.
bool parseShardPayload(const char *Data, size_t Size, uint64_t VerdictCount,
                       uint64_t TriageCount, VerdictMap &V, TriageMap &T) {
  size_t Cur = 0;
  V.reserve(V.size() + static_cast<size_t>(VerdictCount));
  for (uint64_t I = 0; I < VerdictCount; ++I) {
    VerdictKey K;
    ValidationResult R;
    if (!readEntry(Data, Size, Cur, K, R))
      return false;
    V.emplace(K, std::move(R));
  }
  T.reserve(T.size() + static_cast<size_t>(TriageCount));
  for (uint64_t I = 0; I < TriageCount; ++I) {
    VerdictKey K;
    StoredTriage ST;
    if (!readTriageEntry(Data, Size, Cur, K, ST))
      return false;
    T.emplace(K, std::move(ST));
  }
  return Cur == Size;
}

/// The whole file, mmap'd read-only when the platform allows it and read
/// into memory otherwise. Either way `data()/size()` view the full bytes;
/// with mmap the kernel faults pages in only as they are touched, which is
/// what makes the lazy MappedVerdictStore O(pages touched).
class FileBuffer {
public:
  FileBuffer() = default;
  FileBuffer(const FileBuffer &) = delete;
  FileBuffer &operator=(const FileBuffer &) = delete;
  ~FileBuffer() {
#ifndef _WIN32
    if (Mapped)
      ::munmap(Mapped, Size);
#endif
  }

  /// False only when the file cannot be opened (the NoFile case).
  bool open(const std::string &Path) {
#ifndef _WIN32
    int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
    if (Fd < 0)
      return false;
    off_t End = ::lseek(Fd, 0, SEEK_END);
    if (End > 0) {
      void *M = ::mmap(nullptr, static_cast<size_t>(End), PROT_READ,
                       MAP_PRIVATE, Fd, 0);
      if (M != MAP_FAILED) {
        Mapped = M;
        Data = static_cast<const char *>(M);
        Size = static_cast<size_t>(End);
        ::close(Fd);
        return true;
      }
    }
    ::close(Fd);
#endif
    std::ifstream In(Path, std::ios::binary);
    if (!In)
      return false;
    std::ostringstream SS;
    SS << In.rdbuf();
    Owned = SS.str();
    Data = Owned.data();
    Size = Owned.size();
    return true;
  }

  const char *data() const { return Data; }
  size_t size() const { return Size; }

private:
  const char *Data = nullptr;
  size_t Size = 0;
  std::string Owned;
#ifndef _WIN32
  void *Mapped = nullptr;
#endif
};

struct ShardRecord {
  uint64_t Offset = 0;
  uint64_t Bytes = 0;
  uint64_t VerdictCount = 0;
  uint64_t TriageCount = 0;
  uint64_t PayloadHash = 0;
};

struct StoreIndex {
  uint64_t ConfigDigest = 0;
  uint64_t VerdictTotal = 0;
  uint64_t TriageTotal = 0;
  std::vector<ShardRecord> Shards;
};

/// Reads the magic and version. Returns Loaded when \p Version is one this
/// build can read (the caller dispatches), an error status otherwise.
VerdictStore::LoadStatus readMagicAndVersion(const char *Data, size_t Size,
                                             const std::string &Path,
                                             uint32_t &Version,
                                             std::string &Message) {
  size_t Cur = 0;
  uint64_t Magic = 0;
  if (!readU64LE(Data, Size, Cur, Magic) ||
      !readU32LE(Data, Size, Cur, Version)) {
    Message = "truncated header";
    return VerdictStore::LoadStatus::Corrupt;
  }
  if (Magic != StoreMagic) {
    Message = "'" + Path + "' is not a verdict store";
    return VerdictStore::LoadStatus::BadMagic;
  }
  if (Version != VerdictStore::FormatVersion && Version != LegacyVersion2) {
    Message = "format version " + std::to_string(Version) +
              " (this build reads " +
              std::to_string(VerdictStore::FormatVersion) + " and " +
              std::to_string(LegacyVersion2) + ")";
    return VerdictStore::LoadStatus::BadVersion;
  }
  return VerdictStore::LoadStatus::Loaded;
}

/// Parses and validates a v3 header + shard index (magic/version already
/// read): index hash, canonical offsets, exact file size, count totals.
/// Everything here is O(index); shard payload hashes are NOT checked.
VerdictStore::LoadStatus parseV3Index(const char *Data, size_t Size,
                                      StoreIndex &Idx, std::string &Message) {
  size_t Cur = 8 + 4; // past magic + version
  uint32_t ShardCount = 0;
  uint64_t IndexHash = 0;
  if (!readU32LE(Data, Size, Cur, ShardCount) ||
      !readU64LE(Data, Size, Cur, Idx.ConfigDigest) ||
      !readU64LE(Data, Size, Cur, Idx.VerdictTotal) ||
      !readU64LE(Data, Size, Cur, Idx.TriageTotal) ||
      !readU64LE(Data, Size, Cur, IndexHash)) {
    Message = "truncated header";
    return VerdictStore::LoadStatus::Corrupt;
  }
  if (ShardCount == 0 || ShardCount > (1u << 20) ||
      Size - Cur < static_cast<size_t>(ShardCount) * IndexRecordSize) {
    Message = "truncated shard index";
    return VerdictStore::LoadStatus::Corrupt;
  }
  if (hashBytes(Data + Cur, ShardCount * IndexRecordSize) != IndexHash) {
    Message = "shard index checksum mismatch";
    return VerdictStore::LoadStatus::Corrupt;
  }
  Idx.Shards.resize(ShardCount);
  for (ShardRecord &S : Idx.Shards) {
    readU64LE(Data, Size, Cur, S.Offset);
    readU64LE(Data, Size, Cur, S.Bytes);
    readU64LE(Data, Size, Cur, S.VerdictCount);
    readU64LE(Data, Size, Cur, S.TriageCount);
    readU64LE(Data, Size, Cur, S.PayloadHash);
  }
  // The layout is canonical; anything off-pattern did not come from this
  // writer and is rejected rather than interpreted.
  uint64_t VerdictSum = 0, TriageSum = 0;
  size_t Expect = alignToPage(Cur);
  for (const ShardRecord &S : Idx.Shards) {
    if (S.Offset != Expect || S.Offset > Size || S.Bytes > Size - S.Offset) {
      Message = "shard index out of bounds";
      return VerdictStore::LoadStatus::Corrupt;
    }
    Expect = alignToPage(S.Offset + S.Bytes);
    VerdictSum += S.VerdictCount;
    TriageSum += S.TriageCount;
  }
  const ShardRecord &Last = Idx.Shards.back();
  if (Last.Offset + Last.Bytes != Size) {
    Message = "file size does not match the shard index";
    return VerdictStore::LoadStatus::Corrupt;
  }
  if (VerdictSum != Idx.VerdictTotal || TriageSum != Idx.TriageTotal) {
    Message = "entry totals do not match the shard index";
    return VerdictStore::LoadStatus::Corrupt;
  }
  return VerdictStore::LoadStatus::Loaded;
}

/// Full v2 flat-payload parse (magic/version already read). Kept verbatim
/// from the v2 reader so old stores keep loading byte-for-byte.
VerdictStore::LoadResult loadV2(const char *Data, size_t Size,
                                uint64_t ConfigDigest, VerdictMap &Map,
                                TriageMap *Triage) {
  VerdictStore::LoadResult LR;
  size_t Cur = 8 + 4; // past magic + version
  uint64_t FileDigest = 0, Count = 0, PayloadHash = 0;
  uint32_t Reserved = 0;
  if (!readU32LE(Data, Size, Cur, Reserved) ||
      !readU64LE(Data, Size, Cur, FileDigest) ||
      !readU64LE(Data, Size, Cur, Count) ||
      !readU64LE(Data, Size, Cur, PayloadHash)) {
    LR.Status = VerdictStore::LoadStatus::Corrupt;
    LR.Message = "truncated header";
    return LR;
  }
  if (FileDigest != ConfigDigest) {
    LR.Status = VerdictStore::LoadStatus::ConfigMismatch;
    LR.Message = "store was produced under a different rule configuration";
    return LR;
  }
  LR.EntriesInFile = Count;
  if (hashBytes(Data + Cur, Size - Cur) != PayloadHash) {
    LR.Status = VerdictStore::LoadStatus::Corrupt;
    LR.Message = "payload checksum mismatch";
    return LR;
  }

  // Parse into scratch maps first so a malformed payload (count lies, bad
  // entry bounds) cannot leave Map half-merged.
  VerdictMap Parsed;
  Parsed.reserve(static_cast<size_t>(Count));
  for (uint64_t I = 0; I < Count; ++I) {
    VerdictKey K;
    ValidationResult R;
    if (!readEntry(Data, Size, Cur, K, R)) {
      LR.Status = VerdictStore::LoadStatus::Corrupt;
      LR.Message = "truncated at entry " + std::to_string(I) + " of " +
                   std::to_string(Count);
      return LR;
    }
    Parsed.emplace(K, std::move(R));
  }
  uint64_t TriageCount = 0;
  TriageMap ParsedTriage;
  if (!readU64LE(Data, Size, Cur, TriageCount)) {
    LR.Status = VerdictStore::LoadStatus::Corrupt;
    LR.Message = "truncated triage section header";
    return LR;
  }
  ParsedTriage.reserve(static_cast<size_t>(TriageCount));
  for (uint64_t I = 0; I < TriageCount; ++I) {
    VerdictKey K;
    StoredTriage T;
    if (!readTriageEntry(Data, Size, Cur, K, T)) {
      LR.Status = VerdictStore::LoadStatus::Corrupt;
      LR.Message = "truncated at triage entry " + std::to_string(I) + " of " +
                   std::to_string(TriageCount);
      return LR;
    }
    ParsedTriage.emplace(K, std::move(T));
  }
  if (Cur != Size) {
    LR.Status = VerdictStore::LoadStatus::Corrupt;
    LR.Message = "trailing bytes after last entry";
    return LR;
  }

  for (auto &KV : Parsed)
    if (Map.emplace(KV.first, std::move(KV.second)).second)
      ++LR.EntriesMerged;
  if (Triage)
    for (auto &KV : ParsedTriage)
      Triage->emplace(KV.first, std::move(KV.second));
  LR.Status = VerdictStore::LoadStatus::Loaded;
  return LR;
}

/// Advisory exclusive lock on `Path + ".lock"` held for the save's whole
/// load-merge-rename sequence. Without it two shards could both load the
/// same on-disk state and the second rename would silently drop the first
/// shard's new entries. Best-effort: if the lock file cannot be created the
/// save proceeds unlocked (degrading to last-writer-wins), and on Windows
/// (no flock) it is a no-op.
class SaveLock {
public:
  explicit SaveLock(const std::string &Path) {
#ifndef _WIN32
    Fd = ::open((Path + ".lock").c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (Fd >= 0 && ::flock(Fd, LOCK_EX) != 0) {
      ::close(Fd);
      Fd = -1;
    }
#else
    (void)Path;
#endif
  }
  ~SaveLock() {
#ifndef _WIN32
    if (Fd >= 0) {
      ::flock(Fd, LOCK_UN);
      ::close(Fd);
    }
#endif
  }
  SaveLock(const SaveLock &) = delete;
  SaveLock &operator=(const SaveLock &) = delete;

private:
  int Fd = -1;
};

/// What a walk over journal records found.
struct JournalScan {
  uint64_t ValidBytes = 0; ///< end of the last whole, checksummed record
  uint64_t Records = 0;    ///< records under the wanted digest
  uint64_t VerdictEntries = 0;
  uint64_t TriageEntries = 0;
};

/// Walks the journal records in \p Data until the first short, foreign or
/// checksum-failing one. Records under \p Digest are counted and, when
/// \p V is non-null, replayed into \p V / \p T (a later record wins per
/// key); records under another digest are skipped.
JournalScan scanJournal(const char *Data, size_t Size, uint64_t Digest,
                        VerdictMap *V, TriageMap *T) {
  JournalScan S;
  size_t Cur = 0;
  while (Size - Cur >= JournalHeaderSize) {
    uint64_t Magic = 0, RecDigest = 0, VerdictCount = 0, TriageCount = 0,
             Bytes = 0, Hash = 0;
    readU64LE(Data, Size, Cur, Magic);
    readU64LE(Data, Size, Cur, RecDigest);
    readU64LE(Data, Size, Cur, VerdictCount);
    readU64LE(Data, Size, Cur, TriageCount);
    readU64LE(Data, Size, Cur, Bytes);
    readU64LE(Data, Size, Cur, Hash);
    if (Magic != JournalMagic || Bytes > Size - Cur ||
        VerdictCount > Bytes / MinEntryBytes ||
        TriageCount > Bytes / MinEntryBytes ||
        hashBytes(Data + Cur, Bytes) != Hash)
      break;
    if (RecDigest == Digest) {
      if (V) {
        VerdictMap RecV;
        TriageMap RecT;
        if (!parseShardPayload(Data + Cur, Bytes, VerdictCount, TriageCount,
                               RecV, RecT))
          break;
        for (auto &KV : RecV)
          V->insert_or_assign(KV.first, std::move(KV.second));
        for (auto &KV : RecT)
          T->insert_or_assign(KV.first, std::move(KV.second));
      }
      ++S.Records;
      S.VerdictEntries += VerdictCount;
      S.TriageEntries += TriageCount;
    }
    Cur += Bytes;
    S.ValidBytes = Cur;
  }
  return S;
}

/// One journal record holding \p Map and \p Triage, entries sorted by key.
std::string encodeJournalRecord(uint64_t ConfigDigest, const VerdictMap &Map,
                                const TriageMap *Triage) {
  std::string Payload;
  Payload.reserve(Map.size() * 80);
  for (const auto *KV : sortedEntries(Map))
    appendEntry(Payload, KV->first, KV->second);
  size_t TriageCount = 0;
  if (Triage) {
    for (const auto *KV : sortedEntries(*Triage))
      appendTriageEntry(Payload, KV->first, KV->second);
    TriageCount = Triage->size();
  }
  std::string Out;
  Out.reserve(JournalHeaderSize + Payload.size());
  appendU64LE(Out, JournalMagic);
  appendU64LE(Out, ConfigDigest);
  appendU64LE(Out, static_cast<uint64_t>(Map.size()));
  appendU64LE(Out, static_cast<uint64_t>(TriageCount));
  appendU64LE(Out, static_cast<uint64_t>(Payload.size()));
  appendU64LE(Out, hashBytes(Payload.data(), Payload.size()));
  Out += Payload;
  return Out;
}

/// Reads the whole journal of the store at \p StorePath (plain reads: it
/// may be appended to meanwhile, and a half-read record is just a torn
/// tail to the scan). False when there is no journal.
bool readJournal(const std::string &StorePath, std::string &Out) {
  std::ifstream In(VerdictStore::journalPath(StorePath), std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

/// Fills \p HI's journal fields from `<path>.journal`, counting the records
/// under the store's digest (checksums verified, entries not parsed).
void peekJournal(const std::string &Path, VerdictStore::HeaderInfo &HI) {
  std::string Journal;
  if (!readJournal(Path, Journal))
    return;
  JournalScan S = scanJournal(Journal.data(), Journal.size(), HI.ConfigDigest,
                              nullptr, nullptr);
  HI.JournalRecords = S.Records;
  HI.JournalVerdictEntries = S.VerdictEntries;
  HI.JournalTriageEntries = S.TriageEntries;
  HI.JournalBytes = Journal.size();
  HI.JournalValidBytes = S.ValidBytes;
}

#ifndef _WIN32
/// Identity of one version of a file: a rename-over or a rewrite changes
/// it, an untouched file keeps it.
uint64_t fileStamp(const struct stat &St) {
  uint64_t H = hashCombine(static_cast<uint64_t>(St.st_dev),
                           static_cast<uint64_t>(St.st_ino));
  H = hashCombine(H, static_cast<uint64_t>(St.st_size));
  H = hashCombine(H, static_cast<uint64_t>(St.st_mtim.tv_sec));
  return hashCombine(H, static_cast<uint64_t>(St.st_mtim.tv_nsec));
}
#endif

} // namespace

std::string VerdictStore::serialize(uint64_t ConfigDigest,
                                    const VerdictMap &Map,
                                    const TriageMap *Triage) {
  // Deterministic bytes: shard count derives from the entry count, entries
  // sort by key within their shard, offsets follow the canonical packing —
  // the same maps always serialize identically regardless of hash-table
  // iteration order, so stores diff cleanly and CI cache keys are stable.
  size_t TriageSize = Triage ? Triage->size() : 0;
  uint32_t ShardCount = shardCountFor(Map.size() + TriageSize);

  std::vector<std::vector<const VerdictMap::value_type *>> Entries(ShardCount);
  for (const auto &KV : Map)
    Entries[shardFor(KV.first.Config, ShardCount)].push_back(&KV);
  std::vector<std::vector<const TriageMap::value_type *>> TriageEntries(
      ShardCount);
  if (Triage)
    for (const auto &KV : *Triage)
      TriageEntries[shardFor(KV.first.Config, ShardCount)].push_back(&KV);

  std::vector<std::string> Payloads(ShardCount);
  std::vector<ShardRecord> Index(ShardCount);
  for (uint32_t S = 0; S < ShardCount; ++S) {
    auto ByKey = [&](const auto *A, const auto *B) {
      return keyLess(A->first, B->first);
    };
    std::sort(Entries[S].begin(), Entries[S].end(), ByKey);
    std::sort(TriageEntries[S].begin(), TriageEntries[S].end(), ByKey);
    std::string &P = Payloads[S];
    P.reserve(Entries[S].size() * 80);
    for (const auto *KV : Entries[S])
      appendEntry(P, KV->first, KV->second);
    for (const auto *KV : TriageEntries[S])
      appendTriageEntry(P, KV->first, KV->second);
    Index[S].Bytes = P.size();
    Index[S].VerdictCount = Entries[S].size();
    Index[S].TriageCount = TriageEntries[S].size();
    Index[S].PayloadHash = hashBytes(P.data(), P.size());
  }

  size_t Offset = alignToPage(HeaderSizeV3 + ShardCount * IndexRecordSize);
  for (uint32_t S = 0; S < ShardCount; ++S) {
    Index[S].Offset = Offset;
    Offset = alignToPage(Offset + Index[S].Bytes);
  }

  std::string IndexBytes;
  IndexBytes.reserve(ShardCount * IndexRecordSize);
  for (const ShardRecord &S : Index) {
    appendU64LE(IndexBytes, S.Offset);
    appendU64LE(IndexBytes, S.Bytes);
    appendU64LE(IndexBytes, S.VerdictCount);
    appendU64LE(IndexBytes, S.TriageCount);
    appendU64LE(IndexBytes, S.PayloadHash);
  }

  std::string Out;
  Out.reserve(Index.back().Offset + Index.back().Bytes);
  appendU64LE(Out, StoreMagic);
  appendU32LE(Out, FormatVersion);
  appendU32LE(Out, ShardCount);
  appendU64LE(Out, ConfigDigest);
  appendU64LE(Out, static_cast<uint64_t>(Map.size()));
  appendU64LE(Out, static_cast<uint64_t>(TriageSize));
  appendU64LE(Out, hashBytes(IndexBytes.data(), IndexBytes.size()));
  Out += IndexBytes;
  for (uint32_t S = 0; S < ShardCount; ++S) {
    Out.resize(Index[S].Offset); // zero padding up to the shard boundary
    Out += Payloads[S];
  }
  return Out;
}

VerdictStore::LoadResult VerdictStore::load(const std::string &Path,
                                            uint64_t ConfigDigest,
                                            VerdictMap &Map,
                                            TriageMap *Triage) {
  LoadResult LR;
  // The journal is read before the store file: a save that lands between
  // the two reads has already folded this journal into the store file
  // read second, so the replay below is redundant, never a gap.
  std::string Journal;
  bool HaveJournal = readJournal(Path, Journal);
  FileBuffer Buf;
  if (!Buf.open(Path)) {
    LR.Status = LoadStatus::NoFile;
    LR.Message = "no store at '" + Path + "'";
    return LR;
  }

  uint32_t Version = 0;
  LR.Status = readMagicAndVersion(Buf.data(), Buf.size(), Path, Version,
                                  LR.Message);
  if (LR.Status != LoadStatus::Loaded)
    return LR;
  // append() only ever extends v3 files, so a v2 store has no journal.
  if (Version == LegacyVersion2)
    return loadV2(Buf.data(), Buf.size(), ConfigDigest, Map, Triage);

  StoreIndex Idx;
  LR.Status = parseV3Index(Buf.data(), Buf.size(), Idx, LR.Message);
  if (LR.Status != LoadStatus::Loaded)
    return LR;
  if (Idx.ConfigDigest != ConfigDigest) {
    LR.Status = LoadStatus::ConfigMismatch;
    LR.Message = "store was produced under a different rule configuration";
    return LR;
  }
  LR.EntriesInFile = Idx.VerdictTotal;

  // Parse every shard into scratch maps first so a malformed one cannot
  // leave Map half-merged. The journal's records go in first; the shards
  // then fill in behind them (a key both hold keeps the journal's, newer,
  // value).
  VerdictMap Parsed;
  TriageMap ParsedTriage;
  if (HaveJournal)
    LR.JournalRecords = scanJournal(Journal.data(), Journal.size(),
                                    ConfigDigest, &Parsed, &ParsedTriage)
                            .Records;
  for (size_t S = 0; S < Idx.Shards.size(); ++S) {
    const ShardRecord &R = Idx.Shards[S];
    const char *P = Buf.data() + R.Offset;
    if (hashBytes(P, R.Bytes) != R.PayloadHash) {
      LR.Status = LoadStatus::Corrupt;
      LR.Message = "shard " + std::to_string(S) + " checksum mismatch";
      return LR;
    }
    if (!parseShardPayload(P, R.Bytes, R.VerdictCount, R.TriageCount, Parsed,
                           ParsedTriage)) {
      LR.Status = LoadStatus::Corrupt;
      LR.Message = "malformed shard " + std::to_string(S);
      return LR;
    }
  }

  for (auto &KV : Parsed)
    if (Map.emplace(KV.first, std::move(KV.second)).second)
      ++LR.EntriesMerged;
  if (Triage)
    for (auto &KV : ParsedTriage)
      Triage->emplace(KV.first, std::move(KV.second));
  LR.Status = LoadStatus::Loaded;
  return LR;
}

std::string VerdictStore::shardPath(const std::string &BasePath,
                                    unsigned Index) {
  return BasePath + ".shard" + std::to_string(Index);
}

std::string VerdictStore::journalPath(const std::string &Path) {
  return Path + ".journal";
}

VerdictStore::HeaderInfo VerdictStore::peekHeader(const std::string &Path) {
  HeaderInfo HI;
  FileBuffer Buf;
  if (!Buf.open(Path)) {
    HI.Status = LoadStatus::NoFile;
    HI.Message = "no store at '" + Path + "'";
    return HI;
  }
  HI.FileBytes = Buf.size();

  HI.Status = readMagicAndVersion(Buf.data(), Buf.size(), Path, HI.Version,
                                  HI.Message);
  if (HI.Status != LoadStatus::Loaded)
    return HI;

  if (HI.Version == LegacyVersion2) {
    // v2 has no per-section counts outside the payload, so counting triage
    // entries needs the full walk; reuse the loader (any digest accepted —
    // read it out of the header first).
    size_t Cur = 8 + 4;
    uint32_t Reserved = 0;
    if (!readU32LE(Buf.data(), Buf.size(), Cur, Reserved) ||
        !readU64LE(Buf.data(), Buf.size(), Cur, HI.ConfigDigest)) {
      HI.Status = LoadStatus::Corrupt;
      HI.Message = "truncated header";
      return HI;
    }
    VerdictMap Scratch;
    TriageMap ScratchTriage;
    LoadResult LR = load(Path, HI.ConfigDigest, Scratch, &ScratchTriage);
    if (!LR.loaded()) {
      HI.Status = LR.Status;
      HI.Message = LR.Message;
      return HI;
    }
    HI.VerdictEntries = LR.EntriesInFile;
    HI.TriageEntries = ScratchTriage.size();
    HI.Status = LoadStatus::Loaded;
    peekJournal(Path, HI);
    return HI;
  }

  StoreIndex Idx;
  HI.Status = parseV3Index(Buf.data(), Buf.size(), Idx, HI.Message);
  if (HI.Status != LoadStatus::Loaded)
    return HI;
  // Counts come straight from the verified index — no entry is parsed —
  // but inspection stays honest about damage: every shard checksum is
  // still verified (a pure hash pass, no allocation).
  for (size_t S = 0; S < Idx.Shards.size(); ++S) {
    const ShardRecord &R = Idx.Shards[S];
    if (hashBytes(Buf.data() + R.Offset, R.Bytes) != R.PayloadHash) {
      HI.Status = LoadStatus::Corrupt;
      HI.Message = "shard " + std::to_string(S) + " checksum mismatch";
      return HI;
    }
  }
  HI.ShardCount = static_cast<uint32_t>(Idx.Shards.size());
  HI.ConfigDigest = Idx.ConfigDigest;
  HI.VerdictEntries = Idx.VerdictTotal;
  HI.TriageEntries = Idx.TriageTotal;
  HI.Status = LoadStatus::Loaded;
  peekJournal(Path, HI);
  return HI;
}

std::vector<VerdictStore::ShardStats>
VerdictStore::peekShards(const std::string &Path, HeaderInfo *Info) {
  HeaderInfo HI;
  std::vector<ShardStats> Out;
  FileBuffer Buf;
  if (!Buf.open(Path)) {
    HI.Status = LoadStatus::NoFile;
    HI.Message = "no store at '" + Path + "'";
    if (Info)
      *Info = HI;
    return Out;
  }
  HI.FileBytes = Buf.size();

  HI.Status = readMagicAndVersion(Buf.data(), Buf.size(), Path, HI.Version,
                                  HI.Message);
  if (HI.Status == LoadStatus::Loaded && HI.Version == LegacyVersion2) {
    // v2 is one flat payload: nothing shard-shaped to report. The header
    // info still comes back (via the full-walk peek) so callers can say
    // "v2, N entries, no shards" instead of failing.
    HI = peekHeader(Path);
    if (Info)
      *Info = HI;
    return Out;
  }
  if (HI.Status != LoadStatus::Loaded) {
    if (Info)
      *Info = HI;
    return Out;
  }

  StoreIndex Idx;
  HI.Status = parseV3Index(Buf.data(), Buf.size(), Idx, HI.Message);
  if (HI.Status != LoadStatus::Loaded) {
    if (Info)
      *Info = HI;
    return Out;
  }
  HI.ShardCount = static_cast<uint32_t>(Idx.Shards.size());
  HI.ConfigDigest = Idx.ConfigDigest;
  HI.VerdictEntries = Idx.VerdictTotal;
  HI.TriageEntries = Idx.TriageTotal;
  peekJournal(Path, HI);

  Out.reserve(Idx.Shards.size());
  for (const ShardRecord &R : Idx.Shards) {
    ShardStats S;
    S.Offset = R.Offset;
    S.Bytes = R.Bytes;
    S.VerdictEntries = R.VerdictCount;
    S.TriageEntries = R.TriageCount;
    S.ChecksumOk = hashBytes(Buf.data() + R.Offset, R.Bytes) == R.PayloadHash;
    if (!S.ChecksumOk) {
      HI.Status = LoadStatus::Corrupt;
      if (HI.Message.empty())
        HI.Message = "shard " + std::to_string(&R - Idx.Shards.data()) +
                     " checksum mismatch";
    }
    Out.push_back(S);
  }
  if (Info)
    *Info = HI;
  return Out;
}

uint64_t VerdictStore::mergePaths(const std::vector<std::string> &Inputs,
                                  const std::string &OutPath,
                                  uint64_t ConfigDigest, std::string *Error) {
  VerdictMap Merged;
  TriageMap MergedTriage;
  for (const std::string &Path : Inputs) {
    // load() keeps the existing value per key, so earlier inputs win —
    // document order is precedence order.
    LoadResult LR = load(Path, ConfigDigest, Merged, &MergedTriage);
    if (LR.Status == LoadStatus::NoFile)
      continue; // a worker that never saved is an empty shard, not an error
    if (!LR.loaded()) {
      if (Error)
        *Error = "'" + Path + "': " + LR.Message;
      return ~0ull;
    }
  }
  return save(OutPath, ConfigDigest, std::move(Merged), Error,
              /*MergeExisting=*/true, &MergedTriage);
}

uint64_t VerdictStore::save(const std::string &Path, uint64_t ConfigDigest,
                            VerdictMap Map, std::string *Error,
                            bool MergeExisting, const TriageMap *Triage) {
  SaveLock Lock(Path);
  const TriageMap *TriageToWrite = Triage;
  TriageMap MergedTriage;
  if (MergeExisting) {
    // Union with whatever another shard already saved here, journal
    // included. load() keeps the in-memory entries per key, so the current
    // process wins; a store that fails to load (any reason) contributes
    // nothing.
    if (Triage)
      MergedTriage = *Triage;
    load(Path, ConfigDigest, Map, &MergedTriage);
    // Preserve another shard's triage entries even when this engine ran
    // with triage off (Triage == nullptr): dropping them on save would
    // silently cool future warm runs.
    TriageToWrite = &MergedTriage;
  }

  std::string Bytes = serialize(ConfigDigest, Map, TriageToWrite);

#ifndef _WIN32
  std::string Tmp = Path + ".tmp." + std::to_string(::getpid());
#else
  std::string Tmp = Path + ".tmp";
#endif
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out || !Out.write(Bytes.data(), static_cast<std::streamsize>(
                                             Bytes.size()))) {
      if (Error)
        *Error = "cannot write '" + Tmp + "'";
      std::remove(Tmp.c_str());
      return ~0ull;
    }
  }
  // POSIX rename atomically replaces the target. Windows' std::rename
  // refuses to overwrite, so fall back to remove-then-rename there (not
  // atomic, but the SaveLock already serializes savers on the same path).
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Path.c_str());
    if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
      if (Error)
        *Error = "cannot rename '" + Tmp + "' to '" + Path + "'";
      std::remove(Tmp.c_str());
      return ~0ull;
    }
  }
  // The new file holds everything the journal did (merged in above) or is
  // meant to replace it outright; a crash before this line leaves a
  // journal whose replay is redundant, never wrong.
  std::remove(journalPath(Path).c_str());
  return static_cast<uint64_t>(Map.size());
}

VerdictStore::AppendStatus
VerdictStore::append(const std::string &Path, uint64_t ConfigDigest,
                     const VerdictMap &Map, const TriageMap *Triage,
                     JournalCursor &Cursor, std::string *Error) {
#ifndef _WIN32
  if (Map.empty() && (!Triage || Triage->empty()))
    return AppendStatus::Appended;
  std::string Record = encodeJournalRecord(ConfigDigest, Map, Triage);
  SaveLock Lock(Path);

  // Only a loadable store under this digest makes the journal replayable.
  // Verified once per store version and digest: an unchanged stamp means
  // the file this cursor checked (a save rewrites it, and the stamp moves).
  struct stat StoreSt;
  if (::stat(Path.c_str(), &StoreSt) != 0)
    return AppendStatus::NeedsSave;
  uint64_t StoreStamp = hashCombine(fileStamp(StoreSt), ConfigDigest);
  if (StoreStamp != Cursor.StoreStamp) {
    HeaderInfo HI = peekHeader(Path);
    if (!HI.ok() || HI.Version != FormatVersion ||
        HI.ConfigDigest != ConfigDigest)
      return AppendStatus::NeedsSave;
    // A new store version means a save ran, and every save deletes the
    // journal: whatever journal exists now is verified from its start.
    Cursor = JournalCursor();
    Cursor.StoreStamp = StoreStamp;
    Cursor.StoreBytes = static_cast<uint64_t>(StoreSt.st_size);
  }

  std::string JPath = journalPath(Path);
  int Fd = ::open(JPath.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  struct stat JSt;
  if (Fd < 0 || ::fstat(Fd, &JSt) != 0) {
    if (Fd >= 0)
      ::close(Fd);
    if (Error)
      *Error = "cannot open '" + JPath + "'";
    return AppendStatus::Failed;
  }
  uint64_t JStamp = hashCombine(static_cast<uint64_t>(JSt.st_dev),
                                static_cast<uint64_t>(JSt.st_ino));
  uint64_t End = static_cast<uint64_t>(JSt.st_size);
  // Verify what this cursor has not seen (other appenders' records, or a
  // torn tail a crash left): appending after a bad record would put the
  // new record beyond the replay's reach.
  uint64_t From = JStamp == Cursor.JournalStamp && End >= Cursor.JournalBytes
                      ? Cursor.JournalBytes
                      : 0;
  std::string Unseen(End - From, '\0');
  size_t Got = 0;
  while (Got < Unseen.size()) {
    ssize_t N = ::pread(Fd, &Unseen[Got], Unseen.size() - Got,
                        static_cast<off_t>(From + Got));
    if (N <= 0)
      break;
    Got += static_cast<size_t>(N);
  }
  bool Appendable =
      Got == Unseen.size() &&
      scanJournal(Unseen.data(), Unseen.size(), ConfigDigest, nullptr,
                  nullptr)
              .ValidBytes == Unseen.size();
  // The journal never grows larger than the store file, so replay stays
  // cheap and the full saves that fold it in come geometrically rarely. A
  // bad record needs a full save too: an append after it would never be
  // replayed.
  if (!Appendable || End + Record.size() > Cursor.StoreBytes) {
    ::close(Fd);
    return AppendStatus::NeedsSave;
  }

  size_t Put = 0;
  while (Put < Record.size()) {
    ssize_t N = ::pwrite(Fd, Record.data() + Put, Record.size() - Put,
                         static_cast<off_t>(End + Put));
    if (N <= 0)
      break;
    Put += static_cast<size_t>(N);
  }
  ::close(Fd);
  if (Put != Record.size()) {
    // Left as a torn tail rather than truncated (a concurrent reader may
    // hold those bytes); the next append sees it and asks for a save.
    if (Error)
      *Error = "cannot write '" + JPath + "'";
    return AppendStatus::Failed;
  }
  Cursor.JournalStamp = JStamp;
  Cursor.JournalBytes = End + Record.size();
  return AppendStatus::Appended;
#else
  (void)Path;
  (void)ConfigDigest;
  (void)Map;
  (void)Triage;
  (void)Cursor;
  (void)Error;
  return AppendStatus::NeedsSave;
#endif
}

//===----------------------------------------------------------------------===//
// MappedVerdictStore
//===----------------------------------------------------------------------===//

struct MappedVerdictStore::Impl {
  FileBuffer Buf;
  StoreIndex Idx;
  struct Shard {
    bool Materialized = false;
    VerdictMap V;
    TriageMap T;
  };
  std::vector<Shard> Shards;
  unsigned MaterializedCount = 0;

  Shard &shardFor(uint64_t Config) {
    uint32_t S = Idx.Shards.empty()
                     ? 0
                     : ::shardFor(Config,
                                  static_cast<uint32_t>(Idx.Shards.size()));
    Shard &Sh = Shards[S];
    if (Sh.Materialized)
      return Sh;
    Sh.Materialized = true;
    ++MaterializedCount;
    if (!Idx.Shards.empty()) {
      const ShardRecord &R = Idx.Shards[S];
      const char *P = Buf.data() + R.Offset;
      // A shard that fails its checksum (or structure) materializes as
      // empty: lookups miss and the caller re-proves — wasted work, never
      // a wrong answer.
      if (hashBytes(P, R.Bytes) == R.PayloadHash &&
          !parseShardPayload(P, R.Bytes, R.VerdictCount, R.TriageCount, Sh.V,
                             Sh.T)) {
        Sh.V.clear();
        Sh.T.clear();
      }
    }
    return Sh;
  }
};

MappedVerdictStore::MappedVerdictStore() : I(new Impl) {}
MappedVerdictStore::~MappedVerdictStore() = default;

std::unique_ptr<MappedVerdictStore>
MappedVerdictStore::open(const std::string &Path, uint64_t ConfigDigest,
                         VerdictStore::LoadResult *Out) {
  VerdictStore::LoadResult LR;
  std::unique_ptr<MappedVerdictStore> M(new MappedVerdictStore());
  Impl &I = *M->I;
  auto Fail = [&]() -> std::unique_ptr<MappedVerdictStore> {
    if (Out)
      *Out = LR;
    return nullptr;
  };

  if (!I.Buf.open(Path)) {
    LR.Status = VerdictStore::LoadStatus::NoFile;
    LR.Message = "no store at '" + Path + "'";
    return Fail();
  }
  uint32_t Version = 0;
  LR.Status = readMagicAndVersion(I.Buf.data(), I.Buf.size(), Path, Version,
                                  LR.Message);
  if (LR.Status != VerdictStore::LoadStatus::Loaded)
    return Fail();

  if (Version == LegacyVersion2) {
    // Old flat format: no index to be lazy over — materialize everything
    // up front behind the same interface.
    I.Shards.resize(1);
    LR = loadV2(I.Buf.data(), I.Buf.size(), ConfigDigest, I.Shards[0].V,
                &I.Shards[0].T);
    if (!LR.loaded())
      return Fail();
    I.Idx.VerdictTotal = LR.EntriesInFile;
    I.Shards[0].Materialized = true;
    I.MaterializedCount = 1;
  } else {
    LR.Status = parseV3Index(I.Buf.data(), I.Buf.size(), I.Idx, LR.Message);
    if (LR.Status != VerdictStore::LoadStatus::Loaded)
      return Fail();
    if (I.Idx.ConfigDigest != ConfigDigest) {
      LR.Status = VerdictStore::LoadStatus::ConfigMismatch;
      LR.Message = "store was produced under a different rule configuration";
      return Fail();
    }
    I.Shards.resize(I.Idx.Shards.size());
    LR.EntriesInFile = I.Idx.VerdictTotal;
  }
  if (Out)
    *Out = LR;
  return M;
}

const ValidationResult *MappedVerdictStore::lookup(const VerdictKey &K) {
  Impl::Shard &S = I->shardFor(K.Config);
  auto It = S.V.find(K);
  return It == S.V.end() ? nullptr : &It->second;
}

const StoredTriage *MappedVerdictStore::lookupTriage(const VerdictKey &K) {
  Impl::Shard &S = I->shardFor(K.Config);
  auto It = S.T.find(K);
  return It == S.T.end() ? nullptr : &It->second;
}

unsigned MappedVerdictStore::numShards() const {
  return static_cast<unsigned>(I->Shards.size());
}

unsigned MappedVerdictStore::shardsMaterialized() const {
  return I->MaterializedCount;
}

uint64_t MappedVerdictStore::verdictEntriesInFile() const {
  return I->Idx.VerdictTotal;
}
