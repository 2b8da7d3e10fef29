//===- VerdictStoreTest.cpp - Persistent verdict store tests -----------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
// Robustness of the on-disk verdict store (round-trip, truncation, wrong
// magic/version, config-digest mismatch, concurrent-shard merge) and its
// integration with the ValidationEngine: a second engine loading the store
// produced by a first must replay 100% of verdicts without validating
// anything from scratch, and a mismatched store must be rejected and
// rebuilt, never misused.
//
//===----------------------------------------------------------------------===//

#include "driver/ValidationEngine.h"
#include "driver/VerdictStore.h"
#include "opt/Pass.h"
#include "support/Hashing.h"
#include "workload/Generator.h"
#include "workload/Profiles.h"

#include "TestUtil.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <thread>

using namespace llvmmd;

namespace {

/// A unique path under the test's temp dir, removed on destruction.
class TempFile {
public:
  explicit TempFile(const std::string &Name)
      : Path(::testing::TempDir() + "/" + Name) {
    std::remove(Path.c_str());
  }
  ~TempFile() { std::remove(Path.c_str()); }
  const std::string &path() const { return Path; }

private:
  std::string Path;
};

ValidationResult makeResult(bool Validated, uint64_t Rewrites,
                            const std::string &Reason = "") {
  ValidationResult R;
  R.Validated = Validated;
  R.Rewrites = Rewrites;
  R.GraphNodes = Rewrites * 3 + 1;
  R.LiveNodes = Rewrites + 1;
  R.SharingMerges = Rewrites / 2;
  R.Iterations = 2;
  R.Microseconds = 123;
  R.Reason = Reason;
  R.EqualOnConstruction = Rewrites == 0;
  R.Unsupported = !Validated && !Reason.empty();
  return R;
}

VerdictMap makeMap(unsigned N, uint64_t Salt = 0) {
  VerdictMap M;
  for (unsigned I = 0; I < N; ++I) {
    VerdictKey K{0x1000 + I + Salt, 0x2000 + I + Salt, 0xc0};
    M.emplace(K, makeResult(I % 3 != 0, I, I % 3 ? "" : "alarm " +
                                                            std::to_string(I)));
  }
  return M;
}

void writeBytes(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(Out.write(Bytes.data(), Bytes.size()));
}

BenchmarkProfile smallProfile() {
  BenchmarkProfile P = getProfile("sqlite");
  P.FunctionCount = 10;
  return P;
}

} // namespace

//===----------------------------------------------------------------------===//
// Round trip
//===----------------------------------------------------------------------===//

TEST(VerdictStoreTest, RoundTripPreservesEveryField) {
  TempFile F("roundtrip.vstore");
  VerdictMap Saved = makeMap(17);
  std::string Err;
  EXPECT_EQ(VerdictStore::save(F.path(), 0xd1, Saved, &Err), Saved.size())
      << Err;

  VerdictMap Loaded;
  VerdictStore::LoadResult LR = VerdictStore::load(F.path(), 0xd1, Loaded);
  ASSERT_EQ(LR.Status, VerdictStore::LoadStatus::Loaded) << LR.Message;
  EXPECT_EQ(LR.EntriesInFile, Saved.size());
  EXPECT_EQ(LR.EntriesMerged, Saved.size());
  ASSERT_EQ(Loaded.size(), Saved.size());
  for (const auto &[K, R] : Saved) {
    auto It = Loaded.find(K);
    ASSERT_NE(It, Loaded.end());
    EXPECT_EQ(It->second.Validated, R.Validated);
    EXPECT_EQ(It->second.Unsupported, R.Unsupported);
    EXPECT_EQ(It->second.EqualOnConstruction, R.EqualOnConstruction);
    EXPECT_EQ(It->second.Reason, R.Reason);
    EXPECT_EQ(It->second.Rewrites, R.Rewrites);
    EXPECT_EQ(It->second.GraphNodes, R.GraphNodes);
    EXPECT_EQ(It->second.LiveNodes, R.LiveNodes);
    EXPECT_EQ(It->second.SharingMerges, R.SharingMerges);
    EXPECT_EQ(It->second.Iterations, R.Iterations);
    EXPECT_EQ(It->second.Microseconds, R.Microseconds);
  }
}

TEST(VerdictStoreTest, SerializationIsDeterministic) {
  // Same map, two hash tables with different insertion order: identical
  // bytes, so stores diff cleanly and CI cache keys are stable.
  VerdictMap A = makeMap(32);
  VerdictMap B;
  std::vector<std::pair<VerdictKey, ValidationResult>> Entries(A.begin(),
                                                               A.end());
  for (auto It = Entries.rbegin(); It != Entries.rend(); ++It)
    B.emplace(It->first, It->second);
  EXPECT_EQ(VerdictStore::serialize(0xd1, A), VerdictStore::serialize(0xd1, B));
}

TEST(VerdictStoreTest, MissingFileIsNoFileNotError) {
  VerdictMap Map;
  VerdictStore::LoadResult LR =
      VerdictStore::load(::testing::TempDir() + "/does-not-exist.vstore", 0,
                         Map);
  EXPECT_EQ(LR.Status, VerdictStore::LoadStatus::NoFile);
  EXPECT_TRUE(Map.empty());
}

//===----------------------------------------------------------------------===//
// Rejection: truncation, magic, version, config digest
//===----------------------------------------------------------------------===//

TEST(VerdictStoreTest, TruncatedFileIsRejectedWholesale) {
  TempFile F("truncated.vstore");
  std::string Bytes = VerdictStore::serialize(0xd1, makeMap(9));
  // Every possible truncation point: header, mid-entry, mid-reason. None
  // may load, and none may leave partial entries in the map.
  for (size_t Keep : {size_t(0), size_t(7), size_t(39), Bytes.size() / 2,
                      Bytes.size() - 1}) {
    writeBytes(F.path(), Bytes.substr(0, Keep));
    VerdictMap Map;
    VerdictStore::LoadResult LR = VerdictStore::load(F.path(), 0xd1, Map);
    EXPECT_NE(LR.Status, VerdictStore::LoadStatus::Loaded) << "kept " << Keep;
    EXPECT_TRUE(Map.empty()) << "partial merge after truncation at " << Keep;
  }
}

TEST(VerdictStoreTest, TrailingGarbageIsCorrupt) {
  TempFile F("trailing.vstore");
  writeBytes(F.path(), VerdictStore::serialize(0xd1, makeMap(3)) + "junk");
  VerdictMap Map;
  EXPECT_EQ(VerdictStore::load(F.path(), 0xd1, Map).Status,
            VerdictStore::LoadStatus::Corrupt);
}

TEST(VerdictStoreTest, WrongMagicIsRejected) {
  TempFile F("magic.vstore");
  writeBytes(F.path(), "definitely not a verdict store, but long enough "
                       "to hold a whole header worth of bytes.");
  VerdictMap Map;
  VerdictStore::LoadResult LR = VerdictStore::load(F.path(), 0xd1, Map);
  EXPECT_EQ(LR.Status, VerdictStore::LoadStatus::BadMagic);
  EXPECT_TRUE(Map.empty());
}

TEST(VerdictStoreTest, WrongFormatVersionIsRejected) {
  TempFile F("version.vstore");
  std::string Bytes = VerdictStore::serialize(0xd1, makeMap(3));
  // The u32 format version sits right after the u64 magic.
  Bytes[8] = static_cast<char>(VerdictStore::FormatVersion + 1);
  writeBytes(F.path(), Bytes);
  VerdictMap Map;
  VerdictStore::LoadResult LR = VerdictStore::load(F.path(), 0xd1, Map);
  EXPECT_EQ(LR.Status, VerdictStore::LoadStatus::BadVersion);
  EXPECT_TRUE(Map.empty());
}

TEST(VerdictStoreTest, MismatchedConfigDigestIsRejected) {
  TempFile F("digest.vstore");
  ASSERT_NE(VerdictStore::save(F.path(), 0xd1, makeMap(5)), ~0ull);
  VerdictMap Map;
  VerdictStore::LoadResult LR = VerdictStore::load(F.path(), 0xd2, Map);
  EXPECT_EQ(LR.Status, VerdictStore::LoadStatus::ConfigMismatch);
  EXPECT_TRUE(Map.empty());
}

TEST(VerdictStoreTest, BitFlipInPayloadIsCorrupt) {
  TempFile F("bitflip.vstore");
  std::string Bytes = VerdictStore::serialize(0xd1, makeMap(5));
  Bytes[Bytes.size() - 3] ^= 0x40;
  writeBytes(F.path(), Bytes);
  VerdictMap Map;
  EXPECT_EQ(VerdictStore::load(F.path(), 0xd1, Map).Status,
            VerdictStore::LoadStatus::Corrupt);
}

//===----------------------------------------------------------------------===//
// Merge semantics
//===----------------------------------------------------------------------===//

TEST(VerdictStoreTest, LoadMergesWithoutClobberingMemory) {
  TempFile F("merge-load.vstore");
  VerdictMap OnDisk = makeMap(4);
  ASSERT_NE(VerdictStore::save(F.path(), 0xd1, OnDisk), ~0ull);

  // The in-memory map already holds one of the keys with a different
  // verdict; load must keep the in-memory one and add only the others.
  VerdictMap Map;
  VerdictKey Shared = OnDisk.begin()->first;
  Map.emplace(Shared, makeResult(true, 999));
  VerdictStore::LoadResult LR = VerdictStore::load(F.path(), 0xd1, Map);
  ASSERT_TRUE(LR.loaded());
  EXPECT_EQ(LR.EntriesMerged, OnDisk.size() - 1);
  EXPECT_EQ(Map.size(), OnDisk.size());
  EXPECT_EQ(Map.at(Shared).Rewrites, 999u);
}

TEST(VerdictStoreTest, ConcurrentShardsSavingTheSamePathMerge) {
  TempFile F("merge-save.vstore");
  // Two engines (shards) proved disjoint verdicts and save to one path in
  // some order; the store must end up with the union, and for the one
  // contested key the last writer wins.
  VerdictMap ShardA = makeMap(6, /*Salt=*/0);
  VerdictMap ShardB = makeMap(6, /*Salt=*/100);
  VerdictKey Contested{0xbeef, 0xf00d, 0xc0};
  ShardA.emplace(Contested, makeResult(true, 1));
  ShardB.emplace(Contested, makeResult(true, 2));

  ASSERT_NE(VerdictStore::save(F.path(), 0xd1, ShardA), ~0ull);
  // B's save reports the merged size, not just its own entries.
  EXPECT_EQ(VerdictStore::save(F.path(), 0xd1, ShardB),
            ShardA.size() + ShardB.size() - 1);

  VerdictMap Loaded;
  ASSERT_TRUE(VerdictStore::load(F.path(), 0xd1, Loaded).loaded());
  EXPECT_EQ(Loaded.size(), ShardA.size() + ShardB.size() - 1);
  for (const auto &[K, R] : ShardA)
    if (!(K == Contested)) {
      EXPECT_EQ(Loaded.at(K).Rewrites, R.Rewrites);
    }
  for (const auto &[K, R] : ShardB)
    EXPECT_EQ(Loaded.at(K).Rewrites, R.Rewrites);
  EXPECT_EQ(Loaded.at(Contested).Rewrites, 2u) << "last writer must win";
}

TEST(VerdictStoreTest, SaveOverMismatchedStoreRebuildsIt) {
  TempFile F("rebuild.vstore");
  ASSERT_NE(VerdictStore::save(F.path(), 0xd1, makeMap(8)), ~0ull);
  // A save under a different digest must not merge the incompatible
  // entries — it atomically replaces the store.
  VerdictMap Fresh = makeMap(2, /*Salt=*/500);
  EXPECT_EQ(VerdictStore::save(F.path(), 0xd2, Fresh), Fresh.size());
  VerdictMap Loaded;
  ASSERT_TRUE(VerdictStore::load(F.path(), 0xd2, Loaded).loaded());
  EXPECT_EQ(Loaded.size(), Fresh.size());
}

//===----------------------------------------------------------------------===//
// Engine integration: cross-process warm replay
//===----------------------------------------------------------------------===//

TEST(VerdictStoreTest, SecondEngineReplaysEverythingFromTheStore) {
  TempFile F("engine.vstore");
  ValidationReport First, Second;
  uint64_t ExpectedHits = 0;

  {
    // "Process" 1: cold run, saves on report.
    Context Ctx;
    auto M = generateBenchmark(Ctx, smallProfile());
    EngineConfig C;
    C.CachePath = F.path();
    ValidationEngine Engine(C);
    EXPECT_EQ(Engine.cacheStats().StoreLoaded, 0u);
    First = Engine.run(*M, getPaperPipeline()).Report;
    EXPECT_GT(Engine.cacheStats().Misses, 0u);
    EXPECT_EQ(Engine.cacheStats().WarmHits, 0u);
    EXPECT_EQ(Engine.cacheStats().StoreSaved, Engine.cacheStats().Entries);
    EXPECT_EQ(First.warmHits(), 0u);
    ExpectedHits = Engine.cacheStats().Misses;
  }
  {
    // "Process" 2: fresh Context and engine, same input; every verdict must
    // replay warm — the acceptance criterion's 100% replay rate.
    Context Ctx;
    auto M = generateBenchmark(Ctx, smallProfile());
    EngineConfig C;
    C.CachePath = F.path();
    ValidationEngine Engine(C);
    EXPECT_EQ(Engine.cacheStats().StoreLoaded, ExpectedHits);
    Second = Engine.run(*M, getPaperPipeline()).Report;
    EXPECT_EQ(Engine.cacheStats().Misses, 0u) << "replay rate below 100%";
    // Every hit this process saw came from the store (in-batch duplicates
    // also resolve against the warm cache entry on a fully-warm run).
    EXPECT_GE(Engine.cacheStats().Hits, ExpectedHits);
    EXPECT_EQ(Engine.cacheStats().WarmHits, Engine.cacheStats().Hits);
    EXPECT_EQ(Second.warmHits(), Second.cacheHits());
    EXPECT_EQ(Second.warmHits(),
              Second.transformed() - Second.skippedIdentical());
  }

  // Verdicts and statistics are identical across processes; only the
  // replay-provenance flags (cache_hit/warm_hit) may differ.
  ASSERT_EQ(First.Functions.size(), Second.Functions.size());
  for (size_t I = 0; I < First.Functions.size(); ++I) {
    const FunctionReportEntry &A = First.Functions[I];
    const FunctionReportEntry &B = Second.Functions[I];
    EXPECT_EQ(A.Name, B.Name);
    EXPECT_EQ(A.FingerprintOrig, B.FingerprintOrig) << A.Name;
    EXPECT_EQ(A.FingerprintOpt, B.FingerprintOpt) << A.Name;
    EXPECT_EQ(A.Validated, B.Validated) << A.Name;
    EXPECT_EQ(A.Result.Rewrites, B.Result.Rewrites) << A.Name;
    EXPECT_EQ(A.Result.GraphNodes, B.Result.GraphNodes) << A.Name;
    EXPECT_EQ(A.Result.SharingMerges, B.Result.SharingMerges) << A.Name;
    EXPECT_EQ(A.Result.Reason, B.Result.Reason) << A.Name;
  }
}

TEST(VerdictStoreTest, StoreUnderPreviousSemanticsSaltLoadsCold) {
  // The salt before rewrites counted only effective merges and iterations
  // counted sweeps ("lmd-v1.0"). A store written under it holds verdicts
  // with the old statistics: it must be a cold miss for today's engine, not
  // an error and not a warm replay.
  constexpr uint64_t PreviousSalt = 0x6c6d642d76312e30ULL;
  ASSERT_NE(VerdictStore::SemanticsSalt, PreviousSalt);
  RuleConfig Rules;
  uint64_t PreviousDigest = hashCombine(
      hashCombine(hashCombine(PreviousSalt, Rules.Mask),
                  static_cast<uint64_t>(Rules.Strategy)),
      Rules.MaxIterations);
  ASSERT_NE(PreviousDigest, verdictStoreConfigDigest(Rules));

  TempFile F("previous-salt.vstore");
  unsigned Validated = 0;
  {
    // Real verdicts, re-saved under the previous salt's digest.
    Context Ctx;
    auto M = generateBenchmark(Ctx, smallProfile());
    EngineConfig C;
    C.CachePath = F.path();
    ValidationEngine Engine(C);
    Validated = Engine.run(*M, getPaperPipeline()).Report.validated();
    ASSERT_GT(Engine.cacheStats().StoreSaved, 0u);
    VerdictMap Map;
    ASSERT_TRUE(VerdictStore::load(F.path(), verdictStoreConfigDigest(Rules),
                                   Map)
                    .loaded());
    ASSERT_NE(VerdictStore::save(F.path(), PreviousDigest, Map), ~0ull);
  }
  VerdictMap Direct;
  EXPECT_EQ(VerdictStore::load(F.path(), verdictStoreConfigDigest(Rules),
                               Direct)
                .Status,
            VerdictStore::LoadStatus::ConfigMismatch);
  EXPECT_TRUE(Direct.empty());
  {
    Context Ctx;
    auto M = generateBenchmark(Ctx, smallProfile());
    EngineConfig C;
    C.CachePath = F.path();
    ValidationEngine Engine(C);
    EXPECT_EQ(Engine.cacheStats().StoreLoaded, 0u);
    ValidationReport R = Engine.run(*M, getPaperPipeline()).Report;
    EXPECT_EQ(Engine.cacheStats().WarmHits, 0u);
    EXPECT_GT(Engine.cacheStats().Misses, 0u);
    EXPECT_EQ(R.validated(), Validated);
  }
  // The cold run rewrote the store under the current salt.
  VerdictMap Rebuilt;
  EXPECT_TRUE(VerdictStore::load(F.path(), verdictStoreConfigDigest(Rules),
                                 Rebuilt)
                  .loaded());
  EXPECT_FALSE(Rebuilt.empty());
}

TEST(VerdictStoreTest, EngineRejectsAndRebuildsMismatchedStore) {
  TempFile F("engine-mismatch.vstore");
  {
    Context Ctx;
    auto M = generateBenchmark(Ctx, smallProfile());
    EngineConfig C;
    C.CachePath = F.path();
    ValidationEngine Engine(C);
    Engine.run(*M, getPaperPipeline());
    ASSERT_GT(Engine.cacheStats().StoreSaved, 0u);
  }
  {
    // Different fixpoint budget => different store config digest. The store
    // must be rejected on load (not replayed!) and rebuilt on save.
    Context Ctx;
    auto M = generateBenchmark(Ctx, smallProfile());
    EngineConfig C;
    C.CachePath = F.path();
    C.Rules.MaxIterations = 16;
    ValidationEngine Engine(C);
    EXPECT_EQ(Engine.cacheStats().StoreLoaded, 0u);
    Engine.run(*M, getPaperPipeline());
    EXPECT_GT(Engine.cacheStats().Misses, 0u);
    EXPECT_EQ(Engine.cacheStats().WarmHits, 0u);
  }
  {
    // And the rebuilt store now serves the new configuration warm.
    Context Ctx;
    auto M = generateBenchmark(Ctx, smallProfile());
    EngineConfig C;
    C.CachePath = F.path();
    C.Rules.MaxIterations = 16;
    ValidationEngine Engine(C);
    EXPECT_GT(Engine.cacheStats().StoreLoaded, 0u);
    Engine.run(*M, getPaperPipeline());
    EXPECT_EQ(Engine.cacheStats().Misses, 0u);
  }
}

TEST(VerdictStoreTest, CacheLoadOffStartsColdAndCacheSaveOffWritesNothing) {
  TempFile F("engine-flags.vstore");
  {
    Context Ctx;
    auto M = generateBenchmark(Ctx, smallProfile());
    EngineConfig C;
    C.CachePath = F.path();
    C.CacheSave = false;
    ValidationEngine Engine(C);
    Engine.run(*M, getPaperPipeline());
  }
  EXPECT_FALSE(std::ifstream(F.path()).good()) << "CacheSave=false wrote";
  {
    Context Ctx;
    auto M = generateBenchmark(Ctx, smallProfile());
    EngineConfig C;
    C.CachePath = F.path();
    ValidationEngine Engine(C);
    Engine.run(*M, getPaperPipeline());
  }
  {
    Context Ctx;
    auto M = generateBenchmark(Ctx, smallProfile());
    EngineConfig C;
    C.CachePath = F.path();
    C.CacheLoad = false;
    ValidationEngine Engine(C);
    Engine.run(*M, getPaperPipeline());
    EXPECT_EQ(Engine.cacheStats().StoreLoaded, 0u);
    EXPECT_GT(Engine.cacheStats().Misses, 0u) << "CacheLoad=false replayed";
  }
}

TEST(VerdictStoreTest, SuiteRunsShareTheStoreAcrossProcesses) {
  TempFile F("suite.vstore");
  auto MakeModules = [](Context &Ctx, std::vector<std::unique_ptr<Module>> &Own)
      -> std::vector<const Module *> {
    Own.push_back(generateBenchmark(Ctx, smallProfile()));
    BenchmarkProfile P2 = getProfile("hmmer");
    P2.FunctionCount = 6;
    Own.push_back(generateBenchmark(Ctx, P2));
    return {Own[0].get(), Own[1].get()};
  };
  std::string FirstJson;
  {
    Context Ctx;
    std::vector<std::unique_ptr<Module>> Own;
    EngineConfig C;
    C.CachePath = F.path();
    ValidationEngine Engine(C);
    SuiteRun Run = Engine.runSuite(MakeModules(Ctx, Own), getPaperPipeline());
    FirstJson = suiteToJSON(Run.Report);
    EXPECT_GT(Engine.cacheStats().Misses, 0u);
  }
  {
    Context Ctx;
    std::vector<std::unique_ptr<Module>> Own;
    EngineConfig C;
    C.CachePath = F.path();
    ValidationEngine Engine(C);
    SuiteRun Run = Engine.runSuite(MakeModules(Ctx, Own), getPaperPipeline());
    EXPECT_EQ(Engine.cacheStats().Misses, 0u) << "suite replay below 100%";
    EXPECT_EQ(Run.Report.warmHits(), Run.Report.cacheHits());
    EXPECT_EQ(Run.Report.warmHits(),
              Run.Report.transformed() - Run.Report.skippedIdentical());
  }
}

//===----------------------------------------------------------------------===//
// Fleet-shard API: threaded union, header inspection, offline merge
//===----------------------------------------------------------------------===//

TEST(VerdictStoreTest, ManyThreadsSavingOnePathUnionLosslessly) {
  TempFile F("threads.vstore");
  // The fleet's failure mode: K workers checkpointing to one path at once.
  // Each thread owns a disjoint key range plus a contested shared range;
  // the advisory lock + merge-on-save must union every disjoint entry
  // (losing one means a future run re-proves a verdict it already had) and
  // resolve each contested key to SOME writer's value, never a torn one.
  constexpr unsigned K = 8;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < K; ++T)
    Threads.emplace_back([&, T] {
      VerdictMap Mine = makeMap(12, /*Salt=*/T * 1000);
      for (unsigned I = 0; I < 4; ++I) {
        VerdictKey Shared{0x777700 + I, 0x888800 + I, 0xc0};
        Mine.emplace(Shared, makeResult(true, /*Rewrites=*/T + 1));
      }
      EXPECT_NE(VerdictStore::save(F.path(), 0xd1, Mine), ~0ull);
    });
  for (std::thread &T : Threads)
    T.join();

  VerdictMap Loaded;
  ASSERT_TRUE(VerdictStore::load(F.path(), 0xd1, Loaded).loaded());
  EXPECT_EQ(Loaded.size(), K * 12 + 4);
  for (unsigned T = 0; T < K; ++T)
    for (const auto &[Key, R] : makeMap(12, T * 1000))
      EXPECT_EQ(Loaded.at(Key).Rewrites, R.Rewrites);
  for (unsigned I = 0; I < 4; ++I) {
    VerdictKey Shared{0x777700 + I, 0x888800 + I, 0xc0};
    uint64_t Got = Loaded.at(Shared).Rewrites;
    EXPECT_GE(Got, 1u);
    EXPECT_LE(Got, K);
  }
}

TEST(VerdictStoreTest, PeekHeaderReportsWithoutReplaying) {
  TempFile F("peek.vstore");
  VerdictMap M = makeMap(9);
  ASSERT_NE(VerdictStore::save(F.path(), 0xabcd, M), ~0ull);

  VerdictStore::HeaderInfo HI = VerdictStore::peekHeader(F.path());
  ASSERT_TRUE(HI.ok()) << HI.Message;
  EXPECT_EQ(HI.Version, VerdictStore::FormatVersion);
  EXPECT_EQ(HI.ConfigDigest, 0xabcdu);
  EXPECT_EQ(HI.VerdictEntries, M.size());
  EXPECT_EQ(HI.TriageEntries, 0u);
  EXPECT_GT(HI.FileBytes, 0u);

  // Inspection is still honest about damage: a flipped payload byte is
  // Corrupt (the checksum is verified), and a missing file is NoFile.
  std::ifstream In(F.path(), std::ios::binary);
  std::string Bytes((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
  In.close();
  Bytes[Bytes.size() - 3] ^= 0x40;
  writeBytes(F.path(), Bytes);
  EXPECT_EQ(VerdictStore::peekHeader(F.path()).Status,
            VerdictStore::LoadStatus::Corrupt);

  EXPECT_EQ(VerdictStore::peekHeader(F.path() + ".nope").Status,
            VerdictStore::LoadStatus::NoFile);
}

//===----------------------------------------------------------------------===//
// v3 sharded layout: index round-trip, lazy mapped lookups, v2 fallback
//===----------------------------------------------------------------------===//

namespace {

/// A map large enough to force multiple shards, spread over \p Modules
/// distinct Config values (one per "module").
VerdictMap makeMultiModuleMap(unsigned Modules, unsigned PerModule) {
  VerdictMap M;
  for (unsigned Mod = 0; Mod < Modules; ++Mod)
    for (unsigned I = 0; I < PerModule; ++I) {
      VerdictKey K{0x1000 + I, 0x2000 + I, 0xc000 + Mod * 0x9e37};
      M.emplace(K, makeResult(I % 2 == 0, I, I % 2 ? "" : "r"));
    }
  return M;
}

/// Serializes a map in the retired v2 flat layout, byte-for-byte what the
/// old writer produced, so the fallback reader has a real artifact to chew
/// on without keeping binary fixtures in the tree.
std::string serializeV2(uint64_t ConfigDigest, const VerdictMap &Map) {
  auto Append64 = [](std::string &S, uint64_t V) {
    for (int I = 0; I < 8; ++I)
      S.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
  };
  auto Append32 = [](std::string &S, uint32_t V) {
    for (int I = 0; I < 4; ++I)
      S.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
  };
  std::vector<const VerdictMap::value_type *> Entries;
  for (const auto &KV : Map)
    Entries.push_back(&KV);
  std::sort(Entries.begin(), Entries.end(), [](const auto *A, const auto *B) {
    if (A->first.FpA != B->first.FpA)
      return A->first.FpA < B->first.FpA;
    if (A->first.FpB != B->first.FpB)
      return A->first.FpB < B->first.FpB;
    return A->first.Config < B->first.Config;
  });
  std::string Payload;
  for (const auto *KV : Entries) {
    const VerdictKey &K = KV->first;
    const ValidationResult &R = KV->second;
    Append64(Payload, K.FpA);
    Append64(Payload, K.FpB);
    Append64(Payload, K.Config);
    uint8_t Flags = (R.Validated ? 1 : 0) | (R.Unsupported ? 2 : 0) |
                    (R.EqualOnConstruction ? 4 : 0);
    Payload.push_back(static_cast<char>(Flags));
    Append64(Payload, R.GraphNodes);
    Append64(Payload, R.LiveNodes);
    Append64(Payload, R.Rewrites);
    Append64(Payload, R.SharingMerges);
    Append64(Payload, R.Iterations);
    Append64(Payload, R.Microseconds);
    Append32(Payload, static_cast<uint32_t>(R.Reason.size()));
    Payload += R.Reason;
  }
  Append64(Payload, 0); // empty triage section
  std::string Out;
  Append64(Out, 0x0152545356444d4cULL); // store magic
  Append32(Out, 2);                     // the retired version
  Append32(Out, 0);                     // v2 reserved field
  Append64(Out, ConfigDigest);
  Append64(Out, static_cast<uint64_t>(Entries.size()));
  Append64(Out, hashBytes(Payload.data(), Payload.size()));
  Out += Payload;
  return Out;
}

} // namespace

TEST(VerdictStoreTest, ShardedLayoutRoundTripsAndReportsShards) {
  TempFile F("sharded.vstore");
  // 40 modules x 20 entries = 800 entries: multiple shards by construction.
  VerdictMap Big = makeMultiModuleMap(40, 20);
  ASSERT_NE(VerdictStore::save(F.path(), 0xd1, Big), ~0ull);

  VerdictStore::HeaderInfo HI = VerdictStore::peekHeader(F.path());
  ASSERT_TRUE(HI.ok()) << HI.Message;
  EXPECT_EQ(HI.Version, 3u);
  EXPECT_GT(HI.ShardCount, 1u) << "800 entries must split into shards";
  EXPECT_EQ(HI.VerdictEntries, Big.size());

  // Shard payloads start on page boundaries: the file is strictly larger
  // than the raw entry bytes but every entry still round-trips.
  VerdictMap Loaded;
  VerdictStore::LoadResult LR = VerdictStore::load(F.path(), 0xd1, Loaded);
  ASSERT_TRUE(LR.loaded()) << LR.Message;
  ASSERT_EQ(Loaded.size(), Big.size());
  for (const auto &[K, R] : Big) {
    auto It = Loaded.find(K);
    ASSERT_NE(It, Loaded.end());
    EXPECT_EQ(It->second.Rewrites, R.Rewrites);
    EXPECT_EQ(It->second.Reason, R.Reason);
  }
}

TEST(VerdictStoreTest, MappedLookupTouchesOnlyTheKeysShard) {
  TempFile F("mapped.vstore");
  VerdictMap Big = makeMultiModuleMap(40, 20);
  ASSERT_NE(VerdictStore::save(F.path(), 0xd1, Big), ~0ull);

  VerdictStore::LoadResult LR;
  auto Mapped = MappedVerdictStore::open(F.path(), 0xd1, &LR);
  ASSERT_NE(Mapped, nullptr) << LR.Message;
  ASSERT_GT(Mapped->numShards(), 1u);
  EXPECT_EQ(Mapped->shardsMaterialized(), 0u) << "open must not parse shards";
  EXPECT_EQ(Mapped->verdictEntriesInFile(), Big.size());

  // Probing one module's keys materializes exactly one shard...
  VerdictKey First = Big.begin()->first;
  const ValidationResult *R = Mapped->lookup(First);
  ASSERT_NE(R, nullptr);
  EXPECT_EQ(R->Rewrites, Big.at(First).Rewrites);
  EXPECT_EQ(Mapped->shardsMaterialized(), 1u);
  VerdictKey SameModule = First;
  SameModule.FpA ^= 0xdead; // same Config => same shard, missing key
  EXPECT_EQ(Mapped->lookup(SameModule), nullptr);
  EXPECT_EQ(Mapped->shardsMaterialized(), 1u);

  // ...and a full sweep finds everything without a single wrong answer.
  for (const auto &[K, Want] : Big) {
    const ValidationResult *Got = Mapped->lookup(K);
    ASSERT_NE(Got, nullptr);
    EXPECT_EQ(Got->Rewrites, Want.Rewrites);
  }
  EXPECT_LE(Mapped->shardsMaterialized(), Mapped->numShards());

  // Digest gating matches load(): a mismatched open fails cleanly.
  EXPECT_EQ(MappedVerdictStore::open(F.path(), 0xd2, &LR), nullptr);
  EXPECT_EQ(LR.Status, VerdictStore::LoadStatus::ConfigMismatch);
}

TEST(VerdictStoreTest, MappedStoreNeverServesFromACorruptShard) {
  TempFile F("mapped-corrupt.vstore");
  VerdictMap Big = makeMultiModuleMap(40, 20);
  std::string Bytes = VerdictStore::serialize(0xd1, Big);
  // Flip one byte in the last shard's payload (the file ends inside it).
  Bytes[Bytes.size() - 3] ^= 0x40;
  writeBytes(F.path(), Bytes);

  // load() rejects the whole file...
  VerdictMap Map;
  EXPECT_EQ(VerdictStore::load(F.path(), 0xd1, Map).Status,
            VerdictStore::LoadStatus::Corrupt);

  // ...while the mapped view still opens (the index is intact) and serves
  // healthy shards, but every lookup landing in the damaged shard misses
  // rather than returning a possibly-torn verdict.
  VerdictStore::LoadResult LR;
  auto Mapped = MappedVerdictStore::open(F.path(), 0xd1, &LR);
  ASSERT_NE(Mapped, nullptr) << LR.Message;
  unsigned Hits = 0, Misses = 0;
  for (const auto &[K, Want] : Big) {
    const ValidationResult *Got = Mapped->lookup(K);
    if (!Got) {
      ++Misses;
      continue;
    }
    ++Hits;
    EXPECT_EQ(Got->Rewrites, Want.Rewrites);
  }
  EXPECT_GT(Hits, 0u) << "healthy shards must still serve";
  EXPECT_GT(Misses, 0u) << "the corrupt shard must refuse to serve";
}

TEST(VerdictStoreTest, LegacyV2StoresStillLoadAndUpgradeOnSave) {
  TempFile F("legacy.vstore");
  VerdictMap Old = makeMap(11);
  writeBytes(F.path(), serializeV2(0xd1, Old));

  // The v2 reader path: full round-trip, header inspection, mapped view.
  VerdictMap Loaded;
  VerdictStore::LoadResult LR = VerdictStore::load(F.path(), 0xd1, Loaded);
  ASSERT_TRUE(LR.loaded()) << LR.Message;
  ASSERT_EQ(Loaded.size(), Old.size());
  for (const auto &[K, R] : Old)
    EXPECT_EQ(Loaded.at(K).Rewrites, R.Rewrites);

  VerdictStore::HeaderInfo HI = VerdictStore::peekHeader(F.path());
  ASSERT_TRUE(HI.ok()) << HI.Message;
  EXPECT_EQ(HI.Version, 2u);
  EXPECT_EQ(HI.ShardCount, 0u);
  EXPECT_EQ(HI.VerdictEntries, Old.size());

  auto Mapped = MappedVerdictStore::open(F.path(), 0xd1, &LR);
  ASSERT_NE(Mapped, nullptr) << LR.Message;
  EXPECT_EQ(Mapped->lookup(Old.begin()->first)->Rewrites,
            Old.at(Old.begin()->first).Rewrites);

  // A config-mismatched v2 store is still rejected, not replayed.
  VerdictMap Denied;
  EXPECT_EQ(VerdictStore::load(F.path(), 0xd2, Denied).Status,
            VerdictStore::LoadStatus::ConfigMismatch);

  // Saving over it merges the old entries and rewrites the file as v3.
  VerdictMap Fresh = makeMap(3, /*Salt=*/7000);
  EXPECT_EQ(VerdictStore::save(F.path(), 0xd1, Fresh),
            Old.size() + Fresh.size());
  HI = VerdictStore::peekHeader(F.path());
  ASSERT_TRUE(HI.ok()) << HI.Message;
  EXPECT_EQ(HI.Version, VerdictStore::FormatVersion);
  EXPECT_GE(HI.ShardCount, 1u);
  EXPECT_EQ(HI.VerdictEntries, Old.size() + Fresh.size());
}

TEST(VerdictStoreTest, ShardPathNamingIsStable) {
  // Offline tools (store_tool) and the fleet must agree on this forever.
  EXPECT_EQ(VerdictStore::shardPath("/x/base.vstore", 0),
            "/x/base.vstore.shard0");
  EXPECT_EQ(VerdictStore::shardPath("rel", 12), "rel.shard12");
}

TEST(VerdictStoreTest, MergePathsUnionsAndRejectsMismatchedInputs) {
  TempFile A("merge-a.vstore"), B("merge-b.vstore"), C("merge-c.vstore");
  TempFile Out("merge-out.vstore"), Out2("merge-out2.vstore");
  VerdictMap MA = makeMap(5, 0), MB = makeMap(5, 9000);
  VerdictKey Contested{0xbeef, 0xf00d, 0xc0};
  MA.emplace(Contested, makeResult(true, 11));
  MB.emplace(Contested, makeResult(true, 22));
  ASSERT_NE(VerdictStore::save(A.path(), 0xd1, MA), ~0ull);
  ASSERT_NE(VerdictStore::save(B.path(), 0xd1, MB), ~0ull);
  ASSERT_NE(VerdictStore::save(C.path(), 0xd2, makeMap(3, 50)), ~0ull);

  // Union with earlier-inputs-win on the contested key; a missing input is
  // an empty shard, not an error (a cold fleet worker never wrote one).
  std::string Err;
  EXPECT_EQ(VerdictStore::mergePaths(
                {A.path(), B.path(), A.path() + ".gone"}, Out.path(), 0xd1,
                &Err),
            MA.size() + MB.size() - 1)
      << Err;
  VerdictMap Loaded;
  ASSERT_TRUE(VerdictStore::load(Out.path(), 0xd1, Loaded).loaded());
  EXPECT_EQ(Loaded.at(Contested).Rewrites, 11u) << "earlier input must win";

  // A digest-mismatched input poisons the whole merge: verdicts proven
  // under different rules must never union.
  EXPECT_EQ(VerdictStore::mergePaths({A.path(), C.path()}, Out2.path(), 0xd1,
                                     &Err),
            ~0ull);
  EXPECT_FALSE(Err.empty());
  EXPECT_EQ(VerdictStore::peekHeader(Out2.path()).Status,
            VerdictStore::LoadStatus::NoFile)
      << "a failed merge must not write a partial store";
}

//===----------------------------------------------------------------------===//
// Journal (append-only checkpoints)
//===----------------------------------------------------------------------===//

namespace {

/// A store path plus its journal and lock file, all removed on destruction.
class JournaledStore {
public:
  explicit JournaledStore(const std::string &Name)
      : Path(::testing::TempDir() + "/" + Name),
        Journal(VerdictStore::journalPath(Path)) {
    cleanup();
  }
  ~JournaledStore() { cleanup(); }
  void cleanup() {
    std::remove(Path.c_str());
    std::remove(Journal.c_str());
    std::remove((Path + ".lock").c_str());
  }
  const std::string Path, Journal;
};

std::string readBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

bool fileExists(const std::string &Path) {
  return static_cast<bool>(std::ifstream(Path));
}

TriageMap makeTriage(unsigned N, uint64_t Salt) {
  TriageMap T;
  for (unsigned I = 0; I < N; ++I) {
    StoredTriage ST;
    ST.OptionsDigest = 0x0d + Salt;
    ST.Result.Classification = TriageClassification::SuspectedFalseAlarm;
    ST.Result.InputsTried = I + 1;
    ST.Result.WitnessInputs = {"i32 " + std::to_string(I)};
    ST.Result.MissingRule = "rule-" + std::to_string(I + Salt);
    T.emplace(VerdictKey{0x5000 + I + Salt, 0x6000 + I + Salt, 0xc1},
              std::move(ST));
  }
  return T;
}

} // namespace

TEST(VerdictStoreTest, JournalAppendsRoundTrip) {
  JournaledStore S("journal-roundtrip.vstore");
  VerdictStore::JournalCursor Cursor;
  VerdictMap A = makeMap(4, 100);
  TriageMap TA = makeTriage(2, 100);
  // Nothing to append after: the first checkpoint must be a full save.
  EXPECT_EQ(VerdictStore::append(S.Path, 0xd1, A, &TA, Cursor),
            VerdictStore::AppendStatus::NeedsSave);
  EXPECT_FALSE(fileExists(S.Journal));

  VerdictMap Base = makeMap(6);
  ASSERT_NE(VerdictStore::save(S.Path, 0xd1, Base), ~0ull);
  std::string Err;
  ASSERT_EQ(VerdictStore::append(S.Path, 0xd1, A, &TA, Cursor, &Err),
            VerdictStore::AppendStatus::Appended)
      << Err;
  VerdictMap B = makeMap(3, 200);
  ASSERT_EQ(VerdictStore::append(S.Path, 0xd1, B, nullptr, Cursor, &Err),
            VerdictStore::AppendStatus::Appended)
      << Err;
  std::string StoreBytes = readBytes(S.Path);

  VerdictMap Loaded;
  TriageMap LoadedTriage;
  VerdictStore::LoadResult LR =
      VerdictStore::load(S.Path, 0xd1, Loaded, &LoadedTriage);
  ASSERT_TRUE(LR.loaded()) << LR.Message;
  EXPECT_EQ(LR.EntriesInFile, Base.size());
  EXPECT_EQ(LR.JournalRecords, 2u);
  EXPECT_EQ(LR.EntriesMerged, Base.size() + A.size() + B.size());
  for (const VerdictMap *M : {&Base, &A, &B})
    for (const auto &[K, R] : *M) {
      ASSERT_EQ(Loaded.count(K), 1u);
      EXPECT_EQ(Loaded.at(K).Reason, R.Reason);
      EXPECT_EQ(Loaded.at(K).Rewrites, R.Rewrites);
    }
  ASSERT_EQ(LoadedTriage.size(), TA.size());
  for (const auto &[K, T] : TA) {
    EXPECT_EQ(LoadedTriage.at(K).OptionsDigest, T.OptionsDigest);
    EXPECT_EQ(LoadedTriage.at(K).Result.MissingRule, T.Result.MissingRule);
    EXPECT_EQ(LoadedTriage.at(K).Result.WitnessInputs,
              T.Result.WitnessInputs);
  }

  // Occupancy inspection counts the journal next to the store file.
  VerdictStore::HeaderInfo HI = VerdictStore::peekHeader(S.Path);
  ASSERT_TRUE(HI.ok()) << HI.Message;
  EXPECT_EQ(HI.VerdictEntries, Base.size());
  EXPECT_EQ(HI.JournalRecords, 2u);
  EXPECT_EQ(HI.JournalVerdictEntries, A.size() + B.size());
  EXPECT_EQ(HI.JournalTriageEntries, TA.size());
  EXPECT_GT(HI.JournalBytes, 0u);
  EXPECT_EQ(HI.JournalValidBytes, HI.JournalBytes);
  VerdictStore::HeaderInfo SI;
  EXPECT_EQ(VerdictStore::peekShards(S.Path, &SI).size(), SI.ShardCount);
  EXPECT_EQ(SI.JournalRecords, 2u);
  EXPECT_EQ(SI.JournalVerdictEntries, A.size() + B.size());

  // The mapped reader serves the store file only: a journal entry is a
  // miss there, never a wrong verdict.
  auto M = MappedVerdictStore::open(S.Path, 0xd1);
  ASSERT_NE(M, nullptr);
  EXPECT_NE(M->lookup(Base.begin()->first), nullptr);
  EXPECT_EQ(M->lookup(A.begin()->first), nullptr);

  // Appending never rewrote the store file.
  EXPECT_EQ(readBytes(S.Path), StoreBytes);
}

TEST(VerdictStoreTest, JournalTornTailLoadsTheRecordsBeforeIt) {
  JournaledStore S("journal-torn.vstore");
  ASSERT_NE(VerdictStore::save(S.Path, 0xd1, makeMap(8)), ~0ull);
  VerdictStore::JournalCursor Cursor;
  VerdictMap A = makeMap(3, 100), B = makeMap(3, 200);
  ASSERT_EQ(VerdictStore::append(S.Path, 0xd1, A, nullptr, Cursor),
            VerdictStore::AppendStatus::Appended);
  uint64_t FirstRecordEnd = Cursor.JournalBytes;
  ASSERT_EQ(VerdictStore::append(S.Path, 0xd1, B, nullptr, Cursor),
            VerdictStore::AppendStatus::Appended);

  // A crash mid-append: the second record loses its last bytes.
  std::string J = readBytes(S.Journal);
  writeBytes(S.Journal, J.substr(0, J.size() - 7));
  VerdictMap Loaded;
  VerdictStore::LoadResult LR = VerdictStore::load(S.Path, 0xd1, Loaded);
  ASSERT_TRUE(LR.loaded()) << "a torn journal tail must not reject the store";
  EXPECT_EQ(LR.JournalRecords, 1u);
  EXPECT_EQ(Loaded.size(), 8u + A.size());
  for (const auto &KV : B)
    EXPECT_EQ(Loaded.count(KV.first), 0u);
  VerdictStore::HeaderInfo HI = VerdictStore::peekHeader(S.Path);
  ASSERT_TRUE(HI.ok());
  EXPECT_EQ(HI.JournalValidBytes, FirstRecordEnd);
  EXPECT_EQ(HI.JournalBytes, J.size() - 7);

  // A bit flip in the first record's payload ends the replay there.
  std::string Flipped = J;
  Flipped[FirstRecordEnd - 3] ^= 0x20;
  writeBytes(S.Journal, Flipped);
  Loaded.clear();
  EXPECT_EQ(VerdictStore::load(S.Path, 0xd1, Loaded).JournalRecords, 0u);
  EXPECT_EQ(Loaded.size(), 8u);

  // Appending after a bad record would never be replayed: the appender
  // asks for a full save instead, which keeps what the good records held.
  writeBytes(S.Journal, J.substr(0, J.size() - 7));
  VerdictStore::JournalCursor Fresh;
  EXPECT_EQ(VerdictStore::append(S.Path, 0xd1, makeMap(1, 300), nullptr,
                                 Fresh),
            VerdictStore::AppendStatus::NeedsSave);
  EXPECT_EQ(readBytes(S.Journal), J.substr(0, J.size() - 7));
  ASSERT_NE(VerdictStore::save(S.Path, 0xd1, makeMap(1, 300)), ~0ull);
  EXPECT_FALSE(fileExists(S.Journal));
  Loaded.clear();
  LR = VerdictStore::load(S.Path, 0xd1, Loaded);
  ASSERT_TRUE(LR.loaded());
  EXPECT_EQ(LR.JournalRecords, 0u);
  EXPECT_EQ(Loaded.size(), 8u + A.size() + 1u);

  // An appender whose cursor predates that rewrite re-verifies the new
  // store file and appends normally.
  EXPECT_EQ(VerdictStore::append(S.Path, 0xd1, makeMap(1, 400), nullptr,
                                 Cursor),
            VerdictStore::AppendStatus::Appended);
  Loaded.clear();
  ASSERT_TRUE(VerdictStore::load(S.Path, 0xd1, Loaded).loaded());
  EXPECT_EQ(Loaded.size(), 8u + A.size() + 2u);
}

TEST(VerdictStoreTest, JournalRecordUnderAnotherDigestIsIgnored) {
  JournaledStore S("journal-digest.vstore"), Other("journal-other.vstore");
  ASSERT_NE(VerdictStore::save(S.Path, 0xd1, makeMap(8)), ~0ull);
  ASSERT_NE(VerdictStore::save(Other.Path, 0xd2, makeMap(8, 50)), ~0ull);
  VerdictStore::JournalCursor OtherCursor;
  VerdictMap Foreign = makeMap(3, 400);
  ASSERT_EQ(VerdictStore::append(Other.Path, 0xd2, Foreign, nullptr,
                                 OtherCursor),
            VerdictStore::AppendStatus::Appended);
  // A record proven under other rules lands in this store's journal (as a
  // stale journal would after a rule change) ahead of a valid one.
  writeBytes(S.Journal, readBytes(Other.Journal));
  VerdictStore::JournalCursor Cursor;
  VerdictMap Mine = makeMap(2, 500);
  ASSERT_EQ(VerdictStore::append(S.Path, 0xd1, Mine, nullptr, Cursor),
            VerdictStore::AppendStatus::Appended);

  VerdictMap Loaded;
  VerdictStore::LoadResult LR = VerdictStore::load(S.Path, 0xd1, Loaded);
  ASSERT_TRUE(LR.loaded());
  EXPECT_EQ(LR.JournalRecords, 1u);
  for (const auto &KV : Foreign)
    EXPECT_EQ(Loaded.count(KV.first), 0u) << "foreign-digest entry replayed";
  for (const auto &KV : Mine)
    EXPECT_EQ(Loaded.count(KV.first), 1u);
  EXPECT_EQ(VerdictStore::peekHeader(S.Path).JournalRecords, 1u);

  // Appending next to a store under another digest is refused too.
  EXPECT_EQ(VerdictStore::append(S.Path, 0xd3, Mine, nullptr, Cursor),
            VerdictStore::AppendStatus::NeedsSave);
}

TEST(VerdictStoreTest, AppendsThenCompactionEqualOneSaveOfTheUnion) {
  JournaledStore S("journal-compact.vstore"), Ref("journal-ref.vstore");
  VerdictMap Union = makeMap(20);
  TriageMap UnionTriage = makeTriage(3, 0);
  ASSERT_NE(VerdictStore::save(S.Path, 0xd1, Union, nullptr, true,
                               &UnionTriage),
            ~0ull);
  VerdictStore::JournalCursor Cursor;
  for (unsigned N = 1; N <= 4; ++N) {
    VerdictMap M = makeMap(3, N * 1000);
    TriageMap T = makeTriage(1, N * 1000);
    ASSERT_EQ(VerdictStore::append(S.Path, 0xd1, M, &T, Cursor),
              VerdictStore::AppendStatus::Appended);
    Union.insert(M.begin(), M.end());
    UnionTriage.insert(T.begin(), T.end());
  }
  ASSERT_TRUE(fileExists(S.Journal));

  // A full save with merge folds the journal in and deletes it; the file
  // is byte-identical to a single save of everything ever appended.
  TriageMap NoTriage;
  ASSERT_NE(VerdictStore::save(S.Path, 0xd1, VerdictMap(), nullptr, true,
                               &NoTriage),
            ~0ull);
  EXPECT_FALSE(fileExists(S.Journal));
  ASSERT_NE(VerdictStore::save(Ref.Path, 0xd1, Union, nullptr, false,
                               &UnionTriage),
            ~0ull);
  EXPECT_EQ(readBytes(S.Path), readBytes(Ref.Path));
  EXPECT_EQ(readBytes(S.Path),
            VerdictStore::serialize(0xd1, Union, &UnionTriage));
}

TEST(VerdictStoreTest, JournalNeverOutgrowsTheStoreFile) {
  JournaledStore S("journal-grow.vstore");
  VerdictMap All = makeMap(1);
  ASSERT_NE(VerdictStore::save(S.Path, 0xd1, All), ~0ull);
  uint64_t StoreBytes = readBytes(S.Path).size();
  VerdictStore::JournalCursor Cursor;
  unsigned Appended = 0;
  VerdictStore::AppendStatus St;
  for (;;) {
    VerdictMap M = makeMap(4, 100 * (Appended + 1));
    All.insert(M.begin(), M.end());
    St = VerdictStore::append(S.Path, 0xd1, M, nullptr, Cursor);
    if (St != VerdictStore::AppendStatus::Appended)
      break;
    ++Appended;
    EXPECT_LE(readBytes(S.Journal).size(), StoreBytes);
  }
  // The record that would have made the journal larger than the store
  // file asks for a full save instead, which leaves one store file holding
  // everything.
  EXPECT_EQ(St, VerdictStore::AppendStatus::NeedsSave);
  EXPECT_GT(Appended, 0u);
  ASSERT_NE(VerdictStore::save(S.Path, 0xd1, All), ~0ull);
  EXPECT_FALSE(fileExists(S.Journal));
  EXPECT_EQ(readBytes(S.Path), VerdictStore::serialize(0xd1, All));
}

TEST(VerdictStoreTest, ConcurrentAppendersLoseNoEntries) {
  JournaledStore S("journal-concurrent.vstore");
  ASSERT_NE(VerdictStore::save(S.Path, 0xd1, makeMap(4)), ~0ull);
  // Two checkpointers on one path, each behaving like the engine: append
  // what is new, and on NeedsSave save everything it holds in full. Small
  // records against a small store force full saves in between, so the
  // appenders also see each other's journals and rewritten store files.
  constexpr unsigned Writers = 2, Rounds = 40;
  std::vector<unsigned> Appends(Writers, 0), Saves(Writers, 0);
  std::vector<std::thread> Threads;
  for (unsigned W = 0; W < Writers; ++W)
    Threads.emplace_back([&, W] {
      VerdictStore::JournalCursor Cursor;
      VerdictMap Held;
      for (unsigned R = 0; R < Rounds; ++R) {
        VerdictMap New = makeMap(2, 10000 * (W + 1) + 2 * R);
        Held.insert(New.begin(), New.end());
        VerdictStore::AppendStatus St =
            VerdictStore::append(S.Path, 0xd1, New, nullptr, Cursor);
        if (St == VerdictStore::AppendStatus::Appended) {
          ++Appends[W];
        } else {
          EXPECT_EQ(St, VerdictStore::AppendStatus::NeedsSave);
          EXPECT_NE(VerdictStore::save(S.Path, 0xd1, Held), ~0ull);
          ++Saves[W];
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();

  VerdictMap Loaded;
  ASSERT_TRUE(VerdictStore::load(S.Path, 0xd1, Loaded).loaded());
  EXPECT_EQ(Loaded.size(), 4u + Writers * Rounds * 2);
  EXPECT_GT(Saves[0] + Saves[1], 0u);
  for (unsigned W = 0; W < Writers; ++W) {
    EXPECT_GT(Appends[W], 0u);
    for (unsigned R = 0; R < Rounds; ++R)
      for (const auto &KV : makeMap(2, 10000 * (W + 1) + 2 * R))
        EXPECT_EQ(Loaded.count(KV.first), 1u);
  }
}
