//===- ValueGraphTest.cpp - Hash-consed value graph tests ----------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "vg/ValueGraph.h"

#include "ir/Cloning.h"
#include "ir/Context.h"
#include "ir/Module.h"
#include "normalize/Normalizer.h"
#include "opt/Pass.h"
#include "vg/GraphBuilder.h"
#include "workload/Generator.h"
#include "workload/Profiles.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>

using namespace llvmmd;

namespace {

struct GraphFixture : ::testing::Test {
  Context Ctx;
  ValueGraph G;
  Type *I32 = Ctx.getInt32Ty();
  Type *I1 = Ctx.getInt1Ty();
};

//===----------------------------------------------------------------------===//
// Sharing oracle: brute-force definitions of what maximizeSharing promises.
//===----------------------------------------------------------------------===//

std::vector<NodeId> rootsOf(const ValueGraph &G) {
  std::vector<NodeId> Roots;
  for (NodeId I = 0; I < G.size(); ++I)
    if (G.find(I) == I)
      Roots.push_back(I);
  return Roots;
}

bool sameHead(const Node &A, const Node &B) {
  return A.Kind == B.Kind && A.Op == B.Op && A.Pred == B.Pred &&
         A.Ty == B.Ty && A.IntVal == B.IntVal &&
         std::memcmp(&A.FloatVal, &B.FloatVal, sizeof(double)) == 0 &&
         A.Str == B.Str && A.Ops.size() == B.Ops.size();
}

/// Operand classes of \p N in a form where congruent nodes compare equal:
/// γ (cond, value) pairs and commutative operands as sorted multisets,
/// anything else positionally.
std::vector<NodeId> operandClasses(const ValueGraph &G, const Node &N) {
  std::vector<NodeId> Ops;
  for (NodeId Op : N.Ops)
    Ops.push_back(G.find(Op));
  if (N.Kind == NodeKind::Gamma) {
    std::vector<std::pair<NodeId, NodeId>> Pairs;
    for (size_t K = 0; K + 1 < Ops.size(); K += 2)
      Pairs.emplace_back(Ops[K], Ops[K + 1]);
    std::sort(Pairs.begin(), Pairs.end());
    Ops.clear();
    for (auto &[C, V] : Pairs) {
      Ops.push_back(C);
      Ops.push_back(V);
    }
  } else if (N.Kind == NodeKind::Op && isCommutativeOp(N.Op) &&
             Ops.size() == 2) {
    std::sort(Ops.begin(), Ops.end());
  }
  return Ops;
}

/// Number of pairs of distinct non-μ roots that are congruent, by
/// comparing every pair.
unsigned countCongruentPairs(const ValueGraph &G) {
  std::vector<NodeId> Roots = rootsOf(G);
  unsigned Pairs = 0;
  for (size_t A = 0; A < Roots.size(); ++A) {
    const Node &NA = G.node(Roots[A]);
    if (NA.Kind == NodeKind::Mu)
      continue;
    std::vector<NodeId> OpsA = operandClasses(G, NA);
    for (size_t B = A + 1; B < Roots.size(); ++B) {
      const Node &NB = G.node(Roots[B]);
      if (sameHead(NA, NB) && operandClasses(G, NB) == OpsA)
        ++Pairs;
    }
  }
  return Pairs;
}

/// Number of pairs of distinct bisimilar roots: the coarsest stable
/// partition of *all* roots by head and positional operand classes,
/// refined naively over the whole graph.
unsigned countBisimilarPairs(const ValueGraph &G) {
  std::vector<NodeId> Roots = rootsOf(G);
  std::map<NodeId, unsigned> Class;
  unsigned NumClasses = 0;
  {
    std::vector<NodeId> Reps;
    for (NodeId R : Roots) {
      auto It = std::find_if(Reps.begin(), Reps.end(), [&](NodeId Rep) {
        return sameHead(G.node(Rep), G.node(R));
      });
      if (It == Reps.end()) {
        Class[R] = NumClasses++;
        Reps.push_back(R);
      } else {
        Class[R] = Class[*It];
      }
    }
  }
  while (true) {
    std::map<std::vector<uint64_t>, unsigned> Sigs;
    std::map<NodeId, unsigned> Next;
    for (NodeId R : Roots) {
      std::vector<uint64_t> Sig{Class[R]};
      for (NodeId Op : G.node(R).Ops)
        Sig.push_back(Op == InvalidNode ? ~uint64_t(0) : Class[G.find(Op)]);
      Next[R] = Sigs.emplace(Sig, static_cast<unsigned>(Sigs.size()))
                    .first->second;
    }
    bool Stable = Sigs.size() == NumClasses;
    Class = std::move(Next);
    NumClasses = static_cast<unsigned>(Sigs.size());
    if (Stable)
      break;
  }
  return static_cast<unsigned>(Roots.size()) - NumClasses;
}

/// Checks the postconditions of maximizeSharing(\p Strategy) on \p G,
/// whose nodes were all roots before the call: no two non-μ roots are
/// congruent; after partitioning, no two roots are bisimilar; each class is
/// represented by its smallest id; and another round merges nothing.
void expectMaximallyShared(ValueGraph &G, SharingStrategy Strategy) {
  EXPECT_EQ(countCongruentPairs(G), 0u);
  if (Strategy != SharingStrategy::Simple)
    EXPECT_EQ(countBisimilarPairs(G), 0u);
  for (NodeId I = 0; I < G.size(); ++I)
    ASSERT_LE(G.find(I), I) << "class of n" << I
                            << " is not represented by its smallest id";
  EXPECT_EQ(G.maximizeSharing(Strategy), 0u);
}

const SharingStrategy AllStrategies[] = {SharingStrategy::Simple,
                                         SharingStrategy::Partition,
                                         SharingStrategy::Combined};

//===----------------------------------------------------------------------===//
// Cone-query oracle: the set-based, whole-graph-scanning definitions that
// the indexed queries replaced, kept verbatim as references.
//===----------------------------------------------------------------------===//

bool refConeContainsMu(const ValueGraph &G, NodeId Id) {
  std::set<NodeId> Seen;
  std::vector<NodeId> Work{G.find(Id)};
  while (!Work.empty()) {
    NodeId N = Work.back();
    Work.pop_back();
    if (!Seen.insert(N).second)
      continue;
    const Node &Nd = G.node(N);
    if (Nd.Kind == NodeKind::Mu)
      return true;
    for (NodeId Op : Nd.Ops)
      if (Op != InvalidNode)
        Work.push_back(G.find(Op));
  }
  return false;
}

/// Scans every root for uses of each derived pointer.
bool refIsNonEscapingAlloc(const ValueGraph &G, NodeId Alloc) {
  std::set<NodeId> Derived{G.find(Alloc)};
  std::vector<NodeId> Work{G.find(Alloc)};
  auto Derive = [&](NodeId N) {
    if (Derived.insert(N).second)
      Work.push_back(N);
  };
  while (!Work.empty()) {
    NodeId Target = Work.back();
    Work.pop_back();
    for (NodeId I = 0; I < G.size(); ++I) {
      if (G.find(I) != I)
        continue;
      const Node &N = G.node(I);
      for (unsigned K = 0, E = N.Ops.size(); K != E; ++K) {
        if (N.Ops[K] == InvalidNode || G.find(N.Ops[K]) != Target)
          continue;
        switch (N.Kind) {
        case NodeKind::Load:
          if (K != 0)
            return false;
          break;
        case NodeKind::Store:
          if (K != 1)
            return false;
          break;
        case NodeKind::AllocMem:
          break;
        case NodeKind::Op:
          if (N.Op == Opcode::GEP && K == 0) {
            Derive(I);
            break;
          }
          if (N.Op == Opcode::ICmp)
            break;
          return false;
        case NodeKind::Gamma:
          if (K % 2 == 1)
            Derive(I);
          break;
        case NodeKind::Mu:
          Derive(I);
          break;
        case NodeKind::Eta:
          if (K == 1)
            Derive(I);
          break;
        default:
          return false;
        }
      }
    }
  }
  return true;
}

bool refPossibleBases(const ValueGraph &G, NodeId P, std::set<NodeId> &Out) {
  std::set<NodeId> Seen;
  std::vector<NodeId> Work{G.find(P)};
  while (!Work.empty()) {
    NodeId N = G.find(Work.back());
    Work.pop_back();
    if (!Seen.insert(N).second)
      continue;
    if (Seen.size() > 64)
      return false;
    const Node &Nd = G.node(N);
    switch (Nd.Kind) {
    case NodeKind::Op:
      if (Nd.Op == Opcode::GEP) {
        Work.push_back(Nd.Ops[0]);
        break;
      }
      Out.insert(N);
      break;
    case NodeKind::Gamma:
      for (unsigned K = 1; K < Nd.Ops.size(); K += 2)
        Work.push_back(Nd.Ops[K]);
      break;
    case NodeKind::Mu:
      if (Nd.Ops[0] == InvalidNode)
        return false;
      Work.push_back(Nd.Ops[0]);
      Work.push_back(Nd.Ops[1]);
      break;
    case NodeKind::Eta:
      Work.push_back(Nd.Ops[1]);
      break;
    default:
      Out.insert(N);
      break;
    }
  }
  return true;
}

/// aliasPointers over the reference base and escape queries.
int refAliasPointers(const ValueGraph &G, NodeId P, NodeId Q, unsigned SizeP,
                     unsigned SizeQ) {
  P = G.find(P);
  Q = G.find(Q);
  if (P == Q)
    return 2;
  auto Decompose = [&](NodeId Ptr, int64_t &Off, bool &Known) {
    NodeId Base = G.find(Ptr);
    Off = 0;
    Known = true;
    while (G.node(Base).Kind == NodeKind::Op &&
           G.node(Base).Op == Opcode::GEP) {
      const Node &N = G.node(Base);
      const Node &NI = G.node(N.Ops[1]);
      if (NI.Kind == NodeKind::ConstInt)
        Off += NI.IntVal * N.IntVal;
      else
        Known = false;
      Base = G.find(N.Ops[0]);
    }
    return Base;
  };
  int64_t OffA, OffB;
  bool KnownA, KnownB;
  NodeId BaseA = Decompose(P, OffA, KnownA);
  NodeId BaseB = Decompose(Q, OffB, KnownB);
  if (BaseA == BaseB) {
    if (!KnownA || !KnownB)
      return 1;
    if (OffA == OffB)
      return 2;
    if (OffA + static_cast<int64_t>(SizeP) <= OffB ||
        OffB + static_cast<int64_t>(SizeQ) <= OffA)
      return 0;
    return 1;
  }
  std::set<NodeId> BasesA, BasesB;
  if (!refPossibleBases(G, BaseA, BasesA) ||
      !refPossibleBases(G, BaseB, BasesB))
    return 1;
  auto Identified = [](const Node &N) {
    return N.Kind == NodeKind::Alloc || N.Kind == NodeKind::Global;
  };
  for (NodeId PA : BasesA)
    for (NodeId PB : BasesB) {
      if (PA == PB)
        return 1;
      const Node &NA = G.node(PA), &NB = G.node(PB);
      if (Identified(NA) && Identified(NB))
        continue;
      if ((NA.Kind == NodeKind::Alloc && refIsNonEscapingAlloc(G, PA)) ||
          (NB.Kind == NodeKind::Alloc && refIsNonEscapingAlloc(G, PB)))
        continue;
      return 1;
    }
  return 0;
}

/// Asks every root the indexed cone queries and their references; every
/// ordered pair of pointer-typed roots is asked aliasPointers. Returns the
/// number of questions asked.
unsigned expectQueriesMatchReferences(const ValueGraph &G) {
  unsigned Asked = 0;
  std::vector<NodeId> Ptrs;
  for (NodeId R : rootsOf(G)) {
    EXPECT_EQ(G.coneContainsMu(R), refConeContainsMu(G, R)) << "n" << R;
    EXPECT_EQ(G.isNonEscapingAlloc(R), refIsNonEscapingAlloc(G, R))
        << "n" << R;
    Asked += 2;
    if (Type *Ty = G.node(R).Ty; Ty && Ty->isPointer())
      Ptrs.push_back(R);
  }
  for (NodeId P : Ptrs)
    for (NodeId Q : Ptrs) {
      EXPECT_EQ(G.aliasPointers(P, Q, 4, 8), refAliasPointers(G, P, Q, 4, 8))
          << "n" << P << " vs n" << Q;
      ++Asked;
    }
  return Asked;
}

} // namespace

TEST_F(GraphFixture, LeavesAreInterned) {
  EXPECT_EQ(G.getConstInt(I32, 4), G.getConstInt(I32, 4));
  EXPECT_NE(G.getConstInt(I32, 4), G.getConstInt(I32, 5));
  EXPECT_NE(G.getConstInt(I32, 4), G.getConstInt(Ctx.getInt64Ty(), 4));
  EXPECT_EQ(G.getParam(0, I32), G.getParam(0, I32));
  EXPECT_NE(G.getParam(0, I32), G.getParam(1, I32));
  EXPECT_EQ(G.getInitialMem(), G.getInitialMem());
  EXPECT_EQ(G.getGlobal("g", true, Ctx.getPtrTy()),
            G.getGlobal("g", true, Ctx.getPtrTy()));
}

TEST_F(GraphFixture, OpsAreHashConsed) {
  NodeId A = G.getParam(0, I32), B = G.getParam(1, I32);
  NodeId X = G.getOp(Opcode::Add, I32, {A, B});
  NodeId Y = G.getOp(Opcode::Add, I32, {A, B});
  EXPECT_EQ(X, Y);
  // Commutative ops canonicalize operand order on construction.
  NodeId Z = G.getOp(Opcode::Add, I32, {B, A});
  EXPECT_EQ(X, Z);
  // Non-commutative ops do not.
  EXPECT_NE(G.getOp(Opcode::Sub, I32, {A, B}),
            G.getOp(Opcode::Sub, I32, {B, A}));
  // Predicate is part of the identity.
  EXPECT_NE(G.getOp(Opcode::ICmp, I1, {A, B},
                    static_cast<uint8_t>(ICmpPred::SLT)),
            G.getOp(Opcode::ICmp, I1, {A, B},
                    static_cast<uint8_t>(ICmpPred::SLE)));
}

TEST_F(GraphFixture, GammaBranchesSortCanonically) {
  NodeId C = G.getParam(0, I1);
  NodeId NotC = G.getOp(Opcode::Xor, I1, {C, G.getConstBool(I1, true)});
  NodeId V1 = G.getConstInt(I32, 1), V2 = G.getConstInt(I32, 2);
  NodeId A = G.getGamma(I32, {{C, V1}, {NotC, V2}});
  NodeId B = G.getGamma(I32, {{NotC, V2}, {C, V1}});
  EXPECT_EQ(A, B);
}

TEST_F(GraphFixture, UnionFindMerging) {
  NodeId A = G.getParam(0, I32);
  NodeId X = G.getOp(Opcode::Add, I32, {A, G.getConstInt(I32, 1)});
  NodeId Y = G.getOp(Opcode::Add, I32, {A, G.getConstInt(I32, 2)});
  EXPECT_NE(G.find(X), G.find(Y));
  G.mergeInto(X, Y);
  EXPECT_EQ(G.find(X), G.find(Y));
  EXPECT_EQ(G.find(X), Y);
  EXPECT_EQ(G.getMergeCount(), 1u);
}

TEST_F(GraphFixture, CongruenceClosesUpward) {
  // Merge the leaves of two structurally parallel expressions; the parents
  // must merge in the sharing pass.
  NodeId A = G.getParam(0, I32), B = G.getParam(1, I32);
  NodeId XA = G.getOp(Opcode::Mul, I32, {A, G.getConstInt(I32, 3)});
  NodeId XB = G.getOp(Opcode::Mul, I32, {B, G.getConstInt(I32, 3)});
  NodeId PA = G.getOp(Opcode::Sub, I32, {XA, A});
  NodeId PB = G.getOp(Opcode::Sub, I32, {XB, B});
  EXPECT_NE(G.find(PA), G.find(PB));
  G.mergeInto(A, B);
  G.maximizeSharing(SharingStrategy::Simple);
  EXPECT_EQ(G.find(PA), G.find(PB));
  EXPECT_EQ(G.find(XA), G.find(XB));
}

TEST_F(GraphFixture, MuUnificationMergesEqualLoops) {
  // Two μ for the same stream: μ(0, μ+1).
  NodeId Zero = G.getConstInt(I32, 0), One = G.getConstInt(I32, 1);
  NodeId M1 = G.makeMu(I32);
  G.setMuOperands(M1, Zero, G.getOp(Opcode::Add, I32, {M1, One}));
  NodeId M2 = G.makeMu(I32);
  G.setMuOperands(M2, Zero, G.getOp(Opcode::Add, I32, {M2, One}));
  EXPECT_NE(G.find(M1), G.find(M2));
  G.maximizeSharing(SharingStrategy::Simple);
  EXPECT_EQ(G.find(M1), G.find(M2));
}

TEST_F(GraphFixture, MuUnificationRespectsDifferences) {
  NodeId Zero = G.getConstInt(I32, 0);
  NodeId One = G.getConstInt(I32, 1), Two = G.getConstInt(I32, 2);
  NodeId M1 = G.makeMu(I32);
  G.setMuOperands(M1, Zero, G.getOp(Opcode::Add, I32, {M1, One}));
  NodeId M2 = G.makeMu(I32);
  G.setMuOperands(M2, Zero, G.getOp(Opcode::Add, I32, {M2, Two}));
  G.maximizeSharing(SharingStrategy::Simple);
  EXPECT_NE(G.find(M1), G.find(M2)) << "different strides must stay apart";
  // Different initial values likewise.
  NodeId M3 = G.makeMu(I32);
  G.setMuOperands(M3, One, G.getOp(Opcode::Add, I32, {M3, One}));
  G.maximizeSharing(SharingStrategy::Simple);
  EXPECT_NE(G.find(M1), G.find(M3));
}

TEST_F(GraphFixture, MuUnificationBacktracksCommutativeOrder) {
  // μ(0, 1+μ) vs μ(0, μ+1) with operand orders that disagree positionally.
  NodeId Zero = G.getConstInt(I32, 0), One = G.getConstInt(I32, 1);
  NodeId M1 = G.makeMu(I32);
  NodeId Add1 = G.getOp(Opcode::Add, I32, {One, M1});
  G.setMuOperands(M1, Zero, Add1);
  NodeId M2 = G.makeMu(I32);
  NodeId Add2 = G.getOp(Opcode::Add, I32, {M2, One});
  G.setMuOperands(M2, Zero, Add2);
  G.maximizeSharing(SharingStrategy::Simple);
  EXPECT_EQ(G.find(M1), G.find(M2));
}

TEST_F(GraphFixture, PartitionRefinementMergesCycles) {
  NodeId Zero = G.getConstInt(I32, 0), One = G.getConstInt(I32, 1);
  NodeId M1 = G.makeMu(I32);
  G.setMuOperands(M1, Zero, G.getOp(Opcode::Add, I32, {M1, One}));
  NodeId M2 = G.makeMu(I32);
  G.setMuOperands(M2, Zero, G.getOp(Opcode::Add, I32, {M2, One}));
  G.maximizeSharing(SharingStrategy::Partition);
  EXPECT_EQ(G.find(M1), G.find(M2));
}

TEST_F(GraphFixture, PartitionKeepsDistinctCyclesApart) {
  NodeId Zero = G.getConstInt(I32, 0), One = G.getConstInt(I32, 1);
  NodeId Two = G.getConstInt(I32, 2);
  NodeId M1 = G.makeMu(I32);
  G.setMuOperands(M1, Zero, G.getOp(Opcode::Add, I32, {M1, One}));
  NodeId M2 = G.makeMu(I32);
  G.setMuOperands(M2, Zero, G.getOp(Opcode::Mul, I32, {M2, Two}));
  G.maximizeSharing(SharingStrategy::Partition);
  EXPECT_NE(G.find(M1), G.find(M2));
}

TEST_F(GraphFixture, AliasOnGraphPointers) {
  NodeId Mem = G.getInitialMem();
  NodeId One = G.getConstInt(Ctx.getInt64Ty(), 1);
  NodeId AllocA = G.getAlloc(One, Mem, 4);
  NodeId MemA = G.getAllocMem(AllocA);
  NodeId AllocB = G.getAlloc(One, MemA, 4);
  EXPECT_NE(G.find(AllocA), G.find(AllocB))
      << "memory threading keeps allocations distinct";
  EXPECT_EQ(G.aliasPointers(AllocA, AllocB, 4, 4), 0);
  EXPECT_EQ(G.aliasPointers(AllocA, AllocA, 4, 4), 2);
  // GEPs at distinct constant offsets.
  NodeId GA = G.getOp(Opcode::GEP, Ctx.getPtrTy(),
                      {AllocA, G.getConstInt(Ctx.getInt64Ty(), 1)}, 0, 4);
  NodeId GB = G.getOp(Opcode::GEP, Ctx.getPtrTy(),
                      {AllocA, G.getConstInt(Ctx.getInt64Ty(), 2)}, 0, 4);
  EXPECT_EQ(G.aliasPointers(GA, GB, 4, 4), 0);
  EXPECT_EQ(G.aliasPointers(GA, GB, 8, 4), 1); // overlapping footprint
  // Distinct globals never alias; param vs global may.
  NodeId GlobX = G.getGlobal("x", false, Ctx.getPtrTy());
  NodeId GlobY = G.getGlobal("y", false, Ctx.getPtrTy());
  NodeId Param = G.getParam(0, Ctx.getPtrTy());
  EXPECT_EQ(G.aliasPointers(GlobX, GlobY, 4, 4), 0);
  EXPECT_EQ(G.aliasPointers(GlobX, Param, 4, 4), 1);
  // Non-escaping alloca vs param: no alias.
  EXPECT_EQ(G.aliasPointers(AllocA, Param, 4, 4), 0);
}

TEST_F(GraphFixture, EscapeDetection) {
  NodeId Mem = G.getInitialMem();
  NodeId One = G.getConstInt(Ctx.getInt64Ty(), 1);
  NodeId Alloc = G.getAlloc(One, Mem, 4);
  EXPECT_TRUE(G.isNonEscapingAlloc(Alloc));
  // Storing the pointer itself escapes it.
  NodeId Other = G.getAlloc(One, G.getAllocMem(Alloc), 8);
  G.getStore(Alloc, Other, G.getAllocMem(Alloc));
  EXPECT_FALSE(G.isNonEscapingAlloc(Alloc));
}

TEST_F(GraphFixture, ConeContainsMu) {
  NodeId A = G.getParam(0, I32);
  NodeId X = G.getOp(Opcode::Add, I32, {A, G.getConstInt(I32, 1)});
  EXPECT_FALSE(G.coneContainsMu(X));
  NodeId M = G.makeMu(I32);
  G.setMuOperands(M, A, G.getOp(Opcode::Add, I32, {M, X}));
  NodeId Y = G.getOp(Opcode::Mul, I32, {M, A});
  EXPECT_TRUE(G.coneContainsMu(Y));
  EXPECT_TRUE(G.coneContainsMu(M));
}

TEST_F(GraphFixture, CountRootsAndDump) {
  NodeId A = G.getParam(0, I32);
  NodeId X = G.getOp(Opcode::Add, I32, {A, G.getConstInt(I32, 1)});
  size_t Before = G.countRoots();
  G.mergeInto(X, A);
  EXPECT_EQ(G.countRoots(), Before - 1);
  std::string Dump = G.dump({A});
  EXPECT_NE(Dump.find("param"), std::string::npos);
}

TEST_F(GraphFixture, DumpDotRendersCone) {
  NodeId C = G.getParam(0, I1);
  NodeId Mu = G.makeMu(I32);
  G.setMuOperands(Mu, G.getConstInt(I32, 0),
                  G.getOp(Opcode::Add, I32, {Mu, G.getConstInt(I32, 1)}));
  NodeId Eta = G.getEta(I32, C, Mu);
  std::string Dot = G.dumpDot({Eta});
  EXPECT_NE(Dot.find("digraph"), std::string::npos);
  EXPECT_NE(Dot.find("\xce\xbc"), std::string::npos); // μ label
  EXPECT_NE(Dot.find("\xce\xb7"), std::string::npos); // η label
  EXPECT_NE(Dot.find("label=\"i\""), std::string::npos);
  // Only the cone is rendered: an unrelated node stays out.
  NodeId Unrelated = G.getOp(Opcode::Mul, I32, {G.getParam(2, I32),
                                                G.getParam(3, I32)});
  (void)Unrelated;
  std::string Dot2 = G.dumpDot({Eta});
  EXPECT_EQ(Dot2.find("mul"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Sharing maximization against the brute-force oracle
//===----------------------------------------------------------------------===//

TEST(SharingOracle, EveryTable1PairIsMaximallyShared) {
  // The built graph of every (original, optimized) pair of the 12 Table-1
  // profiles, shared once with each strategy.
  Context Ctx;
  unsigned Pairs = 0, Merged = 0;
  for (const BenchmarkProfile &P : getPaperSuite()) {
    std::unique_ptr<Module> Orig = generateBenchmark(Ctx, P);
    std::unique_ptr<Module> Opt = cloneModule(*Orig);
    PassManager PM;
    ASSERT_TRUE(PM.parsePipeline(getPaperPipeline()));
    for (Function *FO : Opt->definedFunctions()) {
      if (!PM.run(*FO))
        continue;
      const Function &FA = *Orig->getFunction(FO->getName());
      for (SharingStrategy Strategy : AllStrategies) {
        SCOPED_TRACE(FO->getName() + " strategy " +
                     std::to_string(static_cast<int>(Strategy)));
        ValueGraph G;
        if (!buildValueGraph(G, FA).Supported ||
            !buildValueGraph(G, *FO).Supported)
          break;
        Pairs += Strategy == SharingStrategy::Simple;
        Merged += G.maximizeSharing(Strategy);
        expectMaximallyShared(G, Strategy);
        if (HasFatalFailure())
          return;
      }
    }
  }
  // Not vacuous: hundreds of pairs, and sharing has work to do on them.
  EXPECT_GT(Pairs, 400u);
  EXPECT_GT(Merged, 1000u);
}

TEST_F(GraphFixture, OnlyPartitioningMergesCyclesWithDistinctInits) {
  // X = μ(Y, X + 1) and Y = μ(X, Y + 2), twice. Each μ's initial value is
  // the other μ of its copy, so no two μs start from the same class and
  // unification never pairs them; the two copies are still bisimilar.
  NodeId One = G.getConstInt(I32, 1), Two = G.getConstInt(I32, 2);
  auto MakeCopy = [&] {
    NodeId X = G.makeMu(I32), Y = G.makeMu(I32);
    G.setMuOperands(X, Y, G.getOp(Opcode::Add, I32, {X, One}));
    G.setMuOperands(Y, X, G.getOp(Opcode::Add, I32, {Y, Two}));
    return std::make_pair(X, Y);
  };
  auto [X1, Y1] = MakeCopy();
  auto [X2, Y2] = MakeCopy();
  // A non-μ user of each copy: its operands reach a μ, so partitioning
  // refines it too.
  NodeId P = G.getParam(0, I32);
  NodeId U1 = G.getOp(Opcode::Sub, I32, {X1, P});
  NodeId U2 = G.getOp(Opcode::Sub, I32, {X2, P});
  // And one that differs: same shape, other constant.
  NodeId V2 = G.getOp(Opcode::Sub, I32, {X2, One});

  EXPECT_EQ(G.maximizeSharing(SharingStrategy::Simple), 0u);
  EXPECT_NE(G.find(X1), G.find(X2));

  EXPECT_EQ(G.maximizeSharing(SharingStrategy::Combined), 5u);
  EXPECT_EQ(G.find(X2), X1);
  EXPECT_EQ(G.find(Y2), Y1);
  EXPECT_NE(G.find(X1), G.find(Y1)) << "different strides stay apart";
  EXPECT_EQ(G.find(U2), U1);
  EXPECT_NE(G.find(V2), G.find(U1));
  expectMaximallyShared(G, SharingStrategy::Combined);
}

TEST_F(GraphFixture, PartitioningIsPositionalUnificationIsNot) {
  // μ(0, X1 + C) and μ(0, X2 + C), with C created between the two μs:
  // canonical operand order puts X1 before C but C before X2, so the two
  // bisimilar cycles disagree positionally. Unification backtracks over
  // the commutative order and merges them; partition refinement compares
  // positions and keeps them apart.
  NodeId Zero = G.getConstInt(I32, 0);
  NodeId X1 = G.makeMu(I32);
  NodeId C = G.getConstInt(I32, 7);
  NodeId X2 = G.makeMu(I32);
  NodeId Add1 = G.getOp(Opcode::Add, I32, {X1, C});
  NodeId Add2 = G.getOp(Opcode::Add, I32, {X2, C});
  G.setMuOperands(X1, Zero, Add1);
  G.setMuOperands(X2, Zero, Add2);
  EXPECT_EQ(G.node(Add1).Ops[0], X1);
  EXPECT_EQ(G.node(Add2).Ops[0], C);

  EXPECT_EQ(G.maximizeSharing(SharingStrategy::Partition), 0u);
  EXPECT_NE(G.find(X1), G.find(X2));

  EXPECT_EQ(G.maximizeSharing(SharingStrategy::Simple), 2u);
  EXPECT_EQ(G.find(X2), X1);
  EXPECT_EQ(G.find(Add2), Add1);
  // The merged add is re-sorted by its new operand roots.
  EXPECT_EQ(G.node(Add1).Ops, (std::vector<NodeId>{X1, C}));
  expectMaximallyShared(G, SharingStrategy::Combined);
}

TEST_F(GraphFixture, MuFreeGraphSharesByCongruenceAlone) {
  // Two parallel expression trees whose leaves are merged: congruence
  // closes upward through γ branches and commutative operands listed in
  // different orders; partitioning has no μ to start from.
  NodeId A = G.getParam(0, I32), B = G.getParam(1, I32);
  NodeId K = G.getParam(2, I32), Cond = G.getParam(3, I1);
  NodeId NotCond = G.getOp(Opcode::Xor, I1, {Cond, G.getConstBool(I1, true)});
  NodeId MA = G.getOp(Opcode::Mul, I32, {A, K});
  NodeId MB = G.getOp(Opcode::Mul, I32, {K, B});
  NodeId GA = G.getGamma(I32, {{Cond, MA}, {NotCond, K}});
  NodeId GB = G.getGamma(I32, {{NotCond, K}, {Cond, MB}});
  NodeId RA = G.getOp(Opcode::Sub, I32, {GA, A});
  NodeId RB = G.getOp(Opcode::Sub, I32, {GB, B});
  G.mergeInto(B, A);

  EXPECT_EQ(G.maximizeSharing(SharingStrategy::Partition), 3u);
  EXPECT_EQ(G.find(MB), MA);
  EXPECT_EQ(G.find(GB), GA);
  EXPECT_EQ(G.find(RB), RA);
  EXPECT_EQ(countCongruentPairs(G), 0u);
  EXPECT_EQ(countBisimilarPairs(G), 0u);
  for (SharingStrategy Strategy : AllStrategies)
    EXPECT_EQ(G.maximizeSharing(Strategy), 0u);
}

TEST(QueryOracle, EveryTable1PairAnswersLikeTheReferences) {
  // Every (original, optimized) pair of the 12 Table-1 profiles, right
  // after construction and again after normalization with every rule set.
  Context Ctx;
  unsigned Pairs = 0, Asked = 0, Allocs = 0, Escaping = 0;
  for (const BenchmarkProfile &P : getPaperSuite()) {
    std::unique_ptr<Module> Orig = generateBenchmark(Ctx, P);
    std::unique_ptr<Module> Opt = cloneModule(*Orig);
    PassManager PM;
    ASSERT_TRUE(PM.parsePipeline(getPaperPipeline()));
    RuleConfig Rules;
    Rules.Mask = RS_All;
    Rules.M = Orig.get();
    for (Function *FO : Opt->definedFunctions()) {
      if (!PM.run(*FO))
        continue;
      const Function &FA = *Orig->getFunction(FO->getName());
      SCOPED_TRACE(FO->getName());
      ValueGraph G;
      BuildResult RA = buildValueGraph(G, FA);
      BuildResult RB = buildValueGraph(G, *FO);
      if (!RA.Supported || !RB.Supported)
        continue;
      ++Pairs;
      Asked += expectQueriesMatchReferences(G);
      normalizeGraph(G, {RA.Ret, RB.Ret}, Rules);
      Asked += expectQueriesMatchReferences(G);
      for (NodeId R : rootsOf(G))
        if (G.node(R).Kind == NodeKind::Alloc) {
          ++Allocs;
          Escaping += !G.isNonEscapingAlloc(R);
        }
      if (HasFailure())
        return;
    }
  }
  // Not vacuous: hundreds of pairs, and allocations on both sides of the
  // escape question.
  EXPECT_GT(Pairs, 400u);
  EXPECT_GT(Asked, 100000u);
  EXPECT_GT(Allocs, Escaping);
  EXPECT_GT(Escaping, 0u);
}

namespace {

/// Builders for the hand-made escape cases: an allocation and what a test
/// hangs off it.
struct EscapeFixture : GraphFixture {
  Type *Ptr = Ctx.getPtrTy();
  Type *I64 = Ctx.getInt64Ty();
  NodeId Mem = G.getInitialMem();
  NodeId Alloc = G.getAlloc(G.getConstInt(I64, 1), Mem, 4);
  NodeId AllocMem = G.getAllocMem(Alloc);
  NodeId Cond = G.getParam(0, I1);

  NodeId gep(NodeId Base, int64_t Idx) {
    return G.getOp(Opcode::GEP, Ptr, {Base, G.getConstInt(I64, Idx)}, 0, 4);
  }
  /// The answer, checked against the reference first.
  bool nonEscaping(NodeId N) {
    bool Indexed = G.isNonEscapingAlloc(N);
    EXPECT_EQ(Indexed, refIsNonEscapingAlloc(G, N));
    EXPECT_EQ(G.coneContainsMu(N), refConeContainsMu(G, N));
    return Indexed;
  }
};

} // namespace

TEST_F(EscapeFixture, DerivationChainThroughGepGammaMuEta) {
  // η(c, μ(γ(c → gep(a, 1), ¬c → null), gep(μ, 2))): every link derives
  // the allocation. Loads and stores through the end of the chain keep it
  // private; storing the end of the chain as a value publishes it.
  NodeId NotC = G.getOp(Opcode::Xor, I1, {Cond, G.getConstBool(I1, true)});
  NodeId Sel = G.getGamma(Ptr, {{Cond, gep(Alloc, 1)}, {NotC, G.getNull(Ptr)}});
  NodeId Mu = G.makeMu(Ptr);
  G.setMuOperands(Mu, Sel, gep(Mu, 2));
  NodeId Exit = G.getEta(Ptr, Cond, Mu);
  NodeId V = G.getLoad(I32, Exit, AllocMem);
  G.getStore(V, gep(Exit, 3), AllocMem);
  EXPECT_TRUE(nonEscaping(Alloc));

  NodeId Sink = G.getGlobal("sink", false, Ptr);
  G.getStore(Exit, Sink, AllocMem);
  EXPECT_FALSE(nonEscaping(Alloc));
}

TEST_F(EscapeFixture, StoredAsValueEscapes) {
  NodeId Other = G.getAlloc(G.getConstInt(I64, 1), AllocMem, 8);
  G.getStore(G.getConstInt(I32, 7), gep(Alloc, 1), AllocMem);
  EXPECT_TRUE(nonEscaping(Alloc)) << "stored *through*, not stored";
  G.getStore(gep(Alloc, 1), Other, G.getAllocMem(Other));
  EXPECT_FALSE(nonEscaping(Alloc));
}

TEST_F(EscapeFixture, CallArgumentEscapes) {
  G.getCall("strlen", MemoryEffect::ReadOnly, I64, {gep(Alloc, 0), AllocMem});
  EXPECT_FALSE(nonEscaping(Alloc));
}

TEST_F(EscapeFixture, ReturnEscapes) {
  G.getRet(gep(Alloc, 1), AllocMem);
  EXPECT_FALSE(nonEscaping(Alloc));
}

TEST_F(EscapeFixture, AddressComparisonDoesNotEscape) {
  NodeId Other = G.getAlloc(G.getConstInt(I64, 1), AllocMem, 4);
  G.getOp(Opcode::ICmp, I1, {gep(Alloc, 1), Other},
          static_cast<uint8_t>(ICmpPred::EQ));
  EXPECT_TRUE(nonEscaping(Alloc));
  EXPECT_TRUE(nonEscaping(Other));
}

TEST_F(EscapeFixture, AllocationReachingItselfThroughAMu) {
  // p = μ(a, gep(p, 1)): the derivation walk meets the μ again through its
  // own iteration value and must stop there.
  NodeId Mu = G.makeMu(Ptr);
  G.setMuOperands(Mu, Alloc, gep(Mu, 1));
  G.getStore(G.getConstInt(I32, 0), Mu, AllocMem);
  EXPECT_TRUE(nonEscaping(Alloc));
  EXPECT_TRUE(nonEscaping(Mu));
  EXPECT_EQ(G.aliasPointers(Mu, G.getParam(1, Ptr), 4, 4),
            refAliasPointers(G, Mu, G.getParam(1, Ptr), 4, 4));
  G.getRet(G.getEta(Ptr, Cond, Mu), AllocMem);
  EXPECT_FALSE(nonEscaping(Alloc));
}

TEST_F(EscapeFixture, AnswersFollowMergesAndMuPatching) {
  // The use index is rebuilt after any change to the graph: a merge that
  // makes a stored value the allocation, and a μ whose operands are set
  // after a query, both change the answer.
  NodeId Other = G.getAlloc(G.getConstInt(I64, 2), AllocMem, 4);
  NodeId Param = G.getParam(1, Ptr);
  NodeId Derived = gep(Alloc, 1);
  G.getStore(Param, Other, G.getAllocMem(Other));
  EXPECT_TRUE(nonEscaping(Alloc));
  G.mergeInto(Param, Derived);
  EXPECT_FALSE(nonEscaping(Alloc));

  NodeId Fresh = G.getAlloc(G.getConstInt(I64, 3), Mem, 4);
  NodeId Mu = G.makeMu(Ptr);
  G.getRet(G.getEta(Ptr, Cond, Mu), Mem);
  EXPECT_TRUE(nonEscaping(Fresh));
  G.setMuOperands(Mu, Fresh, Mu);
  EXPECT_FALSE(nonEscaping(Fresh));
}

TEST_F(EscapeFixture, BaseWalkStopsAfterSixtyFourNodes) {
  // A γ selecting among K distinct globals: the base walk visits the γ and
  // the K globals. Up to 64 nodes the bases are known and all identified,
  // so the γ cannot alias another global; one more and the walk gives up.
  NodeId Target = G.getGlobal("target", false, Ptr);
  for (unsigned K : {63u, 64u}) {
    std::vector<std::pair<NodeId, NodeId>> Branches;
    for (unsigned B = 0; B < K; ++B)
      Branches.emplace_back(G.getParam(2 + B, I1),
                            G.getGlobal("g" + std::to_string(B), false, Ptr));
    NodeId Sel = G.getGamma(Ptr, Branches);
    int Expected = K == 63 ? 0 : 1;
    EXPECT_EQ(G.aliasPointers(Sel, Target, 4, 4), Expected) << K;
    EXPECT_EQ(refAliasPointers(G, Sel, Target, 4, 4), Expected) << K;
  }
}
