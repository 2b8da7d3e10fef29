//===- ValueGraph.cpp - Shared, hash-consed value graph ----------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "vg/ValueGraph.h"

#include "support/Hashing.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <sstream>

using namespace llvmmd;

const char *llvmmd::getNodeKindName(NodeKind K) {
  switch (K) {
  case NodeKind::ConstInt:
    return "const";
  case NodeKind::ConstFloat:
    return "fconst";
  case NodeKind::ConstNull:
    return "null";
  case NodeKind::Undef:
    return "undef";
  case NodeKind::Global:
    return "global";
  case NodeKind::Param:
    return "param";
  case NodeKind::InitialMem:
    return "mem0";
  case NodeKind::Op:
    return "op";
  case NodeKind::Gamma:
    return "gamma";
  case NodeKind::Mu:
    return "mu";
  case NodeKind::Eta:
    return "eta";
  case NodeKind::Alloc:
    return "alloc";
  case NodeKind::AllocMem:
    return "allocmem";
  case NodeKind::Load:
    return "load";
  case NodeKind::Store:
    return "store";
  case NodeKind::Call:
    return "call";
  case NodeKind::CallMem:
    return "callmem";
  case NodeKind::Ret:
    return "ret";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Union-find
//===----------------------------------------------------------------------===//

NodeId ValueGraph::find(NodeId Id) const {
  assert(Id < Parent.size() && "node id out of range");
  NodeId Root = Id;
  while (Parent[Root] != Root)
    Root = Parent[Root];
  // Path compression.
  while (Parent[Id] != Root) {
    NodeId Next = Parent[Id];
    Parent[Id] = Root;
    Id = Next;
  }
  return Root;
}

bool ValueGraph::mergeInto(NodeId From, NodeId Into) {
  NodeId A = find(From), B = find(Into);
  if (A == B)
    return false;
  Parent[A] = B;
  ++MergeCount;
  return true;
}

size_t ValueGraph::countRoots() const {
  size_t N = 0;
  for (NodeId I = 0; I < Nodes.size(); ++I)
    if (find(I) == I)
      ++N;
  return N;
}

//===----------------------------------------------------------------------===//
// Hash-consing
//===----------------------------------------------------------------------===//

namespace {

/// Equality of every node field except the operand list. Floats compare by
/// bit pattern (the hash-cons identity), so -0.0 and NaN payloads behave
/// exactly like the former serialized-string key.
bool scalarFieldsEqual(const Node &A, const Node &B) {
  uint64_t ABits, BBits;
  std::memcpy(&ABits, &A.FloatVal, sizeof(ABits));
  std::memcpy(&BBits, &B.FloatVal, sizeof(BBits));
  return A.Kind == B.Kind && A.Op == B.Op && A.Pred == B.Pred &&
         A.Ty == B.Ty && A.IntVal == B.IntVal && ABits == BBits &&
         A.Str == B.Str;
}

} // namespace

uint64_t ValueGraph::hashNodeHead(const Node &N) const {
  uint64_t FloatBits;
  std::memcpy(&FloatBits, &N.FloatVal, sizeof(FloatBits));
  uint64_t H = hashCombine(static_cast<uint64_t>(N.Kind),
                           static_cast<uint64_t>(N.Op));
  H = hashCombine(H, N.Pred);
  // Types are interned in the Context, so their shape identifies them.
  H = hashCombine(H, hashTypeShape(N.Ty));
  H = hashCombine(H, static_cast<uint64_t>(N.IntVal));
  H = hashCombine(H, FloatBits);
  H = hashCombine(H, hashString(N.Str));
  H = hashCombine(H, N.Ops.size());
  return H;
}

bool ValueGraph::nodeEquals(const Node &A, const Node &B) {
  return scalarFieldsEqual(A, B) && A.Ops == B.Ops;
}

NodeId ValueGraph::intern(Node N) {
  // Canonicalize operand references before keying.
  uint64_t Head = hashNodeHead(N);
  uint64_t H = Head;
  for (NodeId &Op : N.Ops) {
    Op = find(Op);
    H = hashCombine(H, Op);
  }
  std::vector<NodeId> &Bucket = HashCons[H];
  for (NodeId Candidate : Bucket)
    if (nodeEquals(Nodes[Candidate], N))
      return find(Candidate);
  NodeId Id = static_cast<NodeId>(Nodes.size());
  Nodes.push_back(std::move(N));
  Parent.push_back(Id);
  HeadHashes.push_back(Head);
  Bucket.push_back(Id);
  return Id;
}

NodeId ValueGraph::getConstInt(Type *Ty, int64_t V) {
  Node N;
  N.Kind = NodeKind::ConstInt;
  N.Ty = Ty;
  N.IntVal = signExtend(V, Ty->getBitWidth());
  return intern(std::move(N));
}

NodeId ValueGraph::getConstFloat(Type *Ty, double V) {
  Node N;
  N.Kind = NodeKind::ConstFloat;
  N.Ty = Ty;
  N.FloatVal = V;
  return intern(std::move(N));
}

NodeId ValueGraph::getNull(Type *PtrTy) {
  Node N;
  N.Kind = NodeKind::ConstNull;
  N.Ty = PtrTy;
  return intern(std::move(N));
}

NodeId ValueGraph::getUndef(Type *Ty) {
  Node N;
  N.Kind = NodeKind::Undef;
  N.Ty = Ty;
  return intern(std::move(N));
}

NodeId ValueGraph::getGlobal(const std::string &Name, bool IsConstant,
                             Type *PtrTy) {
  Node N;
  N.Kind = NodeKind::Global;
  N.Ty = PtrTy;
  N.Str = Name;
  N.IntVal = IsConstant ? 1 : 0;
  return intern(std::move(N));
}

NodeId ValueGraph::getParam(unsigned Index, Type *Ty) {
  Node N;
  N.Kind = NodeKind::Param;
  N.Ty = Ty;
  N.IntVal = Index;
  return intern(std::move(N));
}

NodeId ValueGraph::getInitialMem() {
  Node N;
  N.Kind = NodeKind::InitialMem;
  return intern(std::move(N));
}

NodeId ValueGraph::getOp(Opcode Op, Type *Ty, std::vector<NodeId> Operands,
                         uint8_t Pred, int64_t Extra) {
  Node N;
  N.Kind = NodeKind::Op;
  N.Op = Op;
  N.Pred = Pred;
  N.Ty = Ty;
  N.IntVal = Extra;
  N.Ops = std::move(Operands);
  if (isCommutativeOp(Op) && N.Ops.size() == 2) {
    NodeId A = find(N.Ops[0]), B = find(N.Ops[1]);
    if (B < A)
      std::swap(N.Ops[0], N.Ops[1]);
  }
  return intern(std::move(N));
}

NodeId ValueGraph::getGamma(Type *Ty,
                            std::vector<std::pair<NodeId, NodeId>> Branches) {
  assert(!Branches.empty() && "gamma with no branches");
  for (auto &[C, V] : Branches) {
    C = find(C);
    V = find(V);
  }
  std::sort(Branches.begin(), Branches.end());
  Node N;
  N.Kind = NodeKind::Gamma;
  N.Ty = Ty;
  for (auto &[C, V] : Branches) {
    N.Ops.push_back(C);
    N.Ops.push_back(V);
  }
  return intern(std::move(N));
}

NodeId ValueGraph::getEta(Type *Ty, NodeId StayCond, NodeId Value) {
  Node N;
  N.Kind = NodeKind::Eta;
  N.Ty = Ty;
  N.Ops = {StayCond, Value};
  return intern(std::move(N));
}

NodeId ValueGraph::makeMu(Type *Ty) {
  Node N;
  N.Kind = NodeKind::Mu;
  N.Ty = Ty;
  N.Ops = {InvalidNode, InvalidNode};
  NodeId Id = static_cast<NodeId>(Nodes.size());
  HeadHashes.push_back(hashNodeHead(N));
  Nodes.push_back(std::move(N));
  Parent.push_back(Id);
  return Id; // deliberately not hash-consed
}

void ValueGraph::setMuOperands(NodeId Mu, NodeId Init, NodeId Next) {
  Node &N = Nodes[find(Mu)];
  assert(N.Kind == NodeKind::Mu && "not a mu node");
  N.Ops[0] = find(Init);
  N.Ops[1] = find(Next);
}

NodeId ValueGraph::getAlloc(NodeId Count, NodeId MemIn, unsigned ElemSize) {
  Node N;
  N.Kind = NodeKind::Alloc;
  N.IntVal = ElemSize;
  N.Ops = {Count, MemIn};
  return intern(std::move(N));
}

NodeId ValueGraph::getAllocMem(NodeId Alloc) {
  Node N;
  N.Kind = NodeKind::AllocMem;
  N.Ops = {Alloc};
  return intern(std::move(N));
}

NodeId ValueGraph::getLoad(Type *Ty, NodeId Ptr, NodeId Mem) {
  Node N;
  N.Kind = NodeKind::Load;
  N.Ty = Ty;
  N.Ops = {Ptr, Mem};
  return intern(std::move(N));
}

NodeId ValueGraph::getStore(NodeId Value, NodeId Ptr, NodeId Mem) {
  Node N;
  N.Kind = NodeKind::Store;
  N.Ops = {Value, Ptr, Mem};
  return intern(std::move(N));
}

NodeId ValueGraph::getCall(const std::string &Callee, MemoryEffect Effect,
                           Type *RetTy, std::vector<NodeId> ArgsAndMem) {
  Node N;
  N.Kind = NodeKind::Call;
  N.Ty = RetTy;
  N.Str = Callee;
  N.IntVal = static_cast<int64_t>(Effect);
  N.Ops = std::move(ArgsAndMem);
  return intern(std::move(N));
}

NodeId ValueGraph::getCallMem(NodeId Call) {
  Node N;
  N.Kind = NodeKind::CallMem;
  N.Ops = {Call};
  return intern(std::move(N));
}

NodeId ValueGraph::getRet(NodeId ValueOrInvalid, NodeId Mem) {
  Node N;
  N.Kind = NodeKind::Ret;
  if (ValueOrInvalid != InvalidNode)
    N.Ops = {ValueOrInvalid, Mem};
  else
    N.Ops = {Mem};
  return intern(std::move(N));
}

//===----------------------------------------------------------------------===//
// Sharing maximization
//===----------------------------------------------------------------------===//
//
// One maximizeSharing call indexes the graph once — the users of every
// class, linked per class — and from then on works in proportion to what
// merges. A merge splices the loser's user list onto the winner's and queues
// those users, whose canonical keys may have changed; congruence re-probes
// only queued roots (egg-style deferred rebuilding, Willsey et al., POPL
// 2021). Congruence and partition refinement keep the earlier root of each
// merge, so each class ends with the representative a rescan of the whole
// graph in id order would pick.

namespace {

constexpr uint32_t NoUse = ~uint32_t(0);

size_t tableCapacity(size_t Items) {
  size_t Cap = 64;
  while (Cap < 2 * Items)
    Cap *= 2;
  return Cap;
}

} // namespace

/// Working state of one maximizeSharing call.
struct ValueGraph::SharingState {
  explicit SharingState(const ValueGraph &G);

  /// The roots that use each class, as a singly linked list of use records
  /// per class root: UseHead[C] .. UseTail[C], chained through UseNext.
  std::vector<uint32_t> UseHead, UseTail, UseNext;
  std::vector<NodeId> UseUser;
  /// μ roots when the call began, ascending.
  std::vector<NodeId> Mus;

  /// Congruence memo: open-addressed multimap from a root's canonical hash
  /// to the root. An entry goes stale when its node stops being a root or
  /// its key changes; probes skip stale entries, and a root whose key
  /// changed is queued and re-inserted when it is repaired.
  std::vector<uint64_t> MemoHash;
  std::vector<NodeId> MemoNode;
  size_t MemoCount = 0;
  bool Seeded = false;

  /// Roots to re-canonicalize and re-probe: users of merged-away classes.
  std::vector<NodeId> Dirty;
  std::vector<uint8_t> Queued;

  void memoInsert(const ValueGraph &G, uint64_t H, NodeId Id);
};

ValueGraph::SharingState::SharingState(const ValueGraph &G) {
  const NodeId N = static_cast<NodeId>(G.Nodes.size());
  UseHead.assign(N, NoUse);
  UseTail.assign(N, NoUse);
  Queued.assign(N, 0);
  size_t Roots = 0;
  for (NodeId U = 0; U < N; ++U) {
    if (G.find(U) != U)
      continue;
    ++Roots;
    const Node &Nd = G.Nodes[U];
    if (Nd.Kind == NodeKind::Mu)
      Mus.push_back(U);
    for (NodeId Op : Nd.Ops) {
      if (Op == InvalidNode)
        continue;
      NodeId C = G.find(Op);
      uint32_t Use = static_cast<uint32_t>(UseUser.size());
      UseUser.push_back(U);
      UseNext.push_back(NoUse);
      if (UseHead[C] == NoUse)
        UseHead[C] = Use;
      else
        UseNext[UseTail[C]] = Use;
      UseTail[C] = Use;
    }
  }
  MemoHash.resize(tableCapacity(Roots));
  MemoNode.assign(MemoHash.size(), InvalidNode);
}

void ValueGraph::SharingState::memoInsert(const ValueGraph &G, uint64_t H,
                                          NodeId Id) {
  if (2 * (MemoCount + 1) > MemoNode.size()) {
    // Grow, dropping entries whose node is no longer a root.
    std::vector<uint64_t> Hashes = std::move(MemoHash);
    std::vector<NodeId> Ids = std::move(MemoNode);
    MemoHash.assign(tableCapacity(2 * (MemoCount + 1)), 0);
    MemoNode.assign(MemoHash.size(), InvalidNode);
    MemoCount = 0;
    for (size_t Slot = 0; Slot != Ids.size(); ++Slot)
      if (Ids[Slot] != InvalidNode && G.find(Ids[Slot]) == Ids[Slot])
        memoInsert(G, Hashes[Slot], Ids[Slot]);
  }
  const size_t Mask = MemoNode.size() - 1;
  size_t Slot = H & Mask;
  while (MemoNode[Slot] != InvalidNode)
    Slot = (Slot + 1) & Mask;
  MemoHash[Slot] = H;
  MemoNode[Slot] = Id;
  ++MemoCount;
}

bool ValueGraph::shareMerge(SharingState &S, NodeId From, NodeId Into) {
  NodeId Loser = find(From), Winner = find(Into);
  if (!mergeInto(Loser, Winner))
    return false;
  // The users of the merged-away class now name a different operand root:
  // their canonical order and key may have changed.
  for (uint32_t U = S.UseHead[Loser]; U != NoUse; U = S.UseNext[U]) {
    NodeId User = S.UseUser[U];
    if (!S.Queued[User] && Nodes[User].Kind != NodeKind::Mu) {
      S.Queued[User] = 1;
      S.Dirty.push_back(User);
    }
  }
  if (S.UseHead[Loser] != NoUse) {
    if (S.UseHead[Winner] == NoUse)
      S.UseHead[Winner] = S.UseHead[Loser];
    else
      S.UseNext[S.UseTail[Winner]] = S.UseHead[Loser];
    S.UseTail[Winner] = S.UseTail[Loser];
  }
  return true;
}

void ValueGraph::canonicalizeNode(NodeId Id) {
  Node &N = Nodes[Id];
  if (N.Kind == NodeKind::Gamma) {
    std::vector<NodeId> &Ops = N.Ops;
    for (NodeId &Op : Ops)
      Op = find(Op);
    // Insertion sort of the (cond, value) pairs: γs have few branches.
    for (size_t I = 2; I + 1 < Ops.size(); I += 2)
      for (size_t J = I; J >= 2 && std::make_pair(Ops[J], Ops[J + 1]) <
                                       std::make_pair(Ops[J - 2], Ops[J - 1]);
           J -= 2) {
        std::swap(Ops[J], Ops[J - 2]);
        std::swap(Ops[J + 1], Ops[J - 1]);
      }
    return;
  }
  if (N.Kind == NodeKind::Op && isCommutativeOp(N.Op) && N.Ops.size() == 2) {
    NodeId A = find(N.Ops[0]), B = find(N.Ops[1]);
    if (B < A)
      std::swap(A, B);
    N.Ops[0] = A;
    N.Ops[1] = B;
  }
}

unsigned ValueGraph::repairRoot(SharingState &S, NodeId Id) {
  if (Nodes[Id].Kind == NodeKind::Mu)
    return 0; // cycles are unification's and partitioning's business
  canonicalizeNode(Id);
  const Node &N = Nodes[Id];
  uint64_t H = HeadHashes[Id];
  for (NodeId Op : N.Ops)
    H = hashCombine(H, find(Op));

  const size_t Mask = S.MemoNode.size() - 1;
  for (size_t Slot = H & Mask; S.MemoNode[Slot] != InvalidNode;
       Slot = (Slot + 1) & Mask) {
    NodeId C = S.MemoNode[Slot];
    if (S.MemoHash[Slot] != H || C == Id || find(C) != C)
      continue;
    const Node &NC = Nodes[C];
    if (!scalarFieldsEqual(NC, N) || NC.Ops.size() != N.Ops.size())
      continue;
    bool Congruent = true;
    for (size_t K = 0, E = N.Ops.size(); K != E && Congruent; ++K)
      Congruent = find(NC.Ops[K]) == find(N.Ops[K]);
    if (!Congruent)
      continue;
    shareMerge(S, std::max(C, Id), std::min(C, Id));
    if (C > Id) // Id survives under the key C was filed with
      S.memoInsert(*this, H, Id);
    return 1;
  }
  S.memoInsert(*this, H, Id);
  return 0;
}

unsigned ValueGraph::congruencePass(SharingState &S) {
  unsigned Merges = 0;
  if (!S.Seeded) {
    // Hash every root once, in id order.
    S.Seeded = true;
    for (NodeId I = 0; I < Nodes.size(); ++I)
      if (find(I) == I && !S.Queued[I])
        Merges += repairRoot(S, I);
  }
  while (!S.Dirty.empty()) {
    NodeId Id = S.Dirty.back();
    S.Dirty.pop_back();
    S.Queued[Id] = 0;
    if (find(Id) == Id)
      Merges += repairRoot(S, Id);
  }
  return Merges;
}

unsigned ValueGraph::muUnificationPass(SharingState &S) {
  // μ roots in deterministic (id) order.
  std::vector<NodeId> Mus;
  for (NodeId M : S.Mus)
    if (find(M) == M)
      Mus.push_back(M);

  unsigned Merges = 0;
  for (unsigned A = 0; A < Mus.size(); ++A) {
    for (unsigned B = A + 1; B < Mus.size(); ++B) {
      NodeId X = find(Mus[A]), Y = find(Mus[B]);
      if (X == Y)
        continue;
      const Node &NX = Nodes[X], &NY = Nodes[Y];
      if (NX.Ty != NY.Ty)
        continue;
      if (NX.Ops[0] == InvalidNode || NY.Ops[0] == InvalidNode)
        continue;
      if (find(NX.Ops[0]) != find(NY.Ops[0]))
        continue; // same initial value required
      // Parallel unification under the assumption X == Y.
      std::set<std::pair<NodeId, NodeId>> Assumed;
      if (unify(X, Y, Assumed, 0)) {
        for (auto &[P, Q] : Assumed)
          Merges += shareMerge(S, std::max(P, Q), std::min(P, Q));
      }
    }
  }
  return Merges;
}

bool ValueGraph::unify(NodeId X, NodeId Y,
                       std::set<std::pair<NodeId, NodeId>> &Assumed,
                       unsigned Depth) const {
  if (Depth > 4096)
    return false;
  X = find(X);
  Y = find(Y);
  if (X == Y)
    return true;
  auto Pair = std::minmax(X, Y);
  if (Assumed.count({Pair.first, Pair.second}))
    return true;
  const Node &NX = Nodes[X], &NY = Nodes[Y];
  if (NX.Kind != NY.Kind || NX.Op != NY.Op || NX.Pred != NY.Pred ||
      NX.Ty != NY.Ty || NX.IntVal != NY.IntVal || NX.Str != NY.Str ||
      NX.Ops.size() != NY.Ops.size())
    return false;
  uint64_t BX, BY;
  std::memcpy(&BX, &NX.FloatVal, sizeof(BX));
  std::memcpy(&BY, &NY.FloatVal, sizeof(BY));
  if (BX != BY)
    return false;
  Assumed.insert({Pair.first, Pair.second});
  // Commutative operators need the prolog-style backtracking the paper
  // mentions (§5.4): the two orderings may differ before merging.
  if (NX.Kind == NodeKind::Op && isCommutativeOp(NX.Op) &&
      NX.Ops.size() == 2) {
    {
      std::set<std::pair<NodeId, NodeId>> Copy = Assumed;
      if (unify(NX.Ops[0], NY.Ops[0], Copy, Depth + 1) &&
          unify(NX.Ops[1], NY.Ops[1], Copy, Depth + 1)) {
        Assumed = std::move(Copy);
        return true;
      }
    }
    std::set<std::pair<NodeId, NodeId>> Copy = Assumed;
    if (unify(NX.Ops[0], NY.Ops[1], Copy, Depth + 1) &&
        unify(NX.Ops[1], NY.Ops[0], Copy, Depth + 1)) {
      Assumed = std::move(Copy);
      return true;
    }
    return false;
  }
  for (unsigned I = 0, E = NX.Ops.size(); I != E; ++I) {
    if (NX.Ops[I] == InvalidNode || NY.Ops[I] == InvalidNode)
      return NX.Ops[I] == NY.Ops[I];
    if (!unify(NX.Ops[I], NY.Ops[I], Assumed, Depth + 1))
      return false;
  }
  return true;
}

unsigned ValueGraph::partitionRefinementPass(SharingState &S) {
  // Precondition: the graph is at a congruence fixpoint, and every cycle
  // passes through a μ (μ nodes are the graph's only cycle breakers). Then
  // a root that reaches no μ is its own bisimulation class, by induction on
  // height: a root bisimilar to it has the same head and, positionally, the
  // same operand roots, so the two are congruent and therefore one root.
  // Only the roots that reach a μ are refined; every other root is a fixed
  // singleton class. They are found by walking the use lists backwards
  // from the μ roots. (Were a cycle to avoid every μ, its roots would just
  // stay unmerged: merging less is never unsound.)
  std::vector<uint32_t> Pos(Nodes.size(), ~0u);
  std::vector<NodeId> Refined;
  for (NodeId M : S.Mus)
    if (find(M) == M) {
      Pos[M] = 0;
      Refined.push_back(M);
    }
  for (size_t K = 0; K < Refined.size(); ++K)
    for (uint32_t U = S.UseHead[Refined[K]]; U != NoUse; U = S.UseNext[U]) {
      NodeId R = find(S.UseUser[U]);
      if (Pos[R] == ~0u) {
        Pos[R] = 0;
        Refined.push_back(R);
      }
    }
  if (Refined.empty())
    return 0;
  std::sort(Refined.begin(), Refined.end());
  const uint32_t NR = static_cast<uint32_t>(Refined.size());
  for (uint32_t K = 0; K != NR; ++K)
    Pos[Refined[K]] = K;

  // Flat signatures, reused by every round: root K's signature is
  // Sig[SigBegin[K] .. SigBegin[K + 1]) = (its class, its operands'
  // classes). Operand slots are resolved once into OpRef: a refined root
  // by its position (< 2^32, looked up in Class each round), any other
  // root by a fixed code above 2^32, a missing μ operand by ~0.
  std::vector<size_t> SigBegin(NR + 1, 0);
  for (uint32_t K = 0; K != NR; ++K)
    SigBegin[K + 1] = SigBegin[K] + 1 + Nodes[Refined[K]].Ops.size();
  std::vector<uint64_t> OpRef(SigBegin[NR]), Sig(SigBegin[NR]);
  for (uint32_t K = 0; K != NR; ++K) {
    const std::vector<NodeId> &Ops = Nodes[Refined[K]].Ops;
    for (size_t I = 0; I != Ops.size(); ++I) {
      uint64_t &Ref = OpRef[SigBegin[K] + 1 + I];
      if (Ops[I] == InvalidNode) {
        Ref = ~uint64_t(0);
        continue;
      }
      NodeId R = find(Ops[I]);
      Ref = Pos[R] != ~0u ? Pos[R] : (uint64_t(1) << 32) | R;
    }
  }

  // Class ids are assigned first-seen in id order; each class is found by
  // hash through an open-addressed table of its first member.
  std::vector<unsigned> Class(NR), NewClass(NR);
  std::vector<uint64_t> Hash(NR);
  std::vector<uint32_t> Table(tableCapacity(NR));
  const size_t Mask = Table.size() - 1;
  auto Classify = [&](auto Equal) {
    std::fill(Table.begin(), Table.end(), ~0u);
    unsigned Count = 0;
    for (uint32_t K = 0; K != NR; ++K) {
      size_t Slot = Hash[K] & Mask;
      while (true) {
        uint32_t Rep = Table[Slot];
        if (Rep == ~0u) {
          Table[Slot] = K;
          NewClass[K] = Count++;
          break;
        }
        if (Hash[Rep] == Hash[K] && Equal(Rep, K)) {
          NewClass[K] = NewClass[Rep];
          break;
        }
        Slot = (Slot + 1) & Mask;
      }
    }
    return Count;
  };

  // Initial partition: head payload (kind, op, pred, type, scalars, arity).
  for (uint32_t K = 0; K != NR; ++K)
    Hash[K] = HeadHashes[Refined[K]];
  unsigned NumClasses = Classify([&](uint32_t A, uint32_t B) {
    const Node &NA = Nodes[Refined[A]], &NB = Nodes[Refined[B]];
    return scalarFieldsEqual(NA, NB) && NA.Ops.size() == NB.Ops.size();
  });
  Class.swap(NewClass);

  // Refine until stable: split classes by the classes of their operands.
  // Each new class is a subset of an old one (the signature leads with the
  // old class), so the partition is stable exactly when the class count
  // stops growing.
  while (true) {
    for (uint32_t K = 0; K != NR; ++K) {
      size_t B = SigBegin[K], E = SigBegin[K + 1];
      Sig[B] = Class[K];
      for (size_t I = B + 1; I != E; ++I)
        Sig[I] = OpRef[I] < (uint64_t(1) << 32) ? Class[OpRef[I]] : OpRef[I];
      uint64_t H = hashCombine(0x9e3779b9, E - B);
      for (size_t I = B; I != E; ++I)
        H = hashCombine(H, Sig[I]);
      Hash[K] = H;
    }
    unsigned NewCount = Classify([&](uint32_t A, uint32_t B) {
      const uint64_t *Base = Sig.data();
      return std::equal(Base + SigBegin[A], Base + SigBegin[A + 1],
                        Base + SigBegin[B], Base + SigBegin[B + 1]);
    });
    bool Stable = NewCount == NumClasses;
    Class.swap(NewClass);
    NumClasses = NewCount;
    if (Stable)
      break;
  }

  // Merge same-class roots into the class's smallest id.
  unsigned Merges = 0;
  std::vector<NodeId> Leader(NumClasses, InvalidNode);
  for (uint32_t K = 0; K != NR; ++K) {
    NodeId &L = Leader[Class[K]];
    if (L == InvalidNode) {
      L = Refined[K];
    } else {
      shareMerge(S, Refined[K], L);
      ++Merges;
    }
  }
  return Merges;
}

unsigned ValueGraph::simpleRounds(SharingState &S) {
  unsigned Total = 0;
  while (true) {
    unsigned Merges = congruencePass(S) + muUnificationPass(S);
    Total += Merges;
    if (Merges == 0)
      return Total;
  }
}

unsigned ValueGraph::maximizeSharing(SharingStrategy Strategy) {
  SharingState S(*this);
  unsigned Total = 0;
  switch (Strategy) {
  case SharingStrategy::Simple:
    return simpleRounds(S);
  case SharingStrategy::Partition:
    Total += congruencePass(S);
    Total += partitionRefinementPass(S);
    Total += congruencePass(S);
    return Total;
  case SharingStrategy::Combined:
    Total += simpleRounds(S);
    Total += partitionRefinementPass(S);
    Total += congruencePass(S);
    return Total;
  }
  return Total;
}

//===----------------------------------------------------------------------===//
// Cone queries
//===----------------------------------------------------------------------===//

bool ValueGraph::coneContainsMu(NodeId Id) const {
  std::set<NodeId> Seen;
  std::vector<NodeId> Work{find(Id)};
  while (!Work.empty()) {
    NodeId N = Work.back();
    Work.pop_back();
    if (!Seen.insert(N).second)
      continue;
    const Node &Nd = Nodes[N];
    if (Nd.Kind == NodeKind::Mu)
      return true;
    for (NodeId Op : Nd.Ops)
      if (Op != InvalidNode)
        Work.push_back(find(Op));
  }
  return false;
}

bool ValueGraph::isNonEscapingAlloc(NodeId Alloc) const {
  // Pointers *derived* from the allocation (GEPs, and γ/μ/η selections that
  // may yield it) are tracked transitively; the allocation escapes when any
  // derived pointer is stored as a value, passed to a call, or returned.
  std::set<NodeId> Derived{find(Alloc)};
  std::vector<NodeId> Work{find(Alloc)};
  auto Derive = [&](NodeId N) {
    if (Derived.insert(N).second)
      Work.push_back(N);
  };
  while (!Work.empty()) {
    NodeId Target = Work.back();
    Work.pop_back();
    for (NodeId I = 0; I < Nodes.size(); ++I) {
      if (find(I) != I)
        continue;
      const Node &N = Nodes[I];
      for (unsigned K = 0, E = N.Ops.size(); K != E; ++K) {
        if (N.Ops[K] == InvalidNode || find(N.Ops[K]) != Target)
          continue;
        switch (N.Kind) {
        case NodeKind::Load:
          if (K != 0)
            return false; // used as a memory state?! treat as escape
          break;
        case NodeKind::Store:
          if (K != 1)
            return false; // stored as a value: escapes
          break;
        case NodeKind::AllocMem:
          break;
        case NodeKind::Op:
          if (N.Op == Opcode::GEP && K == 0) {
            Derive(I);
            break;
          }
          if (N.Op == Opcode::ICmp)
            break; // address comparisons do not publish the pointer
          return false;
        case NodeKind::Gamma:
          // The γ result may be this pointer; track it. Condition slots
          // (even indices) cannot hold a pointer.
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
          return false; // calls, returns, anything else: escape
        }
      }
    }
  }
  return true;
}

std::string ValueGraph::dumpDot(const std::vector<NodeId> &Roots) const {
  std::set<NodeId> Seen;
  std::vector<NodeId> Work;
  for (NodeId R : Roots)
    Work.push_back(find(R));
  std::ostringstream OS;
  OS << "digraph valuegraph {\n  node [shape=box, fontname=\"monospace\"];\n";
  std::vector<std::pair<NodeId, unsigned>> Edges; // (from, operand index)
  while (!Work.empty()) {
    NodeId N = Work.back();
    Work.pop_back();
    if (!Seen.insert(N).second)
      continue;
    const Node &Nd = Nodes[N];
    std::string Label;
    switch (Nd.Kind) {
    case NodeKind::ConstInt:
      Label = std::to_string(Nd.IntVal);
      break;
    case NodeKind::ConstFloat: {
      std::ostringstream FS;
      FS << Nd.FloatVal;
      Label = FS.str();
      break;
    }
    case NodeKind::Param:
      Label = "param" + std::to_string(Nd.IntVal);
      break;
    case NodeKind::Global:
      Label = "@" + Nd.Str;
      break;
    case NodeKind::Op:
      Label = llvmmd::getOpcodeName(Nd.Op);
      if (Nd.Op == Opcode::ICmp)
        Label += std::string(".") + getPredName(static_cast<ICmpPred>(Nd.Pred));
      break;
    case NodeKind::Gamma:
      Label = "\xce\xb3"; // γ
      break;
    case NodeKind::Mu:
      Label = "\xce\xbc"; // μ
      break;
    case NodeKind::Eta:
      Label = "\xce\xb7"; // η
      break;
    case NodeKind::Call:
      Label = "call " + Nd.Str;
      break;
    default:
      Label = getNodeKindName(Nd.Kind);
      break;
    }
    OS << "  n" << N << " [label=\"n" << N << ": " << Label << "\"";
    if (Nd.Kind == NodeKind::Mu || Nd.Kind == NodeKind::Eta ||
        Nd.Kind == NodeKind::Gamma)
      OS << ", style=rounded";
    OS << "];\n";
    for (unsigned K = 0; K < Nd.Ops.size(); ++K) {
      if (Nd.Ops[K] == InvalidNode)
        continue;
      NodeId Op = find(Nd.Ops[K]);
      // Dashed edges for memory-typed operands (null type), matching the
      // paper's figure style for state edges.
      bool Mem = Nodes[Op].Ty == nullptr;
      OS << "  n" << N << " -> n" << Op;
      if (Mem)
        OS << " [style=dashed]";
      else if (Nd.Kind == NodeKind::Mu)
        OS << " [label=\"" << (K == 0 ? "i" : "next") << "\"]";
      OS << ";\n";
      Work.push_back(Op);
    }
  }
  OS << "}\n";
  return OS.str();
}

namespace {

/// Decomposes a pointer node into (base root, constant byte offset) through
/// GEP chains; Known=false when an index is not a constant.
struct VGDecomposed {
  NodeId Base;
  int64_t Offset;
  bool Known;
};

VGDecomposed decomposeVG(const ValueGraph &G, NodeId P) {
  VGDecomposed D{G.find(P), 0, true};
  while (true) {
    const Node &N = G.node(D.Base);
    if (N.Kind == NodeKind::Op && N.Op == Opcode::GEP) {
      NodeId Idx = G.find(N.Ops[1]);
      const Node &NI = G.node(Idx);
      if (NI.Kind == NodeKind::ConstInt)
        D.Offset += NI.IntVal * N.IntVal; // IntVal of GEP = elem size
      else
        D.Known = false;
      D.Base = G.find(N.Ops[0]);
      continue;
    }
    return D;
  }
}

bool isIdentifiedVG(const Node &N) {
  return N.Kind == NodeKind::Alloc || N.Kind == NodeKind::Global;
}

/// All bases a pointer may resolve to, following GEPs and the selecting
/// structure (γ branches, μ streams, η values). Returns false when the set
/// is unbounded or contains something unanalyzable.
bool possibleBases(const ValueGraph &G, NodeId P, std::set<NodeId> &Out) {
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

} // namespace

std::string ValueGraph::dump(const std::vector<NodeId> &Roots) const {
  std::set<NodeId> Seen;
  std::vector<NodeId> Work;
  for (NodeId R : Roots)
    Work.push_back(find(R));
  std::ostringstream OS;
  while (!Work.empty()) {
    NodeId N = Work.back();
    Work.pop_back();
    if (!Seen.insert(N).second)
      continue;
    const Node &Nd = Nodes[N];
    OS << 'n' << N << " = " << getNodeKindName(Nd.Kind);
    if (Nd.Kind == NodeKind::Op) {
      OS << '.' << getOpcodeName(Nd.Op);
      if (Nd.Op == Opcode::ICmp)
        OS << '.' << getPredName(static_cast<ICmpPred>(Nd.Pred));
      if (Nd.Op == Opcode::FCmp)
        OS << '.' << getPredName(static_cast<FCmpPred>(Nd.Pred));
    }
    if (Nd.Kind == NodeKind::ConstInt || Nd.Kind == NodeKind::Param)
      OS << ' ' << Nd.IntVal;
    if (Nd.Kind == NodeKind::ConstFloat)
      OS << ' ' << Nd.FloatVal;
    if (!Nd.Str.empty())
      OS << " @" << Nd.Str;
    if (Nd.Ty)
      OS << " : " << Nd.Ty->getName();
    OS << " (";
    for (unsigned K = 0; K < Nd.Ops.size(); ++K) {
      if (K)
        OS << ", ";
      if (Nd.Ops[K] == InvalidNode) {
        OS << "<invalid>";
        continue;
      }
      NodeId Op = find(Nd.Ops[K]);
      OS << 'n' << Op;
      Work.push_back(Op);
    }
    OS << ")\n";
  }
  return OS.str();
}

int ValueGraph::aliasPointers(NodeId P, NodeId Q, unsigned SizeP,
                              unsigned SizeQ) const {
  P = find(P);
  Q = find(Q);
  if (P == Q)
    return 2;
  VGDecomposed A = decomposeVG(*this, P);
  VGDecomposed B = decomposeVG(*this, Q);
  if (A.Base == B.Base) {
    if (!A.Known || !B.Known)
      return 1;
    if (A.Offset == B.Offset)
      return 2;
    if (A.Offset + static_cast<int64_t>(SizeP) <= B.Offset ||
        B.Offset + static_cast<int64_t>(SizeQ) <= A.Offset)
      return 0;
    return 1;
  }
  // Different bases: NoAlias only if every possible base of one side is
  // provably distinct from every possible base of the other. γ/μ/η nodes
  // may *select* an allocation, so the non-escaping rule must look through
  // them rather than treat them as fresh objects.
  std::set<NodeId> BasesA, BasesB;
  if (!possibleBases(*this, A.Base, BasesA) ||
      !possibleBases(*this, B.Base, BasesB))
    return 1;
  for (NodeId PA : BasesA) {
    for (NodeId PB : BasesB) {
      if (PA == PB)
        return 1; // may be the same object (offsets unknown here)
      const Node &NA = node(PA);
      const Node &NB = node(PB);
      if (isIdentifiedVG(NA) && isIdentifiedVG(NB))
        continue; // distinct allocations / globals
      if ((NA.Kind == NodeKind::Alloc && isNonEscapingAlloc(PA)) ||
          (NB.Kind == NodeKind::Alloc && isNonEscapingAlloc(PB)))
        continue;
      return 1;
    }
  }
  return 0;
}
