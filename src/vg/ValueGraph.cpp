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

uint64_t ValueGraph::hashNode(const Node &N) const {
  uint64_t H = hashNodeHead(N);
  for (NodeId Op : N.Ops)
    H = hashCombine(H, Op);
  return H;
}

bool ValueGraph::nodeEquals(const Node &A, const Node &B) {
  return scalarFieldsEqual(A, B) && A.Ops == B.Ops;
}

NodeId ValueGraph::intern(Node N) {
  // Canonicalize operand references before keying.
  for (NodeId &Op : N.Ops)
    Op = find(Op);
  std::vector<NodeId> &Bucket = HashCons[hashNode(N)];
  for (NodeId Candidate : Bucket)
    if (nodeEquals(Nodes[Candidate], N))
      return find(Candidate);
  NodeId Id = static_cast<NodeId>(Nodes.size());
  Nodes.push_back(std::move(N));
  Parent.push_back(Id);
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

unsigned ValueGraph::canonicalizeOrders() {
  unsigned Changed = 0;
  for (NodeId I = 0; I < Nodes.size(); ++I) {
    if (find(I) != I)
      continue;
    Node &N = Nodes[I];
    if (N.Kind == NodeKind::Gamma) {
      std::vector<std::pair<NodeId, NodeId>> Branches;
      for (unsigned K = 0; K + 1 < N.Ops.size(); K += 2)
        Branches.emplace_back(find(N.Ops[K]), find(N.Ops[K + 1]));
      std::sort(Branches.begin(), Branches.end());
      std::vector<NodeId> NewOps;
      for (auto &[C, V] : Branches) {
        NewOps.push_back(C);
        NewOps.push_back(V);
      }
      if (NewOps != N.Ops) {
        N.Ops = std::move(NewOps);
        ++Changed;
      }
      continue;
    }
    if (N.Kind == NodeKind::Op && isCommutativeOp(N.Op) && N.Ops.size() == 2) {
      NodeId A = find(N.Ops[0]), B = find(N.Ops[1]);
      if (B < A)
        std::swap(A, B);
      if (A != N.Ops[0] || B != N.Ops[1]) {
        N.Ops = {A, B};
        ++Changed;
      }
    }
  }
  return Changed;
}

unsigned ValueGraph::congruencePass() {
  // Keys must be recomputed over *current* union-find roots every iteration,
  // unlike the frozen hash-cons table; hence the local hash buckets with
  // root-canonicalized comparison.
  auto CanonicalEquals = [this](const Node &A, const Node &B) {
    if (!scalarFieldsEqual(A, B) || A.Ops.size() != B.Ops.size())
      return false;
    for (size_t I = 0, E = A.Ops.size(); I != E; ++I)
      if (find(A.Ops[I]) != find(B.Ops[I]))
        return false;
    return true;
  };

  unsigned Merges = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    canonicalizeOrders();
    std::unordered_map<uint64_t, std::vector<NodeId>> Tab;
    for (NodeId I = 0; I < Nodes.size(); ++I) {
      if (find(I) != I)
        continue;
      if (Nodes[I].Kind == NodeKind::Mu)
        continue; // cycles handled by unification/partitioning
      Node Probe = Nodes[I];
      for (NodeId &Op : Probe.Ops)
        Op = find(Op);
      std::vector<NodeId> &Bucket = Tab[hashNode(Probe)];
      bool Merged = false;
      for (NodeId Candidate : Bucket) {
        if (CanonicalEquals(Nodes[Candidate], Probe)) {
          mergeInto(I, Candidate); // keep the earlier (smaller) id
          ++Merges;
          Changed = true;
          Merged = true;
          break;
        }
      }
      if (!Merged)
        Bucket.push_back(I);
    }
  }
  return Merges;
}

unsigned ValueGraph::muUnificationPass() {
  // Gather μ roots in deterministic order.
  std::vector<NodeId> Mus;
  for (NodeId I = 0; I < Nodes.size(); ++I)
    if (find(I) == I && Nodes[I].Kind == NodeKind::Mu)
      Mus.push_back(I);

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
          Merges += mergeInto(std::max(P, Q), std::min(P, Q));
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

unsigned ValueGraph::partitionRefinementPass() {
  std::vector<NodeId> Roots;
  for (NodeId I = 0; I < Nodes.size(); ++I)
    if (find(I) == I)
      Roots.push_back(I);
  canonicalizeOrders();

  // Initial partition: head payload (kind, op, pred, type, scalars, arity),
  // bucketed by the same structural hash the hash-cons table and the
  // congruence pass use; collisions resolve by field equality. Class ids are
  // assigned first-seen in root (ascending NodeId) order, so the partition
  // is deterministic.
  std::vector<unsigned> Class(Nodes.size(), 0);
  unsigned NumClasses = 0;
  {
    std::unordered_map<uint64_t, std::vector<NodeId>> Heads;
    for (NodeId I : Roots) {
      const Node &N = Nodes[I];
      std::vector<NodeId> &Bucket = Heads[hashNodeHead(N)];
      bool Found = false;
      for (NodeId Rep : Bucket) {
        const Node &R = Nodes[Rep];
        if (scalarFieldsEqual(R, N) && R.Ops.size() == N.Ops.size()) {
          Class[I] = Class[Rep];
          Found = true;
          break;
        }
      }
      if (!Found) {
        Class[I] = NumClasses++;
        Bucket.push_back(I);
      }
    }
  }

  // Refine until stable: split classes by the class vector of their
  // operands. Signatures are hash-bucketed like the initial partition; each
  // new class is a subset of an old one (the signature leads with the old
  // class), so the partition is stable exactly when the class count stops
  // growing.
  while (true) {
    struct SigRep {
      const std::vector<unsigned> *Sig;
      unsigned Class;
    };
    std::unordered_map<uint64_t, std::vector<SigRep>> Sigs;
    std::vector<std::vector<unsigned>> SigStore(Roots.size());
    std::vector<unsigned> NewClass(Nodes.size(), 0);
    unsigned NewCount = 0;
    for (size_t RI = 0; RI < Roots.size(); ++RI) {
      NodeId I = Roots[RI];
      std::vector<unsigned> &Sig = SigStore[RI];
      Sig.push_back(Class[I]);
      for (NodeId Op : Nodes[I].Ops)
        Sig.push_back(Op == InvalidNode ? ~0u : Class[find(Op)]);
      uint64_t H = hashCombine(0x9e3779b9, Sig.size());
      for (unsigned S : Sig)
        H = hashCombine(H, S);
      std::vector<SigRep> &Bucket = Sigs[H];
      bool Found = false;
      for (const SigRep &Rep : Bucket) {
        if (*Rep.Sig == Sig) {
          NewClass[I] = Rep.Class;
          Found = true;
          break;
        }
      }
      if (!Found) {
        NewClass[I] = NewCount++;
        Bucket.push_back({&Sig, NewClass[I]});
      }
    }
    bool Stable = NewCount == NumClasses;
    Class = std::move(NewClass);
    NumClasses = NewCount;
    if (Stable)
      break;
  }

  // Merge same-class roots (into the smallest id for determinism).
  unsigned Merges = 0;
  std::vector<NodeId> Leader(NumClasses, InvalidNode);
  for (NodeId I : Roots) {
    NodeId &L = Leader[Class[I]];
    if (L == InvalidNode) {
      L = I;
    } else {
      mergeInto(I, L);
      ++Merges;
    }
  }
  return Merges;
}

unsigned ValueGraph::maximizeSharing(SharingStrategy Strategy) {
  unsigned Total = 0;
  switch (Strategy) {
  case SharingStrategy::Simple: {
    bool Changed = true;
    while (Changed) {
      Changed = false;
      unsigned C = congruencePass();
      unsigned M = muUnificationPass();
      Total += C + M;
      Changed = (C + M) > 0;
    }
    return Total;
  }
  case SharingStrategy::Partition: {
    Total += congruencePass();
    Total += partitionRefinementPass();
    Total += congruencePass();
    return Total;
  }
  case SharingStrategy::Combined: {
    Total += maximizeSharing(SharingStrategy::Simple);
    Total += partitionRefinementPass();
    Total += congruencePass();
    return Total;
  }
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
