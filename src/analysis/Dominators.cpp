//===- Dominators.cpp - Dominator tree ---------------------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "analysis/Dominators.h"

#include "analysis/CFG.h"
#include "ir/Function.h"

using namespace llvmmd;

const std::vector<BasicBlock *> DominatorTree::Empty;

DominatorTree::DominatorTree(const Function &F) {
  RPO = computeRPO(F);
  if (RPO.empty())
    return;
  const unsigned N = static_cast<unsigned>(RPO.size());
  Index.reserve(N);
  for (unsigned I = 0; I != N; ++I)
    Index[RPO[I]] = I;

  // Predecessor index, in one pass over the function's blocks in order, so
  // each list comes out in function block order with `br %c, %x, %x`
  // counted once — what BasicBlock::predecessors() returns. PredIdx holds
  // each predecessor's RPO index (-1 when unreachable) for the fixpoint.
  struct Edge {
    unsigned To;
    int FromIdx;
    BasicBlock *From;
  };
  std::vector<Edge> Edges;
  for (BasicBlock *BB : F.blocks()) {
    SuccessorRange Succs = BB->successors();
    int FromIdx = static_cast<int>(getRPOIndex(BB));
    for (unsigned K = 0, E = Succs.size(); K != E; ++K) {
      if (K == 1 && Succs[1] == Succs[0])
        continue;
      unsigned To = getRPOIndex(Succs[K]);
      if (To != ~0u)
        Edges.push_back({To, FromIdx, BB});
    }
  }
  PredBegin.assign(N + 1, 0);
  for (const Edge &E : Edges)
    ++PredBegin[E.To + 1];
  for (unsigned I = 0; I != N; ++I)
    PredBegin[I + 1] += PredBegin[I];
  Preds.resize(Edges.size());
  std::vector<int> PredIdx(Edges.size());
  std::vector<unsigned> Fill(PredBegin.begin(), PredBegin.end() - 1);
  for (const Edge &E : Edges) {
    unsigned Slot = Fill[E.To]++;
    Preds[Slot] = E.From;
    PredIdx[Slot] = E.FromIdx;
  }

  // Cooper-Harvey-Kennedy: iterate to fixpoint over RPO.
  std::vector<int> IDom(N, -1);
  IDom[0] = 0;
  auto Intersect = [&](int A, int B) {
    while (A != B) {
      while (A > B)
        A = IDom[A];
      while (B > A)
        B = IDom[B];
    }
    return A;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned I = 1; I != N; ++I) {
      int NewIDom = -1;
      for (unsigned K = PredBegin[I], E = PredBegin[I + 1]; K != E; ++K) {
        int P = PredIdx[K];
        if (P < 0)
          continue; // unreachable predecessor
        if (IDom[P] < 0)
          continue; // not yet processed
        NewIDom = NewIDom < 0 ? P : Intersect(NewIDom, P);
      }
      if (NewIDom >= 0 && IDom[I] != NewIDom) {
        IDom[I] = NewIDom;
        Changed = true;
      }
    }
  }

  Nodes.resize(N);
  for (unsigned I = 1; I != N; ++I) {
    Nodes[I].IDom = RPO[IDom[I]];
    Nodes[IDom[I]].Children.push_back(RPO[I]);
  }

  // DFS numbering for O(1) dominance queries.
  unsigned Clock = 0;
  struct Frame {
    unsigned Idx;
    size_t Next = 0;
  };
  std::vector<Frame> Stack{{0, 0}};
  Nodes[0].DFSIn = Clock++;
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    NodeInfo &Info = Nodes[Top.Idx];
    if (Top.Next < Info.Children.size()) {
      unsigned Child = Index.find(Info.Children[Top.Next++])->second;
      Nodes[Child].DFSIn = Clock++;
      Stack.push_back({Child, 0});
      continue;
    }
    Info.DFSOut = Clock++;
    Stack.pop_back();
  }
}

BlockRange DominatorTree::predecessors(const BasicBlock *BB) const {
  unsigned I = getRPOIndex(BB);
  if (I == ~0u)
    return {};
  return {Preds.data() + PredBegin[I], Preds.data() + PredBegin[I + 1]};
}

BasicBlock *DominatorTree::getIDom(const BasicBlock *BB) const {
  unsigned I = getRPOIndex(BB);
  return I == ~0u ? nullptr : Nodes[I].IDom;
}

bool DominatorTree::dominates(const BasicBlock *A, const BasicBlock *B) const {
  unsigned IA = getRPOIndex(A), IB = getRPOIndex(B);
  if (IA == ~0u || IB == ~0u)
    return false;
  return Nodes[IA].DFSIn <= Nodes[IB].DFSIn &&
         Nodes[IB].DFSOut <= Nodes[IA].DFSOut;
}

const std::vector<BasicBlock *> &
DominatorTree::getChildren(const BasicBlock *BB) const {
  unsigned I = getRPOIndex(BB);
  return I == ~0u ? Empty : Nodes[I].Children;
}

std::vector<BasicBlock *> DominatorTree::preorder() const {
  std::vector<BasicBlock *> Out;
  if (RPO.empty())
    return Out;
  std::vector<BasicBlock *> Stack{RPO[0]};
  while (!Stack.empty()) {
    BasicBlock *BB = Stack.back();
    Stack.pop_back();
    Out.push_back(BB);
    const auto &Kids = getChildren(BB);
    for (auto It = Kids.rbegin(); It != Kids.rend(); ++It)
      Stack.push_back(*It);
  }
  return Out;
}
