//===- Dominators.cpp - Dominator tree ---------------------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "analysis/Dominators.h"

#include "analysis/CFG.h"
#include "ir/Function.h"

using namespace llvmmd;

namespace {

/// Fills \p Begin (N + 1 offsets) and \p Out so that the items of bucket I
/// are Out[Begin[I] .. Begin[I + 1]), each bucket in input order. \p Items
/// are (bucket, item) pairs.
template <typename T>
void bucketStable(unsigned N, const std::vector<std::pair<unsigned, T>> &Items,
                  std::vector<unsigned> &Begin, std::vector<T> &Out) {
  Begin.assign(N + 1, 0);
  for (const auto &It : Items)
    ++Begin[It.first + 1];
  for (unsigned I = 0; I != N; ++I)
    Begin[I + 1] += Begin[I];
  Out.resize(Items.size());
  std::vector<unsigned> Fill(Begin.begin(), Begin.end() - 1);
  for (const auto &It : Items)
    Out[Fill[It.first]++] = It.second;
}

} // namespace

DominatorTree::DominatorTree(const Function &F) : Fn(&F) {
  RPO = computeRPO(F);
  if (RPO.empty())
    return;
  const unsigned N = static_cast<unsigned>(RPO.size());
  Index.assign(F.getMaxBlockNumber(), ~0u);
  for (unsigned I = 0; I != N; ++I)
    Index[RPO[I]->getNumber()] = I;

  // Predecessor index, in one pass over the function's blocks in order, so
  // each list comes out in function block order with `br %c, %x, %x`
  // counted once — what BasicBlock::predecessors() returns. PredIdx holds
  // each predecessor's RPO index (-1 when unreachable) for the fixpoint.
  struct PredEdge {
    BasicBlock *From;
    int FromIdx;
  };
  std::vector<std::pair<unsigned, PredEdge>> Edges;
  for (BasicBlock *BB : F.blocks()) {
    SuccessorRange Succs = BB->successors();
    int FromIdx = static_cast<int>(getRPOIndex(BB));
    for (unsigned K = 0, E = Succs.size(); K != E; ++K) {
      if (K == 1 && Succs[1] == Succs[0])
        continue;
      unsigned To = getRPOIndex(Succs[K]);
      if (To != ~0u)
        Edges.push_back({To, {BB, FromIdx}});
    }
  }
  std::vector<PredEdge> PredEdges;
  bucketStable(N, Edges, PredBegin, PredEdges);
  Preds.resize(PredEdges.size());
  for (size_t K = 0; K != PredEdges.size(); ++K)
    Preds[K] = PredEdges[K].From;

  // Cooper-Harvey-Kennedy: iterate to fixpoint over RPO.
  std::vector<int> Dom(N, -1);
  Dom[0] = 0;
  auto Intersect = [&](int A, int B) {
    while (A != B) {
      while (A > B)
        A = Dom[A];
      while (B > A)
        B = Dom[B];
    }
    return A;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned I = 1; I != N; ++I) {
      int NewIDom = -1;
      for (unsigned K = PredBegin[I], E = PredBegin[I + 1]; K != E; ++K) {
        int P = PredEdges[K].FromIdx;
        if (P < 0)
          continue; // unreachable predecessor
        if (Dom[P] < 0)
          continue; // not yet processed
        NewIDom = NewIDom < 0 ? P : Intersect(NewIDom, P);
      }
      if (NewIDom >= 0 && Dom[I] != NewIDom) {
        Dom[I] = NewIDom;
        Changed = true;
      }
    }
  }

  IDom.assign(Dom.begin(), Dom.end());
  std::vector<std::pair<unsigned, unsigned>> Kids;
  Kids.reserve(N - 1);
  for (unsigned I = 1; I != N; ++I)
    Kids.push_back({IDom[I], I});
  std::vector<unsigned> ChildIdx;
  bucketStable(N, Kids, ChildBegin, ChildIdx);
  Children.resize(ChildIdx.size());
  for (size_t K = 0; K != ChildIdx.size(); ++K)
    Children[K] = RPO[ChildIdx[K]];

  // DFS numbering for O(1) dominance queries.
  DFSIn.assign(N, 0);
  DFSOut.assign(N, 0);
  unsigned Clock = 0;
  struct Frame {
    unsigned Idx;
    unsigned Next;
  };
  std::vector<Frame> Stack{{0, ChildBegin[0]}};
  DFSIn[0] = Clock++;
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    if (Top.Next < ChildBegin[Top.Idx + 1]) {
      unsigned Child = ChildIdx[Top.Next++];
      DFSIn[Child] = Clock++;
      Stack.push_back({Child, ChildBegin[Child]});
      continue;
    }
    DFSOut[Top.Idx] = Clock++;
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
  return I == ~0u || I == 0 ? nullptr : RPO[IDom[I]];
}

bool DominatorTree::dominates(const BasicBlock *A, const BasicBlock *B) const {
  unsigned IA = getRPOIndex(A), IB = getRPOIndex(B);
  if (IA == ~0u || IB == ~0u)
    return false;
  return DFSIn[IA] <= DFSIn[IB] && DFSOut[IB] <= DFSOut[IA];
}

BlockRange DominatorTree::getChildren(const BasicBlock *BB) const {
  unsigned I = getRPOIndex(BB);
  if (I == ~0u)
    return {};
  return {Children.data() + ChildBegin[I],
          Children.data() + ChildBegin[I + 1]};
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
    BlockRange Kids = getChildren(BB);
    for (size_t I = Kids.size(); I != 0; --I)
      Stack.push_back(Kids[I - 1]);
  }
  return Out;
}
