//===- LoopInfo.cpp - Natural loop detection ----------------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "analysis/LoopInfo.h"

#include "analysis/Dominators.h"
#include "ir/Function.h"

#include <algorithm>

using namespace llvmmd;

LoopInfo::LoopInfo(const Function &F, const DominatorTree &DT) {
  (void)F; // the CFG is reached through the dominator tree's RPO
  const std::vector<BasicBlock *> &RPO = DT.getRPO();

  // Collect back edges; detect irreducibility: a retreating edge (target
  // earlier in RPO) whose target does not dominate the source.
  std::map<BasicBlock *, std::vector<BasicBlock *>> BackEdges;
  for (BasicBlock *BB : RPO) {
    for (BasicBlock *Succ : BB->successors()) {
      unsigned SuccIdx = DT.getRPOIndex(Succ);
      if (SuccIdx == ~0u)
        continue;
      if (SuccIdx <= DT.getRPOIndex(BB)) {
        if (DT.dominates(Succ, BB))
          BackEdges[Succ].push_back(BB);
        else
          Irreducible = true;
      }
    }
  }
  if (Irreducible)
    return;

  // Build a loop per header, in RPO order of the headers (BackEdges is a
  // pointer-keyed map; iterating it directly would order loops — and thus
  // every pass that walks them — by allocation address). Blocks = header +
  // backward closure of latches, sorted into RPO afterwards so getBlocks()
  // iteration is deterministic program order.
  for (BasicBlock *Header : RPO) {
    auto BEIt = BackEdges.find(Header);
    if (BEIt == BackEdges.end())
      continue;
    auto L = std::make_unique<Loop>();
    L->Header = Header;
    L->Latches = BEIt->second;
    L->BlockSet.insert(Header);
    std::vector<BasicBlock *> Work(L->Latches.begin(), L->Latches.end());
    while (!Work.empty()) {
      BasicBlock *BB = Work.back();
      Work.pop_back();
      if (!L->BlockSet.insert(BB).second)
        continue;
      for (BasicBlock *Pred : DT.predecessors(BB))
        if (DT.isReachable(Pred) && Pred != Header)
          Work.push_back(Pred);
    }
    L->Blocks.assign(L->BlockSet.begin(), L->BlockSet.end());
    std::sort(L->Blocks.begin(), L->Blocks.end(),
              [&](BasicBlock *A, BasicBlock *B) {
                return DT.getRPOIndex(A) < DT.getRPOIndex(B);
              });
    Loops.push_back(std::move(L));
  }

  // Nesting: loop A is inside loop B iff B contains A's header and A != B.
  // Sort by block count so parents (larger) are matched after children;
  // ties break by header RPO index, never by pointer.
  std::vector<Loop *> BydSize;
  for (auto &L : Loops)
    BydSize.push_back(L.get());
  std::sort(BydSize.begin(), BydSize.end(), [&](Loop *A, Loop *B) {
    if (A->Blocks.size() != B->Blocks.size())
      return A->Blocks.size() < B->Blocks.size();
    return DT.getRPOIndex(A->Header) < DT.getRPOIndex(B->Header);
  });
  for (unsigned I = 0, E = BydSize.size(); I != E; ++I) {
    Loop *Inner = BydSize[I];
    for (unsigned J = I + 1; J != E; ++J) {
      Loop *Outer = BydSize[J];
      if (Outer->contains(Inner->Header) && Outer != Inner) {
        Inner->Parent = Outer;
        Outer->SubLoops.push_back(Inner);
        break;
      }
    }
  }
  for (auto &L : Loops)
    if (!L->Parent)
      TopLevel.push_back(L.get());

  // Innermost-loop map: assign smaller loops first, never overwrite.
  for (Loop *L : BydSize)
    for (BasicBlock *BB : L->Blocks)
      BlockMap.try_emplace(BB, L);

  // Preheaders, entering blocks, exits.
  for (auto &L : Loops) {
    for (BasicBlock *Pred : DT.predecessors(L->Header)) {
      if (!DT.isReachable(Pred) || L->contains(Pred))
        continue;
      L->Entering.push_back(Pred);
    }
    if (L->Entering.size() == 1 &&
        L->Entering.front()->successors().size() == 1)
      L->Preheader = L->Entering.front();

    // Blocks are in RPO, so Exiting and Exits come out in deterministic
    // discovery order (first-seen wins for the deduplicated exit list).
    std::set<BasicBlock *> ExitSet;
    for (BasicBlock *BB : L->Blocks) {
      bool IsExiting = false;
      for (BasicBlock *Succ : BB->successors()) {
        if (!L->contains(Succ)) {
          IsExiting = true;
          if (ExitSet.insert(Succ).second)
            L->Exits.push_back(Succ);
        }
      }
      if (IsExiting)
        L->Exiting.push_back(BB);
    }
  }
}

std::vector<Loop *> LoopInfo::getLoopsInnermostFirst() const {
  std::vector<Loop *> Out;
  // Post-order over the loop forest.
  struct Frame {
    Loop *L;
    size_t Next = 0;
  };
  std::vector<Frame> Stack;
  for (Loop *Top : TopLevel) {
    Stack.push_back({Top, 0});
    while (!Stack.empty()) {
      Frame &F = Stack.back();
      if (F.Next < F.L->getSubLoops().size()) {
        Stack.push_back({F.L->getSubLoops()[F.Next++], 0});
        continue;
      }
      Out.push_back(F.L);
      Stack.pop_back();
    }
  }
  return Out;
}
