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

LoopInfo::LoopInfo(const Function &F, const DominatorTree &DT) : Fn(&F) {
  const std::vector<BasicBlock *> &RPO = DT.getRPO();
  const unsigned NumBlocks = F.getMaxBlockNumber();

  // Collect back edges as (header RPO index, latch); detect
  // irreducibility: a retreating edge (target earlier in RPO) whose target
  // does not dominate the source.
  std::vector<std::pair<unsigned, BasicBlock *>> BackEdges;
  for (BasicBlock *BB : RPO) {
    for (BasicBlock *Succ : BB->successors()) {
      unsigned SuccIdx = DT.getRPOIndex(Succ);
      if (SuccIdx == ~0u)
        continue;
      if (SuccIdx <= DT.getRPOIndex(BB)) {
        if (DT.dominates(Succ, BB))
          BackEdges.push_back({SuccIdx, BB});
        else
          Irreducible = true;
      }
    }
  }
  if (Irreducible)
    return;
  // Group the latches by header, each group in discovery order.
  std::stable_sort(BackEdges.begin(), BackEdges.end(),
                   [](const auto &A, const auto &B) {
                     return A.first < B.first;
                   });

  // Build a loop per header, in RPO order of the headers. Blocks = header +
  // backward closure of latches, sorted into RPO afterwards so getBlocks()
  // iteration is deterministic program order.
  std::vector<BasicBlock *> Work;
  for (size_t E = 0; E != BackEdges.size();) {
    BasicBlock *Header = RPO[BackEdges[E].first];
    auto L = std::make_unique<Loop>();
    L->Fn = &F;
    L->Header = Header;
    L->Members.assign(NumBlocks, false);
    for (; E != BackEdges.size() && RPO[BackEdges[E].first] == Header; ++E)
      L->Latches.push_back(BackEdges[E].second);
    L->insertMember(Header);
    L->Blocks.push_back(Header);
    Work.assign(L->Latches.begin(), L->Latches.end());
    while (!Work.empty()) {
      BasicBlock *BB = Work.back();
      Work.pop_back();
      if (!L->insertMember(BB))
        continue;
      L->Blocks.push_back(BB);
      for (BasicBlock *Pred : DT.predecessors(BB))
        if (DT.isReachable(Pred) && Pred != Header)
          Work.push_back(Pred);
    }
    std::sort(L->Blocks.begin(), L->Blocks.end(),
              [&](BasicBlock *A, BasicBlock *B) {
                return DT.getRPOIndex(A) < DT.getRPOIndex(B);
              });
    Loops.push_back(std::move(L));
  }

  // Nesting: loop A is inside loop B iff B contains A's header and A != B.
  // Sort by block count so parents (larger) are matched after children;
  // ties break by header RPO index, never by pointer.
  std::vector<Loop *> BySize;
  for (auto &L : Loops)
    BySize.push_back(L.get());
  std::sort(BySize.begin(), BySize.end(), [&](Loop *A, Loop *B) {
    if (A->Blocks.size() != B->Blocks.size())
      return A->Blocks.size() < B->Blocks.size();
    return DT.getRPOIndex(A->Header) < DT.getRPOIndex(B->Header);
  });
  for (unsigned I = 0, E = BySize.size(); I != E; ++I) {
    Loop *Inner = BySize[I];
    for (unsigned J = I + 1; J != E; ++J) {
      Loop *Outer = BySize[J];
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
  BlockMap.assign(NumBlocks, nullptr);
  for (Loop *L : BySize)
    for (BasicBlock *BB : L->Blocks)
      if (!BlockMap[BB->getNumber()])
        BlockMap[BB->getNumber()] = L;

  // Preheaders, entering blocks, exits. ExitMark[n] == loop ordinal + 1
  // marks block n as already listed among that loop's exits.
  std::vector<unsigned> ExitMark(NumBlocks, 0);
  unsigned Ordinal = 0;
  for (auto &L : Loops) {
    ++Ordinal;
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
    for (BasicBlock *BB : L->Blocks) {
      bool IsExiting = false;
      for (BasicBlock *Succ : BB->successors()) {
        if (!L->contains(Succ)) {
          IsExiting = true;
          unsigned &Mark = ExitMark[Succ->getNumber()];
          if (Mark != Ordinal) {
            Mark = Ordinal;
            L->Exits.push_back(Succ);
          }
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
