//===- CFG.cpp - Control-flow graph utilities -------------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "analysis/CFG.h"

#include "ir/Function.h"

#include <algorithm>

using namespace llvmmd;

std::vector<BasicBlock *> llvmmd::computeRPO(const Function &F) {
  std::vector<BasicBlock *> PostOrder;
  if (F.isDeclaration())
    return PostOrder;
  // Visited marks by block number.
  std::vector<uint8_t> Visited(F.getMaxBlockNumber(), 0);
  auto Visit = [&Visited](const BasicBlock *BB) {
    uint8_t &Seen = Visited[BB->getNumber()];
    bool First = !Seen;
    Seen = 1;
    return First;
  };

  // Iterative DFS computing post-order.
  struct Frame {
    BasicBlock *BB;
    SuccessorRange Succs;
    size_t Next = 0;
  };
  std::vector<Frame> Stack;
  BasicBlock *Entry = F.getEntryBlock();
  Visit(Entry);
  Stack.push_back({Entry, Entry->successors()});
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    if (Top.Next < Top.Succs.size()) {
      BasicBlock *Succ = Top.Succs[Top.Next++];
      if (Visit(Succ))
        Stack.push_back({Succ, Succ->successors()});
      continue;
    }
    PostOrder.push_back(Top.BB);
    Stack.pop_back();
  }
  std::reverse(PostOrder.begin(), PostOrder.end());
  return PostOrder;
}

std::vector<BasicBlock *> llvmmd::reachableBlocks(const Function &F) {
  std::vector<BasicBlock *> Out;
  if (F.isDeclaration())
    return Out;
  std::vector<uint8_t> Visited(F.getMaxBlockNumber(), 0);
  std::vector<BasicBlock *> Work{F.getEntryBlock()};
  Visited[F.getEntryBlock()->getNumber()] = 1;
  while (!Work.empty()) {
    BasicBlock *BB = Work.back();
    Work.pop_back();
    Out.push_back(BB);
    for (BasicBlock *Succ : BB->successors())
      if (!Visited[Succ->getNumber()]) {
        Visited[Succ->getNumber()] = 1;
        Work.push_back(Succ);
      }
  }
  return Out;
}
