//===- CFG.cpp - Control-flow graph utilities -------------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "analysis/CFG.h"

#include "ir/Function.h"

#include <algorithm>
#include <unordered_set>

using namespace llvmmd;

std::vector<BasicBlock *> llvmmd::computeRPO(const Function &F) {
  std::vector<BasicBlock *> PostOrder;
  if (F.isDeclaration())
    return PostOrder;
  std::unordered_set<const BasicBlock *> Visited(2 * F.blocks().size());

  // Iterative DFS computing post-order.
  struct Frame {
    BasicBlock *BB;
    SuccessorRange Succs;
    size_t Next = 0;
  };
  std::vector<Frame> Stack;
  BasicBlock *Entry = F.getEntryBlock();
  Visited.insert(Entry);
  Stack.push_back({Entry, Entry->successors()});
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    if (Top.Next < Top.Succs.size()) {
      BasicBlock *Succ = Top.Succs[Top.Next++];
      if (Visited.insert(Succ).second)
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
  std::unordered_set<const BasicBlock *> Visited(2 * F.blocks().size());
  std::vector<BasicBlock *> Work{F.getEntryBlock()};
  Visited.insert(F.getEntryBlock());
  while (!Work.empty()) {
    BasicBlock *BB = Work.back();
    Work.pop_back();
    Out.push_back(BB);
    for (BasicBlock *Succ : BB->successors())
      if (Visited.insert(Succ).second)
        Work.push_back(Succ);
  }
  return Out;
}
