//===- Dominators.h - Dominator tree ----------------------------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator tree built with the Cooper-Harvey-Kennedy iterative algorithm
/// over reverse post-order, with DFS interval numbering for O(1) dominance
/// queries.
///
/// The tree also owns the predecessor index of its CFG snapshot, built once
/// in O(blocks + edges). The CHK fixpoint reads it, and so do the analyses
/// layered on a tree (LoopInfo, the gating analysis, the value-graph
/// builder), so no analysis rescans the function for predecessors inside a
/// loop. Like every other answer of the tree, the index describes the CFG
/// as it was at construction.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_ANALYSIS_DOMINATORS_H
#define LLVMMD_ANALYSIS_DOMINATORS_H

#include "analysis/CFG.h"

#include <unordered_map>
#include <vector>

namespace llvmmd {

class BasicBlock;
class Function;

class DominatorTree {
public:
  explicit DominatorTree(const Function &F);

  bool isReachable(const BasicBlock *BB) const {
    return Index.count(BB) != 0;
  }

  /// Predecessors of the reachable block \p BB, exactly as
  /// BB->predecessors() lists them: every predecessor, reachable or not,
  /// in function block order, each once. Empty for an unreachable block.
  BlockRange predecessors(const BasicBlock *BB) const;

  /// Immediate dominator; null for the entry block and unreachable blocks.
  BasicBlock *getIDom(const BasicBlock *BB) const;

  /// Reflexive dominance: every block dominates itself.
  bool dominates(const BasicBlock *A, const BasicBlock *B) const;
  bool properlyDominates(const BasicBlock *A, const BasicBlock *B) const {
    return A != B && dominates(A, B);
  }

  /// Children of \p BB in the dominator tree.
  const std::vector<BasicBlock *> &getChildren(const BasicBlock *BB) const;

  /// Reachable blocks in reverse post-order (entry first).
  const std::vector<BasicBlock *> &getRPO() const { return RPO; }

  /// Position of \p BB in getRPO(), or ~0u for an unreachable block.
  unsigned getRPOIndex(const BasicBlock *BB) const {
    auto It = Index.find(BB);
    return It == Index.end() ? ~0u : It->second;
  }

  /// Blocks in a preorder walk of the dominator tree (entry first); visiting
  /// in this order guarantees idom-before-block.
  std::vector<BasicBlock *> preorder() const;

private:
  struct NodeInfo {
    BasicBlock *IDom = nullptr;
    std::vector<BasicBlock *> Children;
    unsigned DFSIn = 0;
    unsigned DFSOut = 0;
  };

  std::vector<BasicBlock *> RPO;
  std::unordered_map<const BasicBlock *, unsigned> Index; // block -> RPO index
  std::vector<NodeInfo> Nodes;                             // by RPO index
  /// Predecessor lists of the reachable blocks, by RPO index: the
  /// predecessors of RPO[I] are Preds[PredBegin[I] .. PredBegin[I + 1]).
  std::vector<unsigned> PredBegin;
  std::vector<BasicBlock *> Preds;
  static const std::vector<BasicBlock *> Empty;
};

} // namespace llvmmd

#endif // LLVMMD_ANALYSIS_DOMINATORS_H
