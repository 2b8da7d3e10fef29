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
/// Per-block state lives in flat vectors: the block number indexes the RPO
/// position, and the RPO position indexes everything else.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_ANALYSIS_DOMINATORS_H
#define LLVMMD_ANALYSIS_DOMINATORS_H

#include "analysis/CFG.h"
#include "ir/BasicBlock.h"

#include <vector>

namespace llvmmd {

class BasicBlock;
class Function;

class DominatorTree {
public:
  explicit DominatorTree(const Function &F);

  /// True for a block of this tree's function that was reachable when the
  /// tree was built.
  bool isReachable(const BasicBlock *BB) const {
    return getRPOIndex(BB) != ~0u;
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

  /// Children of \p BB in the dominator tree, in RPO order.
  BlockRange getChildren(const BasicBlock *BB) const;

  /// Reachable blocks in reverse post-order (entry first).
  const std::vector<BasicBlock *> &getRPO() const { return RPO; }

  /// Position of \p BB in getRPO(), or ~0u for an unreachable block, a
  /// block created after the tree, or a block of another function.
  unsigned getRPOIndex(const BasicBlock *BB) const {
    unsigned N = BB->getNumber();
    return BB->getParent() == Fn && N < Index.size() ? Index[N] : ~0u;
  }

  /// Blocks in a preorder walk of the dominator tree (entry first); visiting
  /// in this order guarantees idom-before-block.
  std::vector<BasicBlock *> preorder() const;

private:
  const Function *Fn;
  std::vector<BasicBlock *> RPO;
  /// Block number -> RPO index (~0u when unreachable).
  std::vector<unsigned> Index;
  /// Per RPO index: the immediate dominator's RPO index (entry: 0) and the
  /// DFS interval of the node in the dominator tree.
  std::vector<unsigned> IDom;
  std::vector<unsigned> DFSIn;
  std::vector<unsigned> DFSOut;
  /// Children of RPO[I] are Children[ChildBegin[I] .. ChildBegin[I + 1]).
  std::vector<unsigned> ChildBegin;
  std::vector<BasicBlock *> Children;
  /// Predecessor lists of the reachable blocks, by RPO index: the
  /// predecessors of RPO[I] are Preds[PredBegin[I] .. PredBegin[I + 1]).
  std::vector<unsigned> PredBegin;
  std::vector<BasicBlock *> Preds;
};

} // namespace llvmmd

#endif // LLVMMD_ANALYSIS_DOMINATORS_H
