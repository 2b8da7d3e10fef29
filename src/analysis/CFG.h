//===- CFG.h - Control-flow graph utilities ---------------------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reverse post-order computation and reachability over the CFG of a
/// function. All analyses in this repo work on reachable blocks only.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_ANALYSIS_CFG_H
#define LLVMMD_ANALYSIS_CFG_H

#include <cstddef>
#include <vector>

namespace llvmmd {

class BasicBlock;
class Function;

/// A read-only view of a contiguous run of blocks owned by an analysis.
class BlockRange {
public:
  using iterator = BasicBlock *const *;
  BlockRange() = default;
  BlockRange(iterator B, iterator E) : B(B), E(E) {}
  iterator begin() const { return B; }
  iterator end() const { return E; }
  size_t size() const { return static_cast<size_t>(E - B); }
  bool empty() const { return B == E; }
  BasicBlock *front() const { return *B; }
  BasicBlock *operator[](size_t I) const { return B[I]; }

private:
  iterator B = nullptr;
  iterator E = nullptr;
};

/// Blocks reachable from entry in reverse post-order (entry first).
std::vector<BasicBlock *> computeRPO(const Function &F);

/// Blocks reachable from entry, in DFS discovery order.
std::vector<BasicBlock *> reachableBlocks(const Function &F);

} // namespace llvmmd

#endif // LLVMMD_ANALYSIS_CFG_H
