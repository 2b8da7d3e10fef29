//===- BasicBlock.h - A straight-line sequence of instructions --*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A BasicBlock owns an ordered list of instructions terminated by exactly
/// one terminator. Blocks are owned by their parent Function.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_IR_BASICBLOCK_H
#define LLVMMD_IR_BASICBLOCK_H

#include "ir/Instruction.h"

#include <cassert>
#include <list>
#include <string>
#include <vector>

namespace llvmmd {

class BasicBlock;
class Function;

/// A block's successors, stored inline: a terminator has at most two
/// (a conditional branch), so successors() never allocates. Both entries
/// of `br %c, %x, %x` are listed, as the terminator lists them.
class SuccessorRange {
public:
  using iterator = BasicBlock *const *;
  iterator begin() const { return Succs; }
  iterator end() const { return Succs + N; }
  size_t size() const { return N; }
  bool empty() const { return N == 0; }
  BasicBlock *operator[](size_t I) const {
    assert(I < N && "successor index out of range");
    return Succs[I];
  }
  BasicBlock *front() const { return (*this)[0]; }

private:
  friend class BasicBlock;
  BasicBlock *Succs[2] = {nullptr, nullptr};
  unsigned N = 0;
};

class BasicBlock {
public:
  using InstListType = std::list<Instruction *>;
  using iterator = InstListType::iterator;
  using const_iterator = InstListType::const_iterator;

  explicit BasicBlock(std::string Name) : Name(std::move(Name)) {}
  BasicBlock(const BasicBlock &) = delete;
  BasicBlock &operator=(const BasicBlock &) = delete;
  // Blocks and their instructions are owned by the parent function's body
  // arena; destruction never frees instructions (the arena does).
  ~BasicBlock() = default;

  const std::string &getName() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }

  Function *getParent() const { return Parent; }
  void setParent(Function *F) { Parent = F; }

  iterator begin() { return Insts.begin(); }
  iterator end() { return Insts.end(); }
  const_iterator begin() const { return Insts.begin(); }
  const_iterator end() const { return Insts.end(); }
  bool empty() const { return Insts.empty(); }
  size_t size() const { return Insts.size(); }

  Instruction *front() const { return Insts.front(); }
  Instruction *back() const { return Insts.back(); }

  /// Appends \p I, taking ownership.
  void append(Instruction *I) {
    I->setParent(this);
    Insts.push_back(I);
  }

  /// Inserts \p I before \p Pos, taking ownership. Returns an iterator to
  /// the inserted instruction.
  iterator insert(iterator Pos, Instruction *I) {
    I->setParent(this);
    return Insts.insert(Pos, I);
  }

  /// Unlinks \p I without deleting it (ownership passes to the caller).
  void remove(Instruction *I) {
    Insts.remove(I);
    I->setParent(nullptr);
  }

  /// Unlinks \p I and releases its operand uses. The instruction must have
  /// no remaining uses. Its storage stays in the function's body arena
  /// until the body is dropped — erase never frees.
  void erase(Instruction *I) {
    remove(I);
    I->dropAllReferences();
  }

  /// The block terminator, or null if the block is not yet terminated.
  Instruction *getTerminator() const {
    if (Insts.empty() || !Insts.back()->isTerminator())
      return nullptr;
    return Insts.back();
  }

  /// Successor blocks via the terminator (empty for ret/unreachable).
  SuccessorRange successors() const {
    SuccessorRange Out;
    if (auto *Br = dyn_cast_or_null<BranchInst>(getTerminator()))
      for (unsigned I = 0, E = Br->getNumSuccessors(); I != E; ++I)
        Out.Succs[Out.N++] = Br->getSuccessor(I);
    return Out;
  }

  /// Predecessor blocks in function block order, each once, computed by
  /// scanning the parent function: O(blocks) per call. An analysis that
  /// asks repeatedly uses DominatorTree::predecessors() instead, which
  /// answers from an index built once per tree.
  std::vector<BasicBlock *> predecessors() const;

  /// First non-phi instruction position (phis must be grouped at the top).
  iterator getFirstNonPhi() {
    auto It = Insts.begin();
    while (It != Insts.end() && (*It)->isPhi())
      ++It;
    return It;
  }

  /// All phi nodes at the head of the block.
  std::vector<PhiNode *> phis() const {
    std::vector<PhiNode *> Out;
    for (Instruction *I : Insts) {
      auto *P = dyn_cast<PhiNode>(I);
      if (!P)
        break;
      Out.push_back(P);
    }
    return Out;
  }

private:
  std::string Name;
  Function *Parent = nullptr;
  InstListType Insts;
};

} // namespace llvmmd

#endif // LLVMMD_IR_BASICBLOCK_H
