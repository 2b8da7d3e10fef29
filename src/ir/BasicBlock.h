//===- BasicBlock.h - A straight-line sequence of instructions --*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A BasicBlock owns an ordered list of instructions terminated by exactly
/// one terminator. Blocks are owned by their parent Function. The list is
/// intrusive (each instruction links to its neighbours), so insertion and
/// removal are O(1) and allocate nothing.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_IR_BASICBLOCK_H
#define LLVMMD_IR_BASICBLOCK_H

#include "ir/Instruction.h"

#include <cassert>
#include <iterator>
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

/// Iterates a block's instructions through their intrusive links. Yields
/// Instruction pointers, as a container of pointers would; decrementing
/// end() reaches the last instruction.
class InstIterator {
public:
  using iterator_category = std::bidirectional_iterator_tag;
  using value_type = Instruction *;
  using difference_type = std::ptrdiff_t;
  using pointer = Instruction *const *;
  using reference = Instruction *const &;

  InstIterator() = default;
  InstIterator(Instruction *Cur, const BasicBlock *BB) : Cur(Cur), BB(BB) {}

  reference operator*() const { return Cur; }
  pointer operator->() const { return &Cur; }
  InstIterator &operator++() {
    Cur = Cur->getNextNode();
    return *this;
  }
  InstIterator operator++(int) {
    InstIterator Old = *this;
    ++*this;
    return Old;
  }
  inline InstIterator &operator--();
  InstIterator operator--(int) {
    InstIterator Old = *this;
    --*this;
    return Old;
  }
  bool operator==(const InstIterator &O) const { return Cur == O.Cur; }
  bool operator!=(const InstIterator &O) const { return Cur != O.Cur; }

private:
  Instruction *Cur = nullptr;
  const BasicBlock *BB = nullptr;
};

/// The phi nodes at the head of a block, read in place. The iterator steps
/// to the next instruction before the loop body runs only when written as
/// `*It++`, so a loop that erases the phi it visits must use that form.
class PhiRange {
public:
  class iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = PhiNode *;
    using difference_type = std::ptrdiff_t;
    using pointer = PhiNode *const *;
    using reference = PhiNode *;

    explicit iterator(Instruction *Cur = nullptr) : Cur(skip(Cur)) {}
    PhiNode *operator*() const { return static_cast<PhiNode *>(Cur); }
    iterator &operator++() {
      Cur = skip(Cur->getNextNode());
      return *this;
    }
    iterator operator++(int) {
      iterator Old = *this;
      ++*this;
      return Old;
    }
    bool operator==(const iterator &O) const { return Cur == O.Cur; }
    bool operator!=(const iterator &O) const { return Cur != O.Cur; }

  private:
    static Instruction *skip(Instruction *I) {
      return I && I->isPhi() ? I : nullptr;
    }
    Instruction *Cur;
  };

  explicit PhiRange(Instruction *First) : First(First) {}
  iterator begin() const { return iterator(First); }
  iterator end() const { return iterator(); }
  bool empty() const { return begin() == end(); }
  /// Number of phis: O(phis).
  size_t size() const { return std::distance(begin(), end()); }

private:
  Instruction *First;
};

class BasicBlock {
public:
  using iterator = InstIterator;
  using const_iterator = InstIterator;

  explicit BasicBlock(std::string Name) : Name(std::move(Name)) {}
  BasicBlock(const BasicBlock &) = delete;
  BasicBlock &operator=(const BasicBlock &) = delete;
  // Blocks and their instructions are owned by the parent function's body
  // arena; destruction never frees instructions (the arena does).
  ~BasicBlock() = default;

  const std::string &getName() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }

  Function *getParent() const { return Parent; }

  /// Dense number of this block within its function's body, given when the
  /// function creates it; below Function::getMaxBlockNumber(). Analyses
  /// index flat vectors by it. Erased blocks keep theirs (numbers are never
  /// reused within one body); dropBody restarts the count.
  unsigned getNumber() const { return Number; }

  iterator begin() const { return iterator(Head, this); }
  iterator end() const { return iterator(nullptr, this); }
  bool empty() const { return Head == nullptr; }
  size_t size() const { return Size; }

  Instruction *front() const { return Head; }
  Instruction *back() const { return Tail; }

  /// Appends \p I, taking ownership.
  void append(Instruction *I) { insert(end(), I); }

  /// Inserts \p I before \p Pos, taking ownership. Returns an iterator to
  /// the inserted instruction. An instruction without a number receives
  /// the next one of the parent function's body.
  iterator insert(iterator Pos, Instruction *I);

  /// Unlinks \p I without deleting it (ownership passes to the caller), in
  /// O(1). It keeps its number.
  void remove(Instruction *I);

  /// Unlinks \p I and releases its operand uses. The instruction must have
  /// no remaining uses. Its storage stays in the function's body arena
  /// until the body is dropped — erase never frees.
  void erase(Instruction *I) {
    remove(I);
    I->dropAllReferences();
  }

  /// The block terminator, or null if the block is not yet terminated.
  Instruction *getTerminator() const {
    if (!Tail || !Tail->isTerminator())
      return nullptr;
    return Tail;
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
  iterator getFirstNonPhi() const {
    Instruction *I = Head;
    while (I && I->isPhi())
      I = I->getNextNode();
    return iterator(I, this);
  }

  /// All phi nodes at the head of the block, as a view (no copy).
  PhiRange phis() const { return PhiRange(Head); }

private:
  friend class Function; // sets Parent and Number
  std::string Name;
  Function *Parent = nullptr;
  unsigned Number = 0;
  unsigned Size = 0;
  Instruction *Head = nullptr;
  Instruction *Tail = nullptr;
};

inline InstIterator &InstIterator::operator--() {
  Cur = Cur ? Cur->getPrevNode() : BB->back();
  return *this;
}

} // namespace llvmmd

#endif // LLVMMD_IR_BASICBLOCK_H
