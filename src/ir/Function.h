//===- Function.h - Functions and declarations ------------------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Function owns its arguments and basic blocks. Declarations (no body)
/// model external functions; their attributes (readonly/readnone) are what
/// the optimizer's "libc knowledge" consists of.
///
/// Ownership: the Function object and its Arguments live in the parent
/// module's arena (they survive body replacement — reverts and re-clones
/// keep Argument pointers valid). Blocks and instructions live in the
/// function's own body arena: `dropBody()` releases the whole body as one
/// arena reset and recycles the slab, so the stepwise snapshot/revert
/// cycle re-clones into already-hot memory. Exactly one thread mutates a
/// function body at a time (the engine's per-function task model), so the
/// body arena needs no lock.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_IR_FUNCTION_H
#define LLVMMD_IR_FUNCTION_H

#include "ir/BasicBlock.h"
#include "ir/Constant.h"
#include "ir/Type.h"
#include "support/Arena.h"

#include <algorithm>
#include <string>
#include <vector>

namespace llvmmd {

class Module;

/// Side-effect attributes for declarations, mirroring LLVM's memory
/// attributes. They drive both the optimizer (which may hoist/CSE calls)
/// and — only when the Libc rule set is enabled — the validator.
enum class MemoryEffect : uint8_t {
  /// May read and write any memory (the conservative default).
  ReadWrite,
  /// Reads memory but never writes it (e.g. strlen).
  ReadOnly,
  /// Neither reads nor writes memory (e.g. abs).
  ReadNone,
};

class Function : public Constant {
public:
  /// \p ObjArena owns the Argument objects (the module arena — arguments
  /// must survive dropBody). Construct through Module::createFunction.
  Function(FunctionType *FTy, std::string Name, Type *PtrTy, Arena &ObjArena)
      : Constant(ValueKind::Function, PtrTy), FTy(FTy) {
    setName(std::move(Name));
    for (unsigned I = 0, E = FTy->getNumParams(); I != E; ++I) {
      auto *A = ObjArena.create<Argument>(FTy->getParamType(I), I);
      A->setName("arg" + std::to_string(I));
      Args.push_back(A);
    }
  }
  ~Function() override { dropBody(); }

  FunctionType *getFunctionType() const { return FTy; }
  Type *getReturnType() const { return FTy->getReturnType(); }

  Module *getParent() const { return Parent; }
  void setParent(Module *M) { Parent = M; }

  unsigned getNumArgs() const { return Args.size(); }
  Argument *getArg(unsigned I) const {
    assert(I < Args.size() && "argument index out of range");
    return Args[I];
  }

  MemoryEffect getMemoryEffect() const { return Effect; }
  void setMemoryEffect(MemoryEffect E) { Effect = E; }
  bool isReadOnly() const { return Effect == MemoryEffect::ReadOnly; }
  bool isReadNone() const { return Effect == MemoryEffect::ReadNone; }
  bool mayWriteMemory() const { return Effect == MemoryEffect::ReadWrite; }

  bool isDeclaration() const { return Blocks.empty(); }

  using BlockListType = std::vector<BasicBlock *>;

  /// The arena holding this function's blocks and instructions. Pointers
  /// into it die at dropBody(); nothing outside the function may keep them
  /// across a body replacement.
  Arena &bodyArena() { return BodyArena; }

  BasicBlock *getEntryBlock() const {
    assert(!Blocks.empty() && "declaration has no entry block");
    return Blocks.front();
  }

  /// Appends a new block with the given name and returns it.
  BasicBlock *createBlock(std::string Name) {
    auto *BB = BodyArena.create<BasicBlock>(std::move(Name));
    BB->setParent(this);
    Blocks.push_back(BB);
    return BB;
  }

  /// Unlinks \p BB and releases its instructions' operand uses. The block's
  /// storage stays in the body arena until dropBody. Instructions must
  /// already be use-free or only referenced from within the erased block
  /// set (the caller is responsible; use dropBlockReferences first when
  /// erasing cycles).
  void eraseBlock(BasicBlock *BB) {
    auto It = std::find(Blocks.begin(), Blocks.end(), BB);
    assert(It != Blocks.end() && "block not in function");
    for (Instruction *I : *BB)
      I->dropAllReferences();
    Blocks.erase(It);
  }

  const BlockListType &blocks() const { return Blocks; }

  /// Reorders the block list to match \p Order (a permutation of the
  /// current blocks). The entry block is whichever comes first. Used by the
  /// parser to restore textual block order.
  void reorderBlocks(const std::vector<BasicBlock *> &Order) {
    assert(Order.size() == Blocks.size() && "not a permutation");
#ifndef NDEBUG
    for (BasicBlock *Want : Order)
      assert(std::find(Blocks.begin(), Blocks.end(), Want) != Blocks.end() &&
             "block missing from order");
#endif
    Blocks = Order;
  }

  size_t getNumBlocks() const { return Blocks.size(); }

  /// Total instruction count across all blocks.
  size_t getInstructionCount() const {
    size_t N = 0;
    for (const BasicBlock *BB : Blocks)
      N += BB->size();
    return N;
  }

  /// Releases the whole body in one arena reset: operand cycles are broken
  /// first, then every block and instruction is destroyed together and the
  /// slab is recycled for the next body (revert/re-clone hits warm memory).
  ///
  /// Only arguments and instructions track their uses, and all their users
  /// are this body's instructions, which die together. So the use lists of
  /// the arguments and instructions are cleared wholesale and the operand
  /// lists dropped without unregistering each use: teardown is linear in
  /// the body, not quadratic in a value's uses.
  void dropBody() {
    for (Argument *A : Args)
      A->Users.clear();
    for (BasicBlock *BB : Blocks)
      for (Instruction *I : *BB) {
        I->Users.clear();
        I->Operands.clear();
      }
    Blocks.clear();
    BodyArena.reset();
  }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Function;
  }

private:
  FunctionType *FTy;
  Module *Parent = nullptr;
  std::vector<Argument *> Args;
  Arena BodyArena{4096};
  BlockListType Blocks;
  MemoryEffect Effect = MemoryEffect::ReadWrite;
};

} // namespace llvmmd

#endif // LLVMMD_IR_FUNCTION_H
