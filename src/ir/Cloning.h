//===- Cloning.h - Function, block and module cloning -----------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cloning utilities. The llvm-md driver clones the whole module before
/// optimizing so the validator can compare against the untouched original;
/// loop unswitching clones loop bodies within one function.
///
/// A module clone is two steps: cloneModuleShell copies globals and function
/// declarations sequentially, then cloneFunctionBody copies one body at a
/// time. Body clones only read their source and write only their
/// destination function, so the bodies of one shell may be cloned
/// concurrently (the engine clones each inside the task that optimizes it).
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_IR_CLONING_H
#define LLVMMD_IR_CLONING_H

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace llvmmd {

class Arena;
class BasicBlock;
class Function;
class Instruction;
class Module;
class Value;

/// Old-to-new map from a module's globals and functions to their copies in
/// a shell built by cloneModuleShell.
using ModuleCloneMap = std::unordered_map<const Value *, Value *>;

/// Deep-copies \p M into a fresh module in the same Context: the shell, then
/// every body. Globals keep their names.
std::unique_ptr<Module> cloneModule(const Module &M);

/// Copies \p M's globals and function declarations (same order, names,
/// types and memory effects; no bodies) into a fresh module in the same
/// Context. \p Map receives old-to-new for every global and function; it is
/// only read afterwards, so concurrent body clones may share it.
std::unique_ptr<Module> cloneModuleShell(const Module &M, ModuleCloneMap &Map);

/// Clones \p Src's body into \p Dst (same signature, empty body). Global
/// operands and callees found in \p Shell are re-pointed at their copies;
/// other operands outside the body (constants, and references \p Shell does
/// not map) are kept as they are. \p Src is only read: its use lists are
/// never touched, so one source may be cloned by several threads at once.
void cloneFunctionBody(const Function &Src, Function &Dst,
                       const ModuleCloneMap *Shell = nullptr);

/// Re-points \p F's global-variable operands and call targets at
/// \p DstModule's same-named entities. The fixup a cross-module body clone
/// needs when no shell map relates the two modules (the revert in
/// runLLVMMD, triage's scratch extraction).
void remapModuleReferences(Function &F, Module &DstModule);

/// Old-to-new map of one body or block clone: the source function's
/// arguments, instructions and blocks, looked up by their numbers.
class CloneMap {
public:
  /// The copy of \p V (an argument or instruction of the source), or null
  /// when \p V was not cloned.
  Value *lookup(const Value *V) const;
  /// The copy of \p BB, or null when \p BB was not cloned.
  BasicBlock *lookup(const BasicBlock *BB) const;

private:
  template <typename ExternalFn> friend class BodyCloner;
  /// \p V's number if it is an argument or a linked instruction of Src.
  unsigned localNumber(const Value *V) const;

  const Function *Src = nullptr;
  std::vector<Value *> Values;      ///< by source value number
  std::vector<BasicBlock *> Blocks; ///< by source block number
};

/// Clones \p Blocks (all in \p F) appending " \p Suffix"-named copies to
/// \p F. Operands, phi incoming blocks and branch targets referring to
/// cloned values/blocks are remapped; external references are left as is
/// (the caller fixes up phi entries from predecessors outside the set).
/// \p Map receives every cloned block and instruction.
std::vector<BasicBlock *> cloneBlocks(Function &F,
                                      const std::vector<BasicBlock *> &Blocks,
                                      CloneMap &Map, const std::string &Suffix);

/// Clones one instruction into \p A (normally the destination function's
/// body arena) with identical operands (not remapped) and no parent. Phi
/// incoming blocks and branch successors are copied verbatim.
Instruction *cloneInstruction(const Instruction *I, Arena &A);

} // namespace llvmmd

#endif // LLVMMD_IR_CLONING_H
