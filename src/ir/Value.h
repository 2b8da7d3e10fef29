//===- Value.h - SSA value and user base classes ----------------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Value is the base of everything that can be an operand: arguments,
/// constants, globals, functions and instructions. User adds an operand list
/// with use-list maintenance so that replaceAllUsesWith and use_empty work.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_IR_VALUE_H
#define LLVMMD_IR_VALUE_H

#include "ir/Type.h"
#include "support/Casting.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <vector>

namespace llvmmd {

class User;

/// Discriminator for the Value hierarchy. Order matters: the Constant range
/// is [ConstantInt, Function].
enum class ValueKind : uint8_t {
  Argument,
  ConstantInt,
  ConstantFP,
  ConstantPointerNull,
  UndefValue,
  GlobalVariable,
  Function,
  Instruction,
};

/// Base class for all SSA values.
class Value {
public:
  Value(const Value &) = delete;
  Value &operator=(const Value &) = delete;
  virtual ~Value() { assert(Users.empty() && "deleting value with uses"); }

  ValueKind getKind() const { return Kind; }
  Type *getType() const { return Ty; }

  const std::string &getName() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }
  bool hasName() const { return !Name.empty(); }

  /// Use lists are maintained only for function-local values (arguments and
  /// instructions), which exactly one thread mutates at a time. Constants,
  /// globals and functions are shared across modules — and, with the
  /// thread-safe Context, across concurrently-optimized functions — so
  /// tracking their uses would be a cross-thread data race (and their use
  /// lists would grow without bound across engine runs). No pass consumes
  /// them: every `users()` walk in the codebase starts from an instruction.
  bool tracksUses() const {
    return Kind == ValueKind::Argument || Kind == ValueKind::Instruction;
  }

  /// One entry per operand slot that refers to this value (a user with two
  /// operands equal to this value appears twice). Empty for values that do
  /// not track uses; see tracksUses().
  const std::vector<User *> &users() const { return Users; }
  bool use_empty() const { return Users.empty(); }
  size_t getNumUses() const { return Users.size(); }
  bool hasOneUse() const { return Users.size() == 1; }

  /// Rewrites every use of this value to use \p New instead.
  void replaceAllUsesWith(Value *New);

protected:
  Value(ValueKind Kind, Type *Ty) : Kind(Kind), Ty(Ty) {}

private:
  friend class User;
  friend class Function; // clears whole bodies' use lists at teardown
  void addUse(User *U) {
    if (tracksUses())
      Users.push_back(U);
  }
  void removeUse(User *U) {
    if (!tracksUses())
      return;
    auto It = std::find(Users.begin(), Users.end(), U);
    assert(It != Users.end() && "use not found");
    Users.erase(It);
  }

  ValueKind Kind;
  Type *Ty;
  std::string Name;
  std::vector<User *> Users;
};

/// A value that references other values through an operand list.
class User : public Value {
public:
  ~User() override { dropAllReferences(); }

  unsigned getNumOperands() const { return Operands.size(); }

  Value *getOperand(unsigned I) const {
    assert(I < Operands.size() && "operand index out of range");
    return Operands[I];
  }

  void setOperand(unsigned I, Value *V) {
    assert(I < Operands.size() && "operand index out of range");
    if (Operands[I])
      Operands[I]->removeUse(this);
    Operands[I] = V;
    if (V)
      V->addUse(this);
  }

  const std::vector<Value *> &operands() const { return Operands; }

  /// Releases all operand uses; called before deletion so that values can be
  /// destroyed in any order.
  void dropAllReferences() {
    for (Value *Op : Operands)
      if (Op)
        Op->removeUse(this);
    Operands.clear();
  }

  /// Replaces every operand equal to \p From with \p To.
  void replaceUsesOfWith(Value *From, Value *To) {
    for (unsigned I = 0, E = Operands.size(); I != E; ++I)
      if (Operands[I] == From)
        setOperand(I, To);
  }

protected:
  User(ValueKind Kind, Type *Ty) : Value(Kind, Ty) {}

  void addOperand(Value *V) {
    Operands.push_back(V);
    if (V)
      V->addUse(this);
  }

  void removeOperand(unsigned I) {
    assert(I < Operands.size() && "operand index out of range");
    if (Operands[I])
      Operands[I]->removeUse(this);
    Operands.erase(Operands.begin() + I);
  }

private:
  friend class Function; // drops whole bodies' operands at teardown
  std::vector<Value *> Operands;
};

inline void Value::replaceAllUsesWith(Value *New) {
  assert(New != this && "RAUW with self");
  while (!Users.empty()) {
    User *U = Users.back();
    U->replaceUsesOfWith(this, New);
  }
}

/// A formal parameter of a Function.
class Argument : public Value {
public:
  Argument(Type *Ty, unsigned Index) : Value(ValueKind::Argument, Ty),
                                       Index(Index) {}

  unsigned getIndex() const { return Index; }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Argument;
  }

private:
  unsigned Index;
};

} // namespace llvmmd

#endif // LLVMMD_IR_VALUE_H
