//===- GVN.cpp - Global value numbering with alias analysis ----------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator-scoped global value numbering: a preorder walk of the
/// dominator tree with a scoped expression table (commutative operands
/// sorted by value number, comparisons canonicalized by predicate swap),
/// per-instruction simplification/constant folding, redundant-load
/// elimination and store-to-load forwarding through the alias analysis, and
/// same-block φ coalescing. This is the paper's hardest optimization to
/// validate (Figures 5/6): its effects span φ simplification, constant
/// folding, load/store simplification and commuting in the value graph.
///
//===----------------------------------------------------------------------===//

#include "opt/Pass.h"

#include "analysis/AliasAnalysis.h"
#include "analysis/Dominators.h"
#include "ir/Module.h"
#include "opt/Local.h"

#include "support/Hashing.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

using namespace llvmmd;

namespace {

/// Structural key for pure expressions. Operands are value numbers, making
/// the table stable under replacement and deterministic across runs; they
/// live in the table's operand pool at [Begin, Begin + NumOps).
struct ExprKey {
  Opcode Op;
  uint8_t Pred = 0;           // icmp/fcmp predicate
  Type *Ty = nullptr;         // result type
  const void *Extra = nullptr; // GEP element type or readnone callee
  unsigned Begin = 0;
  unsigned NumOps = 0;
  uint64_t Hash = 0;
};

/// The scoped expression table: an open-addressing hash table over keys
/// whose operands sit in one pool. Scopes nest like the dominator-tree
/// walk, so insertions are undone last-in first-out: leaving a scope pops
/// its keys, tombstones their slots and truncates the pool. Lookups only
/// test equality, so no order ever comes from the hash.
class ScopedExprTable {
public:
  void clear() {
    Slots.assign(Slots.empty() ? 64 : Slots.size(), Empty);
    Used = 0;
    Entries.clear();
    Pool.clear();
  }

  /// Starts a key: its operands are then pushed with addOperand.
  ExprKey begin(Opcode Op, Type *Ty) {
    ExprKey K;
    K.Op = Op;
    K.Ty = Ty;
    K.Begin = static_cast<unsigned>(Pool.size());
    return K;
  }
  void addOperand(ExprKey &K, unsigned VN) {
    Pool.push_back(VN);
    ++K.NumOps;
  }
  /// Drops the operands of a key that was not inserted.
  void discard(const ExprKey &K) { Pool.resize(K.Begin); }

  /// The value recorded for \p K in an enclosing scope, or null.
  Value *find(ExprKey &K) {
    K.Hash = hashKey(K);
    for (size_t Mask = Slots.size() - 1, I = K.Hash & Mask;;
         I = (I + 1) & Mask) {
      unsigned S = Slots[I];
      if (S == Empty)
        return nullptr;
      if (S != Tombstone && equal(Entries[S].Key, K))
        return Entries[S].V;
    }
  }

  /// Records \p K -> \p V in the current scope; \p K was just passed to
  /// find(), which missed.
  void insert(const ExprKey &K, Value *V) {
    if ((Used + 1) * 2 > Slots.size())
      rehash(Slots.size() * 2);
    Entries.push_back({K, V, place(K.Hash)});
    Slots[Entries.back().Slot] = static_cast<unsigned>(Entries.size() - 1);
    ++Used;
  }

  size_t mark() const { return Entries.size(); }

  /// Undoes every insertion made since \p Mark.
  void unwind(size_t Mark) {
    while (Entries.size() > Mark) {
      const Entry &E = Entries.back();
      Slots[E.Slot] = Tombstone;
      Pool.resize(E.Key.Begin);
      Entries.pop_back();
    }
  }

private:
  static constexpr unsigned Empty = ~0u;
  static constexpr unsigned Tombstone = ~0u - 1;

  struct Entry {
    ExprKey Key;
    Value *V;
    size_t Slot;
  };

  uint64_t hashKey(const ExprKey &K) const {
    uint64_t H = hashCombine(static_cast<uint64_t>(K.Op), K.Pred);
    H = hashCombine(H, reinterpret_cast<uintptr_t>(K.Ty));
    H = hashCombine(H, reinterpret_cast<uintptr_t>(K.Extra));
    for (unsigned I = 0; I != K.NumOps; ++I)
      H = hashCombine(H, Pool[K.Begin + I]);
    return H;
  }

  bool equal(const ExprKey &A, const ExprKey &B) const {
    return A.Hash == B.Hash && A.Op == B.Op && A.Pred == B.Pred &&
           A.Ty == B.Ty && A.Extra == B.Extra && A.NumOps == B.NumOps &&
           std::equal(Pool.begin() + A.Begin,
                      Pool.begin() + A.Begin + A.NumOps,
                      Pool.begin() + B.Begin);
  }

  /// A free slot (empty or tombstone) on \p Hash's probe sequence.
  size_t place(uint64_t Hash) const {
    for (size_t Mask = Slots.size() - 1, I = Hash & Mask;;
         I = (I + 1) & Mask)
      if (Slots[I] == Empty || Slots[I] == Tombstone)
        return I;
  }

  /// Rebuilds the slots at \p Size from the live entries, dropping the
  /// tombstones. Used counts live entries and tombstones alike.
  void rehash(size_t Size) {
    while (Entries.size() * 4 < Size && Size > 64)
      Size /= 2;
    if ((Entries.size() + 1) * 2 > Size)
      Size *= 2;
    Slots.assign(Size, Empty);
    for (size_t E = 0; E != Entries.size(); ++E) {
      Entries[E].Slot = place(Entries[E].Key.Hash);
      Slots[Entries[E].Slot] = static_cast<unsigned>(E);
    }
    Used = Entries.size();
  }

  std::vector<unsigned> Slots;
  size_t Used = 0;
  std::vector<Entry> Entries; ///< insertion order; scopes are suffixes
  std::vector<unsigned> Pool; ///< operands of Entries' keys, then scratch
};

class GVNPass : public FunctionPass {
public:
  const char *getName() const override { return "gvn"; }

  bool run(Function &F, FunctionAnalyses &FA) override {
    if (F.isDeclaration())
      return false;
    Changed = false;
    Fn = &F;
    LocalVN.assign(F.getMaxValueNumber(), NoVN);
    OtherVN.clear();
    NextVN = 0;
    Table.clear();
    AliasAnalysis AA(F);
    const DominatorTree &DT = FA.getDomTree();

    // Preorder walk with scoped tables implemented as undo logs. Only
    // instructions are replaced or erased, never a terminator, so the CFG
    // analyses stay valid.
    processBlock(F, DT, AA, DT.getRPO().empty() ? nullptr : DT.getRPO()[0]);
    Changed |= removeDeadInstructions(F) > 0;
    return Changed;
  }

private:
  static constexpr unsigned NoVN = ~0u;

  /// The value-number slot of \p V: by value number for this function's
  /// arguments and linked instructions, in OtherVN for everything else.
  unsigned &vnSlot(Value *V) {
    unsigned N = V->getNumber();
    if (N != Value::NoNumber && N < LocalVN.size()) {
      if (auto *A = dyn_cast<Argument>(V)) {
        if (N < Fn->getNumArgs() && Fn->getArg(N) == A)
          return LocalVN[N];
      } else if (cast<Instruction>(V)->getFunction() == Fn) {
        return LocalVN[N];
      }
    }
    return OtherVN.try_emplace(V, NoVN).first->second;
  }

  unsigned getVN(Value *V) {
    unsigned &VN = vnSlot(V);
    if (VN == NoVN)
      VN = NextVN++;
    return VN;
  }

  /// The table key of \p I, or false when \p I is not a pure expression.
  bool makeKey(Instruction *I, ExprKey &K) {
    K = Table.begin(I->getOpcode(), I->getType());
    if (I->isBinaryOp()) {
      unsigned A = getVN(I->getOperand(0)), B = getVN(I->getOperand(1));
      if (isCommutativeOp(I->getOpcode()) && B < A)
        std::swap(A, B);
      Table.addOperand(K, A);
      Table.addOperand(K, B);
      return true;
    }
    switch (I->getOpcode()) {
    case Opcode::ICmp: {
      auto *Cmp = cast<ICmpInst>(I);
      unsigned A = getVN(Cmp->getLHS()), B = getVN(Cmp->getRHS());
      ICmpPred P = Cmp->getPred();
      // Canonical orientation: smaller VN first; swap predicate to match.
      if (B < A) {
        std::swap(A, B);
        P = swapPred(P);
      }
      K.Pred = static_cast<uint8_t>(P);
      Table.addOperand(K, A);
      Table.addOperand(K, B);
      return true;
    }
    case Opcode::FCmp: {
      auto *Cmp = cast<FCmpInst>(I);
      K.Pred = static_cast<uint8_t>(Cmp->getPred());
      unsigned A = getVN(Cmp->getLHS()), B = getVN(Cmp->getRHS());
      Table.addOperand(K, A);
      Table.addOperand(K, B);
      return true;
    }
    case Opcode::Trunc:
    case Opcode::ZExt:
    case Opcode::SExt:
    case Opcode::Select:
      for (Value *Op : I->operands())
        Table.addOperand(K, getVN(Op));
      return true;
    case Opcode::GEP: {
      auto *G = cast<GEPInst>(I);
      K.Extra = G->getElementType();
      unsigned A = getVN(G->getBase()), B = getVN(G->getIndex());
      Table.addOperand(K, A);
      Table.addOperand(K, B);
      return true;
    }
    case Opcode::Call: {
      auto *C = cast<CallInst>(I);
      // Only calls that neither read nor write memory are pure expressions.
      if (!C->getCallee()->isReadNone())
        return false;
      K.Extra = C->getCallee();
      for (Value *Op : I->operands())
        Table.addOperand(K, getVN(Op));
      return true;
    }
    default:
      return false;
    }
  }

  void replaceAndErase(Instruction *I, Value *Repl) {
    // Keep value numbers coherent: the replacement inherits the number.
    unsigned VN = vnSlot(I);
    if (VN != NoVN) {
      unsigned &ReplVN = vnSlot(Repl);
      if (ReplVN == NoVN)
        ReplVN = VN;
    }
    I->replaceAllUsesWith(Repl);
    I->getParent()->erase(I);
    Changed = true;
  }

  /// Folds a load from a constant-qualified global to its initializer.
  /// This mirrors LLVM's "folding of global variables", which the paper
  /// names as a false-alarm source: the validator only matches it when its
  /// GlobalFold extension rule set is enabled.
  Value *foldConstantGlobalLoad(LoadInst *Ld) {
    const auto *GV = dyn_cast<GlobalVariable>(Ld->getPointer());
    if (!GV || !GV->isConstantGlobal() || !GV->hasInitializer())
      return nullptr;
    if (GV->getValueType() != Ld->getType())
      return nullptr;
    return GV->getInitializer();
  }

  /// Searches for an available value for load (Ptr, Ty) starting just above
  /// \p From in its block and walking unique-predecessor chains upward,
  /// instruction by instruction through the block lists (nothing copied).
  /// Knows that memset fills a region with a byte (libc knowledge, another
  /// of the paper's false-alarm sources).
  Value *findAvailableLoadValue(Instruction *From, Value *Ptr, Type *Ty,
                                const AliasAnalysis &AA,
                                const DominatorTree &DT) {
    unsigned Budget = 256;
    BasicBlock *BB = From->getParent();
    Instruction *Start = From->getPrevNode();
    unsigned Size = Ty->getStoreSize();
    while (true) {
      for (Instruction *Cand = Start; Cand && Budget;
           Cand = Cand->getPrevNode(), --Budget) {
        if (auto *St = dyn_cast<StoreInst>(Cand)) {
          AliasResult AR = AA.alias(St->getPointer(),
                                    St->getStoredValue()->getType()->getStoreSize(),
                                    Ptr, Size);
          if (AR == AliasResult::MustAlias &&
              St->getStoredValue()->getType() == Ty)
            return St->getStoredValue();
          if (AR != AliasResult::NoAlias)
            return nullptr; // clobbered by a may-aliasing store
          continue;
        }
        if (auto *Ld = dyn_cast<LoadInst>(Cand)) {
          if (Ld->getType() == Ty &&
              AA.alias(Ld->getPointer(), Size, Ptr, Size) ==
                  AliasResult::MustAlias)
            return Ld;
          continue;
        }
        if (auto *Call = dyn_cast<CallInst>(Cand)) {
          if (Call->getCallee()->getName() == "memset" &&
              Call->getNumArgs() == 3) {
            const auto *Len = dyn_cast<ConstantInt>(Call->getArg(2));
            if (!Len)
              return nullptr;
            int64_t LenV = std::max<int64_t>(0, Len->getSExtValue());
            AliasResult AR = AA.alias(Call->getArg(0),
                                      static_cast<unsigned>(LenV), Ptr, Size);
            if (AR == AliasResult::NoAlias)
              continue; // the fill cannot touch this load
            // A byte load wholly inside the filled range reads the fill
            // value (the paper's memset rule, with l2 < l1).
            const auto *Fill = dyn_cast<ConstantInt>(Call->getArg(1));
            auto DstD = AliasAnalysis::decompose(Call->getArg(0));
            auto PtrD = AliasAnalysis::decompose(Ptr);
            if (Fill && Size == 1 && Ty->isInteger() &&
                DstD.Base == PtrD.Base && DstD.Offset && PtrD.Offset &&
                *PtrD.Offset >= *DstD.Offset &&
                *PtrD.Offset + static_cast<int64_t>(Size) <=
                    *DstD.Offset + LenV)
              return From->getFunction()->getParent()->getContext().getInt(
                  Ty, signExtend(Fill->getSExtValue(), 8));
            return nullptr;
          }
          if (Call->getCallee()->mayWriteMemory())
            return nullptr;
          continue;
        }
      }
      if (!Budget)
        return nullptr;
      BlockRange Preds = DT.predecessors(BB);
      if (Preds.size() != 1)
        return nullptr;
      BB = Preds.front();
      Start = BB->back();
    }
  }

  void processBlock(Function &F, const DominatorTree &DT,
                    const AliasAnalysis &AA, BasicBlock *Root) {
    if (!Root)
      return;
    struct Frame {
      BasicBlock *BB;
      size_t NextChild = 0;
      size_t UndoMark = 0;
    };
    std::vector<Frame> Stack;
    Stack.push_back({Root, 0, Table.mark()});
    visitBlock(F, AA, DT, Root);
    while (!Stack.empty()) {
      Frame &Top = Stack.back();
      BlockRange Kids = DT.getChildren(Top.BB);
      if (Top.NextChild < Kids.size()) {
        BasicBlock *Child = Kids[Top.NextChild++];
        Stack.push_back({Child, 0, Table.mark()});
        visitBlock(F, AA, DT, Child);
        continue;
      }
      // Unwind scope.
      Table.unwind(Top.UndoMark);
      Stack.pop_back();
    }
  }

  void visitBlock(Function &F, const AliasAnalysis &AA,
                  const DominatorTree &DT, BasicBlock *BB) {
    Context &Ctx = F.getParent()->getContext();

    // φ coalescing: two φs over identical (block, VN) incoming sets merge.
    // Each φ's key is its sorted (block number, VN) list, kept in PhiKeys;
    // a block has few φs, so earlier keys are searched linearly.
    PhiKeys.clear();
    PhiSeen.clear();
    PhiRange Phis = BB->phis();
    for (auto It = Phis.begin(); It != Phis.end();) {
      PhiNode *P = *It++;
      if (Value *Simpl = simplifyInstruction(P, Ctx)) {
        replaceAndErase(P, Simpl);
        continue;
      }
      size_t Begin = PhiKeys.size();
      for (unsigned K = 0, E = P->getNumIncoming(); K != E; ++K)
        PhiKeys.emplace_back(P->getIncomingBlock(K)->getNumber(),
                             getVN(P->getIncomingValue(K)));
      std::sort(PhiKeys.begin() + Begin, PhiKeys.end());
      size_t Len = PhiKeys.size() - Begin;
      PhiNode *Match = nullptr;
      for (const PhiKeyRef &Seen : PhiSeen)
        if (Seen.Len == Len &&
            std::equal(PhiKeys.begin() + Seen.Begin,
                       PhiKeys.begin() + Seen.Begin + Len,
                       PhiKeys.begin() + Begin)) {
          Match = Seen.Phi;
          break;
        }
      if (!Match) {
        PhiSeen.push_back({Begin, Len, P});
        continue;
      }
      PhiKeys.resize(Begin);
      if (Match->getType() == P->getType())
        replaceAndErase(P, Match);
    }

    for (Instruction *I = *BB->getFirstNonPhi(), *Next; I; I = Next) {
      Next = I->getNextNode();
      if (Value *Simpl = simplifyInstruction(I, Ctx)) {
        replaceAndErase(I, Simpl);
        continue;
      }
      if (auto *Ld = dyn_cast<LoadInst>(I)) {
        if (Value *Folded = foldConstantGlobalLoad(Ld)) {
          replaceAndErase(Ld, Folded);
          continue;
        }
        if (Value *Avail =
                findAvailableLoadValue(Ld, Ld->getPointer(), Ld->getType(), AA,
                                       DT)) {
          replaceAndErase(Ld, Avail);
        }
        continue;
      }
      ExprKey Key;
      if (!makeKey(I, Key)) {
        Table.discard(Key);
        continue;
      }
      if (Value *Avail = Table.find(Key)) {
        Table.discard(Key);
        replaceAndErase(I, Avail);
        continue;
      }
      Table.insert(Key, I);
    }
  }

  bool Changed = false;
  const Function *Fn = nullptr;
  std::vector<unsigned> LocalVN; ///< by value number
  std::unordered_map<const Value *, unsigned> OtherVN; ///< constants etc.
  unsigned NextVN = 0;
  ScopedExprTable Table;
  struct PhiKeyRef {
    size_t Begin, Len;
    PhiNode *Phi;
  };
  std::vector<std::pair<unsigned, unsigned>> PhiKeys;
  std::vector<PhiKeyRef> PhiSeen;
};

} // namespace

namespace llvmmd {
std::unique_ptr<FunctionPass> createGVNPass() {
  return std::make_unique<GVNPass>();
}
} // namespace llvmmd
