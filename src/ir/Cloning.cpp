//===- Cloning.cpp - Function, block and module cloning --------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "ir/Cloning.h"

#include "ir/Module.h"
#include "support/Arena.h"

using namespace llvmmd;

namespace {

/// Builds a copy of \p I in \p A whose operands (and callee) are
/// MapV(operand) and whose phi incoming blocks and branch successors are
/// MapB(block). The copy has no parent.
template <typename MapV, typename MapB>
Instruction *copyInstruction(const Instruction *I, Arena &A, MapV V, MapB B) {
  switch (I->getOpcode()) {
  case Opcode::ICmp: {
    const auto *C = cast<ICmpInst>(I);
    return A.create<ICmpInst>(C->getPred(), V(C->getLHS()), V(C->getRHS()),
                              C->getType());
  }
  case Opcode::FCmp: {
    const auto *C = cast<FCmpInst>(I);
    return A.create<FCmpInst>(C->getPred(), V(C->getLHS()), V(C->getRHS()),
                              C->getType());
  }
  case Opcode::Trunc:
  case Opcode::ZExt:
  case Opcode::SExt: {
    const auto *C = cast<CastInst>(I);
    return A.create<CastInst>(C->getOpcode(), V(C->getSrc()), C->getType());
  }
  case Opcode::Select: {
    const auto *S = cast<SelectInst>(I);
    return A.create<SelectInst>(V(S->getCondition()), V(S->getTrueValue()),
                                V(S->getFalseValue()));
  }
  case Opcode::Alloca: {
    const auto *AI = cast<AllocaInst>(I);
    return A.create<AllocaInst>(AI->getAllocatedType(), V(AI->getCount()),
                                AI->getType());
  }
  case Opcode::Load: {
    const auto *L = cast<LoadInst>(I);
    return A.create<LoadInst>(L->getType(), V(L->getPointer()));
  }
  case Opcode::Store: {
    const auto *S = cast<StoreInst>(I);
    return A.create<StoreInst>(V(S->getStoredValue()), V(S->getPointer()),
                               S->getType());
  }
  case Opcode::GEP: {
    const auto *G = cast<GEPInst>(I);
    return A.create<GEPInst>(G->getElementType(), V(G->getBase()),
                             V(G->getIndex()), G->getType());
  }
  case Opcode::Call: {
    const auto *C = cast<CallInst>(I);
    std::vector<Value *> Args;
    Args.reserve(C->getNumArgs());
    for (unsigned K = 0, E = C->getNumArgs(); K != E; ++K)
      Args.push_back(V(C->getArg(K)));
    return A.create<CallInst>(cast<Function>(V(C->getCallee())),
                              std::move(Args), C->getType());
  }
  case Opcode::Phi: {
    const auto *P = cast<PhiNode>(I);
    auto *NP = A.create<PhiNode>(P->getType());
    NP->reserveIncoming(P->getNumIncoming());
    for (unsigned K = 0, E = P->getNumIncoming(); K != E; ++K)
      NP->addIncoming(V(P->getIncomingValue(K)), B(P->getIncomingBlock(K)));
    return NP;
  }
  case Opcode::Br: {
    const auto *Br = cast<BranchInst>(I);
    if (Br->isConditional())
      return A.create<BranchInst>(V(Br->getCondition()),
                                  B(Br->getSuccessor(0)),
                                  B(Br->getSuccessor(1)), Br->getType());
    return A.create<BranchInst>(B(Br->getSuccessor(0)), Br->getType());
  }
  case Opcode::Ret: {
    const auto *R = cast<ReturnInst>(I);
    Value *RV = R->getReturnValue();
    return A.create<ReturnInst>(RV ? V(RV) : nullptr, R->getType());
  }
  case Opcode::Unreachable:
    return A.create<UnreachableInst>(I->getType());
  default:
    assert(I->isBinaryOp() && "unhandled opcode in cloneInstruction");
    return A.create<BinaryOperator>(I->getOpcode(), V(I->getOperand(0)),
                                    V(I->getOperand(1)));
  }
}

} // namespace

namespace llvmmd {

/// Copies instructions block by block into already created destination
/// blocks, mapping every operand at creation:
///  - a value in the map (arguments, instructions copied so far) maps to
///    its copy;
///  - an instruction of a block being cloned that has no copy yet (a
///    forward reference: a back-edge phi operand, or a block laid out after
///    its user) gets the type's undef as a placeholder, patched the moment
///    its copy is created;
///  - anything else goes through External.
/// The source is never written. Patching forward users right after their
/// definition is created gives every copy the use-list order of the
/// source's text (forward users first, then the rest in order), which
/// passes that walk users() see. All state is indexed by the source's
/// value and block numbers.
template <typename ExternalFn> class BodyCloner {
public:
  BodyCloner(const Function &Src, CloneMap &Map, Context &Ctx, Arena &A,
             ExternalFn External)
      : Map(Map), Ctx(Ctx), A(A), External(External) {
    Map.Src = &Src;
    Map.Values.assign(Src.getMaxValueNumber(), nullptr);
    Map.Blocks.assign(Src.getMaxBlockNumber(), nullptr);
    PendingHead.assign(Src.getMaxValueNumber(), NoSlot);
    PendingTail.assign(Src.getMaxValueNumber(), NoSlot);
  }

  void mapBlock(const BasicBlock *Src, BasicBlock *Dst) {
    Map.Blocks[Src->getNumber()] = Dst;
  }
  void mapValue(const Value *Src, Value *Dst) {
    Map.Values[Src->getNumber()] = Dst;
  }

  /// Appends copies of \p Src's instructions to \p Dst; a copy is named
  /// like its source plus \p Suffix (unnamed sources stay unnamed).
  void cloneBlock(const BasicBlock *Src, BasicBlock *Dst,
                  const std::string &Suffix) {
    auto MapV = [this](Value *V) { return remap(V); };
    auto MapB = [this](BasicBlock *BB) {
      BasicBlock *Copy = Map.lookup(BB);
      return Copy ? Copy : BB;
    };
    for (const Instruction *I : *Src) {
      Instruction *NI = copyInstruction(I, A, MapV, MapB);
      if (I->hasName())
        NI->setName(Suffix.empty() ? I->getName() : I->getName() + Suffix);
      Dst->append(NI);
      // Only a forward reference maps an instruction to an undef.
      for (unsigned K = 0, E = I->getNumOperands(); K != E; ++K)
        if (auto *Op = dyn_cast<Instruction>(I->getOperand(K)))
          if (isa<UndefValue>(NI->getOperand(K)))
            addPending(Op->getNumber(), NI, K);
      const unsigned N = I->getNumber();
      Map.Values[N] = NI;
      if (NumPending == 0 || PendingHead[N] == NoSlot)
        continue;
      for (unsigned S = PendingHead[N]; S != NoSlot; S = Slots[S].Next) {
        Slots[S].User->setOperand(Slots[S].K, NI);
        --NumPending;
      }
      PendingHead[N] = PendingTail[N] = NoSlot;
    }
  }

  bool allResolved() const { return NumPending == 0; }

private:
  static constexpr unsigned NoSlot = ~0u;

  Value *remap(Value *V) {
    unsigned N = Map.localNumber(V);
    if (N == Value::NoNumber)
      return External(V);
    if (Value *Copy = Map.Values[N])
      return Copy;
    if (auto *I = dyn_cast<Instruction>(V))
      if (Map.lookup(I->getParent()))
        return Ctx.getUndef(V->getType());
    return External(V);
  }

  /// Queues (\p User, \p K) to receive the copy of source value \p N,
  /// after the slots queued for it before.
  void addPending(unsigned N, Instruction *User, unsigned K) {
    unsigned S = static_cast<unsigned>(Slots.size());
    Slots.push_back({User, K, NoSlot});
    if (PendingTail[N] == NoSlot)
      PendingHead[N] = S;
    else
      Slots[PendingTail[N]].Next = S;
    PendingTail[N] = S;
    ++NumPending;
  }

  CloneMap &Map;
  Context &Ctx;
  Arena &A;
  ExternalFn External;
  /// Forward-referenced source instruction (by number) -> the (copy,
  /// operand index) slots holding its placeholder, as a list threaded
  /// through Slots in creation order.
  struct Slot {
    Instruction *User;
    unsigned K;
    unsigned Next;
  };
  std::vector<Slot> Slots;
  std::vector<unsigned> PendingHead, PendingTail;
  size_t NumPending = 0;
};

} // namespace llvmmd

unsigned CloneMap::localNumber(const Value *V) const {
  unsigned N = V->getNumber();
  if (N == Value::NoNumber || !Src)
    return Value::NoNumber;
  if (const auto *Arg = dyn_cast<Argument>(V))
    return N < Src->getNumArgs() && Src->getArg(N) == Arg ? N
                                                           : Value::NoNumber;
  const BasicBlock *BB = cast<Instruction>(V)->getParent();
  return BB && BB->getParent() == Src && N < Values.size() ? N
                                                           : Value::NoNumber;
}

Value *CloneMap::lookup(const Value *V) const {
  unsigned N = localNumber(V);
  return N == Value::NoNumber ? nullptr : Values[N];
}

BasicBlock *CloneMap::lookup(const BasicBlock *BB) const {
  unsigned N = BB->getNumber();
  return BB->getParent() == Src && N < Blocks.size() ? Blocks[N] : nullptr;
}

Instruction *llvmmd::cloneInstruction(const Instruction *I, Arena &A) {
  return copyInstruction(
      I, A, [](Value *V) { return V; }, [](BasicBlock *BB) { return BB; });
}

void llvmmd::cloneFunctionBody(const Function &Src, Function &Dst,
                               const ModuleCloneMap *Shell) {
  assert(Dst.getNumBlocks() == 0 && "destination already has a body");
  CloneMap Map;
  BodyCloner C(Src, Map, Dst.getParent()->getContext(), Dst.bodyArena(),
               [Shell](Value *V) -> Value * {
                 // The shell maps only globals and functions.
                 if (Shell && (isa<GlobalVariable>(V) || isa<Function>(V))) {
                   auto It = Shell->find(V);
                   if (It != Shell->end())
                     return It->second;
                 }
                 return V;
               });
  for (unsigned I = 0, E = Src.getNumArgs(); I != E; ++I) {
    C.mapValue(Src.getArg(I), Dst.getArg(I));
    Dst.getArg(I)->setName(Src.getArg(I)->getName());
  }
  for (const BasicBlock *BB : Src.blocks())
    C.mapBlock(BB, Dst.createBlock(BB->getName()));
  for (const BasicBlock *BB : Src.blocks())
    C.cloneBlock(BB, Map.lookup(BB), "");
  assert(C.allResolved() && "reference to a value defined nowhere");
}

std::vector<BasicBlock *> llvmmd::cloneBlocks(
    Function &F, const std::vector<BasicBlock *> &Blocks, CloneMap &Map,
    const std::string &Suffix) {
  BodyCloner C(F, Map, F.getParent()->getContext(), F.bodyArena(),
               [](Value *V) { return V; });
  std::vector<BasicBlock *> NewBlocks;
  for (BasicBlock *BB : Blocks) {
    BasicBlock *NewBB = F.createBlock(BB->getName() + Suffix);
    C.mapBlock(BB, NewBB);
    NewBlocks.push_back(NewBB);
  }
  for (size_t I = 0; I < Blocks.size(); ++I)
    C.cloneBlock(Blocks[I], NewBlocks[I], Suffix);
  assert(C.allResolved() && "reference to a value defined nowhere");
  return NewBlocks;
}

std::unique_ptr<Module> llvmmd::cloneModuleShell(const Module &M,
                                                 ModuleCloneMap &Map) {
  auto New = std::make_unique<Module>(M.getContext(), M.getName());
  Map.reserve(M.globals().size() + M.functions().size());
  for (const GlobalVariable *G : M.globals())
    Map[G] = New->createGlobal(G->getValueType(), G->getName(),
                               G->getInitializer(), G->isConstantGlobal());
  for (const Function *F : M.functions()) {
    Function *NF = New->createFunction(F->getFunctionType(), F->getName());
    NF->setMemoryEffect(F->getMemoryEffect());
    Map[F] = NF;
  }
  return New;
}

std::unique_ptr<Module> llvmmd::cloneModule(const Module &M) {
  ModuleCloneMap Map;
  std::unique_ptr<Module> New = cloneModuleShell(M, Map);
  for (size_t I = 0, E = M.functions().size(); I != E; ++I)
    if (!M.functions()[I]->isDeclaration())
      cloneFunctionBody(*M.functions()[I], *New->functions()[I], &Map);
  return New;
}

void llvmmd::remapModuleReferences(Function &F, Module &DstModule) {
  for (BasicBlock *BB : F.blocks()) {
    for (Instruction *I : *BB) {
      for (unsigned OpI = 0, E = I->getNumOperands(); OpI != E; ++OpI)
        if (auto *GV = dyn_cast<GlobalVariable>(I->getOperand(OpI))) {
          GlobalVariable *NG = DstModule.getGlobal(GV->getName());
          assert(NG && "global missing from destination module");
          I->setOperand(OpI, NG);
        }
      if (auto *Call = dyn_cast<CallInst>(I)) {
        Function *NF = DstModule.getFunction(Call->getCallee()->getName());
        assert(NF && "callee missing from destination module");
        Call->setCallee(NF);
      }
    }
  }
}
