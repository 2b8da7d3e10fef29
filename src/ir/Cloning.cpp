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

/// Copies instructions block by block into already created destination
/// blocks, mapping every operand at creation:
///  - a value in Values (arguments, instructions copied so far) maps to its
///    copy;
///  - an instruction of a block being cloned that has no copy yet (a
///    forward reference: a back-edge phi operand, or a block laid out after
///    its user) gets the type's undef as a placeholder, patched the moment
///    its copy is created;
///  - anything else goes through External.
/// The source is never written. Patching forward users right after their
/// definition is created gives every copy the use-list order of the
/// source's text (forward users first, then the rest in order), which
/// passes that walk users() see.
template <typename ExternalFn> class BodyCloner {
public:
  BodyCloner(Context &Ctx, Arena &A, ExternalFn External)
      : Ctx(Ctx), A(A), External(External) {}

  std::unordered_map<const Value *, Value *> Values;
  std::unordered_map<const BasicBlock *, BasicBlock *> Blocks;

  /// Appends copies of \p Src's instructions to \p Dst; a copy is named
  /// like its source plus \p Suffix (unnamed sources stay unnamed).
  void cloneBlock(const BasicBlock *Src, BasicBlock *Dst,
                  const std::string &Suffix) {
    auto MapV = [this](Value *V) { return mapValue(V); };
    auto MapB = [this](BasicBlock *BB) {
      auto It = Blocks.find(BB);
      return It == Blocks.end() ? BB : It->second;
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
            Pending[Op].push_back({NI, K});
      Values[I] = NI;
      if (Pending.empty())
        continue;
      auto It = Pending.find(I);
      if (It == Pending.end())
        continue;
      for (auto [User, K] : It->second)
        User->setOperand(K, NI);
      Pending.erase(It);
    }
  }

  bool allResolved() const { return Pending.empty(); }

private:
  Value *mapValue(Value *V) {
    auto It = Values.find(V);
    if (It != Values.end())
      return It->second;
    if (auto *I = dyn_cast<Instruction>(V))
      if (Blocks.count(I->getParent()))
        return Ctx.getUndef(V->getType());
    return External(V);
  }

  Context &Ctx;
  Arena &A;
  ExternalFn External;
  /// Forward-referenced source instruction -> (copy, operand index) slots
  /// holding its placeholder, in creation order.
  std::unordered_map<const Instruction *,
                     std::vector<std::pair<Instruction *, unsigned>>>
      Pending;
};

} // namespace

Instruction *llvmmd::cloneInstruction(const Instruction *I, Arena &A) {
  return copyInstruction(
      I, A, [](Value *V) { return V; }, [](BasicBlock *BB) { return BB; });
}

void llvmmd::cloneFunctionBody(const Function &Src, Function &Dst,
                               const ModuleCloneMap *Shell) {
  assert(Dst.getNumBlocks() == 0 && "destination already has a body");
  BodyCloner C(Dst.getParent()->getContext(), Dst.bodyArena(),
              [Shell](Value *V) -> Value * {
                if (Shell) {
                  auto It = Shell->find(V);
                  if (It != Shell->end())
                    return It->second;
                }
                return V;
              });
  C.Values.reserve(Src.getNumArgs() + Src.getInstructionCount());
  for (unsigned I = 0, E = Src.getNumArgs(); I != E; ++I) {
    C.Values[Src.getArg(I)] = Dst.getArg(I);
    Dst.getArg(I)->setName(Src.getArg(I)->getName());
  }
  C.Blocks.reserve(Src.getNumBlocks());
  for (const BasicBlock *BB : Src.blocks())
    C.Blocks[BB] = Dst.createBlock(BB->getName());
  for (const BasicBlock *BB : Src.blocks())
    C.cloneBlock(BB, C.Blocks[BB], "");
  assert(C.allResolved() && "reference to a value defined nowhere");
}

std::vector<BasicBlock *>
llvmmd::cloneBlocks(Function &F, const std::vector<BasicBlock *> &Blocks,
                    std::map<const Value *, Value *> &VMap,
                    std::map<const BasicBlock *, BasicBlock *> &BMap,
                    const std::string &Suffix) {
  BodyCloner C(F.getParent()->getContext(), F.bodyArena(),
              [](Value *V) { return V; });
  std::vector<BasicBlock *> NewBlocks;
  for (BasicBlock *BB : Blocks) {
    BasicBlock *NewBB = F.createBlock(BB->getName() + Suffix);
    C.Blocks[BB] = NewBB;
    BMap[BB] = NewBB;
    NewBlocks.push_back(NewBB);
  }
  for (size_t I = 0; I < Blocks.size(); ++I)
    C.cloneBlock(Blocks[I], NewBlocks[I], Suffix);
  assert(C.allResolved() && "reference to a value defined nowhere");
  VMap.insert(C.Values.begin(), C.Values.end());
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
