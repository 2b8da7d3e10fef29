//===- Normalizer.cpp - Value-graph rewrite engine ----------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "normalize/Normalizer.h"

#include "ir/Folding.h"
#include "ir/Module.h"

#include <algorithm>

using namespace llvmmd;

namespace {

class RuleEngine {
public:
  RuleEngine(ValueGraph &G, const RuleConfig &C, NormalizeStats &Stats)
      : G(G), C(C), Stats(Stats) {
    Live.reserve(G.size());
    SweepOrder.reserve(G.size());
    Stack.reserve(G.size());
  }

  /// One full sweep over the live nodes; returns the number of effective
  /// rewrites (rule applications that merged two classes).
  unsigned sweep(const std::vector<NodeId> &Roots) {
    GraphRoots = Roots;
    computeLive(Roots);
    // Pick the boolean type before any rule runs, so that what a sweep can
    // do depends only on the graph: a sweep that changes nothing is then a
    // fixpoint.
    for (auto It = Live.begin(); !BoolTy && It != Live.end(); ++It)
      if (Type *Ty = G.node(*It).Ty; Ty && Ty->isBool())
        BoolTy = Ty;
    unsigned Before = Stats.Rewrites;
    // Iterate over a snapshot of live roots; rewrites may add nodes (they
    // are processed next sweep).
    SweepOrder.assign(Live.begin(), Live.end());
    for (NodeId N : SweepOrder) {
      if (G.find(N) != N)
        continue; // already merged away this sweep
      applyRules(N);
    }
    return Stats.Rewrites - Before;
  }

private:
  /// Applies rule \p Rule: merges \p N into its replacement \p Into. Returns
  /// 1 (the rule matched, so no further rule is tried on \p N this sweep)
  /// whether or not the merge was effective; only an effective merge counts
  /// as a rewrite.
  unsigned rewrite(const char *Rule, NodeId N, NodeId Into) {
    if (G.mergeInto(N, Into)) {
      ++Stats.Rewrites;
      ++Stats.RuleFires[Rule];
    } else {
      ++Stats.NoopRewrites;
    }
    return 1;
  }

  void computeLive(const std::vector<NodeId> &Roots) {
    Live.clear();
    Marks.clear(G.size());
    Stack.clear();
    for (NodeId R : Roots)
      Stack.push_back(G.find(R));
    while (!Stack.empty()) {
      NodeId N = Stack.back();
      Stack.pop_back();
      if (!Marks.insert(N))
        continue;
      Live.push_back(N);
      for (NodeId Op : G.node(N).Ops)
        if (Op != InvalidNode)
          Stack.push_back(G.find(Op));
    }
    std::sort(Live.begin(), Live.end());
    LiveStamp = G.getMergeCount();
  }

  /// The liveness-sensitive rules (dead store / dead allocation) must see a
  /// live set that reflects all merges performed so far in this sweep.
  void refreshLive() {
    if (LiveStamp != G.getMergeCount())
      computeLive(GraphRoots);
  }

  bool isConstInt(NodeId N, int64_t *V = nullptr) const {
    const Node &Nd = G.node(N);
    if (Nd.Kind != NodeKind::ConstInt)
      return false;
    if (V)
      *V = Nd.IntVal;
    return true;
  }

  bool isBoolConst(NodeId N, bool Want) const {
    const Node &Nd = G.node(N);
    return Nd.Kind == NodeKind::ConstInt && Nd.Ty->isBool() &&
           (Nd.IntVal != 0) == Want;
  }

  NodeId boolNode(bool B) {
    // Type pointers come from the nodes themselves; find any i1 node.
    assert(BoolTy && "no boolean type seen in graph");
    return G.getConstBool(BoolTy, B);
  }

  unsigned applyRules(NodeId N) {
    switch (G.node(N).Kind) {
    case NodeKind::Op:
      return rewriteOp(N);
    case NodeKind::Gamma:
      return rewriteGamma(N);
    case NodeKind::Eta:
      return rewriteEta(N);
    case NodeKind::Load:
      return rewriteLoad(N);
    case NodeKind::Store:
      return rewriteStore(N);
    case NodeKind::AllocMem:
      return rewriteAllocMem(N);
    case NodeKind::Call:
      return rewriteCall(N);
    default:
      return 0;
    }
  }

  //===------------------------------------------------------------------===//
  // Op rules: boolean algebra, constant folding, canonicalization
  //===------------------------------------------------------------------===//

  unsigned rewriteOp(NodeId N) {
    const Node &Nd = G.node(N);
    if (Nd.Op == Opcode::GEP)
      return rewriteGEP(N);
    unsigned NumOps = Nd.Ops.size();
    if (NumOps == 1 && isCastOp(Nd.Op))
      return rewriteCast(N);
    if (NumOps != 2)
      return 0;
    NodeId A = G.operand(N, 0), B = G.operand(N, 1);

    // Constant folding (integers).
    if (C.has(RS_ConstFold)) {
      int64_t VA, VB;
      if (Nd.Op == Opcode::ICmp && isConstInt(A, &VA) && isConstInt(B, &VB)) {
        bool R = foldICmp(static_cast<ICmpPred>(Nd.Pred), VA, VB,
                          G.node(A).Ty->getBitWidth());
        return rewrite("constfold.icmp", N, G.getConstBool(Nd.Ty, R));
      }
      if (isIntBinaryOp(Nd.Op) && isConstInt(A, &VA) && isConstInt(B, &VB)) {
        auto R = foldIntBinary(Nd.Op, VA, VB, Nd.Ty->getBitWidth());
        if (R)
          return rewrite("constfold.binary", N, G.getConstInt(Nd.Ty, *R));
      }
      if (unsigned Hits = constIdentities(N, A, B))
        return Hits;
    }

    if (C.has(RS_FloatFold)) {
      const Node &NA = G.node(A), &NB = G.node(B);
      if (NA.Kind == NodeKind::ConstFloat && NB.Kind == NodeKind::ConstFloat) {
        if (isFloatBinaryOp(Nd.Op))
          return rewrite("floatfold.binary", N,
                         G.getConstFloat(Nd.Ty, foldFloatBinary(Nd.Op,
                                                                NA.FloatVal,
                                                                NB.FloatVal)));
        if (Nd.Op == Opcode::FCmp)
          return rewrite(
              "floatfold.fcmp", N,
              G.getConstBool(Nd.Ty, foldFCmp(static_cast<FCmpPred>(Nd.Pred),
                                             NA.FloatVal, NB.FloatVal)));
      }
    }

    if (C.has(RS_Boolean)) {
      if (unsigned Hits = booleanRules(N, A, B))
        return Hits;
    }

    if (C.has(RS_Canonicalize)) {
      if (unsigned Hits = canonicalizeOp(N, A, B))
        return Hits;
    }
    return 0;
  }

  unsigned constIdentities(NodeId N, NodeId A, NodeId B) {
    const Node &Nd = G.node(N);
    int64_t VA = 0, VB = 0;
    bool CA = isConstInt(A, &VA), CB = isConstInt(B, &VB);
    // Same-operand identities, mirroring the optimizer's simplifier.
    if (A == B) {
      switch (Nd.Op) {
      case Opcode::And:
      case Opcode::Or:
        return rewrite("constfold.idem", N, A);
      case Opcode::Xor:
      case Opcode::Sub:
        return rewrite("constfold.self-cancel", N, G.getConstInt(Nd.Ty, 0));
      default:
        break;
      }
    }
    switch (Nd.Op) {
    case Opcode::Add:
      // Commutative identities must look at both sides: hash-consing
      // orders operands by node id, which often puts constants first.
      if (CB && VB == 0)
        return rewrite("constfold.add0", N, A);
      if (CA && VA == 0)
        return rewrite("constfold.add0", N, B);
      break;
    case Opcode::Sub:
      if (CB && VB == 0)
        return rewrite("constfold.sub0", N, A);
      break;
    case Opcode::Mul:
      if (CB && VB == 1)
        return rewrite("constfold.mul1", N, A);
      if (CA && VA == 1)
        return rewrite("constfold.mul1", N, B);
      if ((CA && VA == 0) || (CB && VB == 0))
        return rewrite("constfold.mul0", N, G.getConstInt(Nd.Ty, 0));
      break;
    case Opcode::And:
      if ((CA && VA == 0) || (CB && VB == 0))
        return rewrite("constfold.and0", N, G.getConstInt(Nd.Ty, 0));
      if (CB && VB == -1)
        return rewrite("constfold.and1s", N, A);
      if (CA && VA == -1)
        return rewrite("constfold.and1s", N, B);
      break;
    case Opcode::Or:
      if (CB && VB == 0)
        return rewrite("constfold.or0", N, A);
      if (CA && VA == 0)
        return rewrite("constfold.or0", N, B);
      break;
    case Opcode::Xor:
      if (CB && VB == 0)
        return rewrite("constfold.xor0", N, A);
      if (CA && VA == 0)
        return rewrite("constfold.xor0", N, B);
      break;
    case Opcode::Shl:
    case Opcode::LShr:
    case Opcode::AShr:
      if (CB && VB == 0)
        return rewrite("constfold.shift0", N, A);
      break;
    case Opcode::SDiv:
    case Opcode::UDiv:
      if (CB && VB == 1)
        return rewrite("constfold.div1", N, A);
      break;
    default:
      break;
    }
    return 0;
  }

  unsigned booleanRules(NodeId N, NodeId A, NodeId B) {
    const Node &Nd = G.node(N);
    if (Nd.Op == Opcode::ICmp) {
      auto P = static_cast<ICmpPred>(Nd.Pred);
      // Rules (1)-(2): a == a ↓ true, a != a ↓ false (and orderings).
      if (A == B) {
        bool R = P == ICmpPred::EQ || P == ICmpPred::SLE ||
                 P == ICmpPred::SGE || P == ICmpPred::ULE ||
                 P == ICmpPred::UGE;
        bool IsOrderLike =
            P != ICmpPred::EQ && P != ICmpPred::NE; // all handled anyway
        (void)IsOrderLike;
        return rewrite("boolean.cmp-same", N, G.getConstBool(Nd.Ty, R));
      }
      // Rules (3)-(4) at i1: a == true ↓ a, a != false ↓ a.
      if (G.node(A).Ty && G.node(A).Ty->isBool()) {
        if (P == ICmpPred::EQ && isBoolConst(B, true))
          return rewrite("boolean.eq-true", N, A);
        if (P == ICmpPred::NE && isBoolConst(B, false))
          return rewrite("boolean.ne-false", N, A);
        if (P == ICmpPred::EQ && isBoolConst(A, true))
          return rewrite("boolean.eq-true", N, B);
        if (P == ICmpPred::NE && isBoolConst(A, false))
          return rewrite("boolean.ne-false", N, B);
      }
      return 0;
    }
    if (!Nd.Ty || !Nd.Ty->isBool())
      return 0;
    // Complement recognition: y == ¬x.
    auto IsNotOf = [&](NodeId X, NodeId Y) {
      const Node &NY = G.node(Y);
      if (NY.Kind != NodeKind::Op || NY.Op != Opcode::Xor ||
          NY.Ops.size() != 2)
        return false;
      NodeId YA = G.find(NY.Ops[0]), YB = G.find(NY.Ops[1]);
      return (YA == X && isBoolConst(YB, true)) ||
             (YB == X && isBoolConst(YA, true));
    };
    switch (Nd.Op) {
    case Opcode::And:
      if (A == B || isBoolConst(B, true))
        return rewrite("boolean.and", N, A);
      if (isBoolConst(A, true))
        return rewrite("boolean.and", N, B);
      if (isBoolConst(A, false) || isBoolConst(B, false))
        return rewrite("boolean.and-false", N, boolNode(false));
      if (IsNotOf(A, B) || IsNotOf(B, A))
        return rewrite("boolean.and-complement", N, boolNode(false));
      break;
    case Opcode::Or:
      if (A == B || isBoolConst(B, false))
        return rewrite("boolean.or", N, A);
      if (isBoolConst(A, false))
        return rewrite("boolean.or", N, B);
      if (isBoolConst(A, true) || isBoolConst(B, true))
        return rewrite("boolean.or-true", N, boolNode(true));
      if (IsNotOf(A, B) || IsNotOf(B, A))
        return rewrite("boolean.or-complement", N, boolNode(true));
      break;
    case Opcode::Xor: {
      // not(not(x)) ↓ x ; xor x false ↓ x ; xor x x ↓ false. The constant
      // may sit on either side after commutative canonicalization.
      if (A == B)
        return rewrite("boolean.xor-same", N, boolNode(false));
      for (auto [X, K] : {std::pair{A, B}, std::pair{B, A}}) {
        if (isBoolConst(K, false))
          return rewrite("boolean.xor-false", N, X);
        if (!isBoolConst(K, true))
          continue;
        const Node &NX = G.node(X);
        if (NX.Kind == NodeKind::Op && NX.Op == Opcode::Xor &&
            NX.Ops.size() == 2) {
          // Inner negation: find its non-constant side.
          NodeId IA = G.find(NX.Ops[0]), IB = G.find(NX.Ops[1]);
          for (auto [IX, IK] : {std::pair{IA, IB}, std::pair{IB, IA}}) {
            if (isBoolConst(IK, true))
              return rewrite("boolean.not-not", N, IX);
          }
        }
        if (NX.Kind == NodeKind::ConstInt)
          return rewrite("boolean.not-const", N, boolNode(NX.IntVal == 0));
      }
      break;
    }
    default:
      break;
    }
    return 0;
  }

  unsigned canonicalizeOp(NodeId N, NodeId A, NodeId B) {
    const Node &Nd = G.node(N);
    int64_t VA, VB;
    switch (Nd.Op) {
    case Opcode::Add:
      // a + a ↓ shl a 1 (LLVM prefers the shift).
      if (A == B)
        return rewrite("canon.add-self", N,
                       G.getOp(Opcode::Shl, Nd.Ty,
                               {A, G.getConstInt(Nd.Ty, 1)}));
      // add x (-k) ↓ sub x k. The constant may sit on either side: the
      // hash-consed operand order is by node id, not by kind.
      for (auto [X, K] : {std::pair{A, B}, std::pair{B, A}}) {
        if (isConstInt(K, &VB) && VB < 0 &&
            VB != signExtend(int64_t(1) << (Nd.Ty->getBitWidth() - 1),
                             Nd.Ty->getBitWidth()))
          return rewrite("canon.add-neg", N,
                         G.getOp(Opcode::Sub, Nd.Ty,
                                 {X, G.getConstInt(Nd.Ty, -VB)}));
      }
      break;
    case Opcode::Sub:
      if (A == B && C.has(RS_ConstFold))
        return rewrite("canon.sub-self", N, G.getConstInt(Nd.Ty, 0));
      break;
    case Opcode::Mul:
      // mul a 2^k ↓ shl a k (either operand order).
      for (auto [X, K] : {std::pair{A, B}, std::pair{B, A}}) {
        if (isConstInt(K, &VA) && VA > 1 &&
            (static_cast<uint64_t>(VA) &
             (static_cast<uint64_t>(VA) - 1)) == 0) {
          unsigned Shift = 0;
          while ((int64_t(1) << Shift) != VA)
            ++Shift;
          return rewrite("canon.mul-pow2", N,
                         G.getOp(Opcode::Shl, Nd.Ty,
                                 {X, G.getConstInt(Nd.Ty, Shift)}));
        }
      }
      break;
    case Opcode::ICmp: {
      // A constant goes on the right (gt 10 a ↓ lt a 10). Two non-constants
      // are oriented by node order, so that GVN's predicate
      // canonicalization (a < b vs b > a) meets in one form. The two cases
      // are disjoint, so neither rule ever undoes the other.
      bool ConstA = G.node(A).Kind == NodeKind::ConstInt;
      bool ConstB = G.node(B).Kind == NodeKind::ConstInt;
      const char *Rule = nullptr;
      if (ConstA && !ConstB)
        Rule = "canon.cmp-swap";
      else if (!ConstA && !ConstB && B < A)
        Rule = "canon.cmp-orient";
      if (!Rule)
        break;
      return rewrite(Rule, N,
                     G.getOp(Opcode::ICmp, Nd.Ty, {B, A},
                             static_cast<uint8_t>(swapPred(
                                 static_cast<ICmpPred>(Nd.Pred)))));
    }
    default:
      break;
    }
    return 0;
  }

  unsigned rewriteCast(NodeId N) {
    if (!C.has(RS_ConstFold))
      return 0;
    const Node &Nd = G.node(N);
    NodeId S = G.operand(N, 0);
    int64_t V;
    if (isConstInt(S, &V))
      return rewrite("constfold.cast", N,
                     G.getConstInt(Nd.Ty, foldCast(Nd.Op, V,
                                                   G.node(S).Ty->getBitWidth(),
                                                   Nd.Ty->getBitWidth())));
    return 0;
  }

  unsigned rewriteGEP(NodeId N) {
    if (!C.has(RS_ConstFold))
      return 0;
    NodeId Idx = G.operand(N, 1);
    int64_t V;
    if (isConstInt(Idx, &V) && V == 0)
      return rewrite("constfold.gep0", N, G.operand(N, 0));
    return 0;
  }

  //===------------------------------------------------------------------===//
  // Gamma rules (5)-(6)
  //===------------------------------------------------------------------===//

  unsigned rewriteGamma(NodeId N) {
    if (!C.has(RS_PhiSimplify))
      return 0;
    const Node &Nd = G.node(N);
    std::vector<std::pair<NodeId, NodeId>> Branches;
    bool Dropped = false;
    NodeId TrueBranchValue = InvalidNode;
    for (unsigned K = 0; K + 1 < Nd.Ops.size(); K += 2) {
      NodeId Cond = G.find(Nd.Ops[K]);
      NodeId Val = G.find(Nd.Ops[K + 1]);
      if (isBoolConst(Cond, false)) {
        Dropped = true;
        continue; // dead branch
      }
      if (isBoolConst(Cond, true) && TrueBranchValue == InvalidNode)
        TrueBranchValue = Val;
      Branches.emplace_back(Cond, Val);
    }
    // Rule (5): a branch whose conditions hold is the value.
    if (TrueBranchValue != InvalidNode)
      return rewrite("phi.rule5", N, TrueBranchValue);
    if (Branches.empty())
      return 0; // all branches dead: undefined; leave untouched
    // Rule (6): all branches agree.
    bool AllSame = true;
    for (auto &[Cond, Val] : Branches)
      AllSame &= Val == Branches.front().second;
    if (AllSame)
      return rewrite("phi.rule6", N, Branches.front().second);
    if (Dropped)
      return rewrite("phi.drop-false", N, G.getGamma(Nd.Ty, Branches));
    // Flatten a nested γ: a branch (c, γ(d_i → v_i)) becomes the branches
    // (c ∧ d_i → v_i). This is how a select tree and a multi-way φ over
    // conjunctive gates meet in one canonical flat form (footnote 1 of the
    // paper: short-circuit conditions make such φs common).
    for (unsigned Which = 0; Which < Branches.size(); ++Which) {
      const Node &NV = G.node(Branches[Which].second);
      if (NV.Kind != NodeKind::Gamma)
        continue;
      if (!BoolTy)
        break; // cannot build conjunctions yet
      std::vector<std::pair<NodeId, NodeId>> Flat;
      for (unsigned K2 = 0; K2 < Branches.size(); ++K2)
        if (K2 != Which)
          Flat.push_back(Branches[K2]);
      NodeId Outer = Branches[Which].first;
      for (unsigned K2 = 0; K2 + 1 < NV.Ops.size(); K2 += 2) {
        NodeId InnerC = G.find(NV.Ops[K2]);
        NodeId InnerV = G.find(NV.Ops[K2 + 1]);
        Flat.emplace_back(G.getOp(Opcode::And, BoolTy, {Outer, InnerC}),
                          InnerV);
      }
      return rewrite("phi.flatten", N, G.getGamma(Nd.Ty, Flat));
    }
    // Boolean γ(c → true, !c → false) ↓ c.
    if (C.has(RS_Boolean) && Nd.Ty && Nd.Ty->isBool() &&
        Branches.size() == 2) {
      for (unsigned Which = 0; Which < 2; ++Which) {
        NodeId CT = Branches[Which].first, VT = Branches[Which].second;
        NodeId VF = Branches[1 - Which].second;
        if (isBoolConst(VT, true) && isBoolConst(VF, false))
          return rewrite("boolean.gamma-to-cond", N, CT);
      }
    }
    return 0;
  }

  //===------------------------------------------------------------------===//
  // Eta / Mu rules (7)-(9) + commuting
  //===------------------------------------------------------------------===//

  unsigned rewriteEta(NodeId N) {
    NodeId Cond = G.operand(N, 0);
    NodeId Val = G.operand(N, 1);
    const Node &NV = G.node(Val);

    if (C.has(RS_EtaMu)) {
      if (NV.Kind == NodeKind::Mu && NV.Ops[0] != InvalidNode) {
        NodeId Init = G.find(NV.Ops[0]);
        NodeId Next = G.find(NV.Ops[1]);
        // Rule (7): the loop never executes.
        if (isBoolConst(Cond, false))
          return rewrite("eta.rule7", N, Init);
        // Rule (7) continued: a loop whose guard is false on entry. The
      // stay condition seen symbolically contains the μ streams; evaluate
      // it at the first iteration by substituting every μ by its initial
      // value (η nodes are opaque: they belong to other loops).
      if (auto First = firstIterValue(Cond, 0); First && *First == 0)
        return rewrite("eta.rule7-first-iter", N, Init);
      // Rule (8): μ(x, x) — the value never varies.
        if (Init == Next)
          return rewrite("eta.rule8", N, Init);
        // Rule (9): μ(x, self) — generalized to μ whose iteration value is
        // itself behind η layers (an inner loop that never modified it).
        NodeId Strip = Next;
        while (G.node(Strip).Kind == NodeKind::Eta)
          Strip = G.find(G.node(Strip).Ops[1]);
        if (Strip == Val)
          return rewrite("eta.rule9", N, Init);
      }
      // η over a loop-free value is the value itself.
      if (NV.Kind != NodeKind::Mu && !G.coneContainsMu(Val))
        return rewrite("eta.loop-free", N, Val);
    }

    if (C.has(RS_Commuting)) {
      // Validating loop unswitching: distribute a loop-invariant γ out of
      // the μ cycle by duplicating the loop under both polarities.
      if (NV.Kind == NodeKind::Mu && NV.Ops[0] != InvalidNode) {
        if (unsigned Hits = unswitchEta(N, Cond, Val))
          return Hits;
      }
      // Push η toward μ: distribute over pure structure.
      if (NV.Kind == NodeKind::Op) {
        std::vector<NodeId> NewOps;
        for (NodeId Op : NV.Ops)
          NewOps.push_back(G.getEta(G.node(G.find(Op)).Ty, Cond, G.find(Op)));
        return rewrite("commute.eta-op", N,
                       G.getOp(NV.Op, NV.Ty, std::move(NewOps), NV.Pred,
                               NV.IntVal));
      }
      if (NV.Kind == NodeKind::Gamma) {
        std::vector<std::pair<NodeId, NodeId>> Branches;
        for (unsigned K = 0; K + 1 < NV.Ops.size(); K += 2) {
          NodeId BC = G.find(NV.Ops[K]);
          NodeId BV = G.find(NV.Ops[K + 1]);
          Branches.emplace_back(G.getEta(G.node(BC).Ty, Cond, BC),
                                G.getEta(G.node(BV).Ty, Cond, BV));
        }
        return rewrite("commute.eta-gamma", N, G.getGamma(NV.Ty, Branches));
      }
      if (NV.Kind == NodeKind::Load) {
        NodeId P = G.find(NV.Ops[0]), M = G.find(NV.Ops[1]);
        return rewrite("commute.eta-load", N,
                       G.getLoad(NV.Ty, G.getEta(G.node(P).Ty, Cond, P),
                                 G.getEta(nullptr, Cond, M)));
      }
      if (NV.Kind == NodeKind::Store) {
        NodeId V = G.find(NV.Ops[0]), P = G.find(NV.Ops[1]),
               M = G.find(NV.Ops[2]);
        return rewrite("commute.eta-store", N,
                       G.getStore(G.getEta(G.node(V).Ty, Cond, V),
                                  G.getEta(G.node(P).Ty, Cond, P),
                                  G.getEta(nullptr, Cond, M)));
      }
    }
    return 0;
  }

  /// True if the byte range [PtrOff, PtrOff+Size) of \p Ptr lies wholly
  /// inside the memset fill [DstOff, DstOff+Len) over the same base.
  bool memsetCovers(NodeId Dst, int64_t Len, NodeId Ptr, unsigned Size) {
    auto Walk = [&](NodeId P, int64_t &Off) -> NodeId {
      Off = 0;
      NodeId Cur = G.find(P);
      while (G.node(Cur).Kind == NodeKind::Op &&
             G.node(Cur).Op == Opcode::GEP) {
        const Node &NG = G.node(Cur);
        const Node &Idx = G.node(G.find(NG.Ops[1]));
        if (Idx.Kind != NodeKind::ConstInt)
          return InvalidNode;
        Off += Idx.IntVal * NG.IntVal;
        Cur = G.find(NG.Ops[0]);
      }
      return Cur;
    };
    int64_t DstOff, PtrOff;
    NodeId DstBase = Walk(Dst, DstOff);
    NodeId PtrBase = Walk(Ptr, PtrOff);
    if (DstBase == InvalidNode || PtrBase == InvalidNode ||
        DstBase != PtrBase)
      return false;
    return PtrOff >= DstOff &&
           PtrOff + static_cast<int64_t>(Size) <= DstOff + Len;
  }

  /// Evaluates \p N at a loop's first iteration: μ nodes contribute their
  /// initial value, constants themselves, pure integer ops fold; anything
  /// else (η, loads, calls, params) is unknown.
  std::optional<int64_t> firstIterValue(NodeId N, unsigned Depth) {
    if (Depth > 64)
      return std::nullopt;
    N = G.find(N);
    const Node &Nd = G.node(N);
    switch (Nd.Kind) {
    case NodeKind::ConstInt:
      return Nd.IntVal;
    case NodeKind::Mu:
      if (Nd.Ops[0] == InvalidNode)
        return std::nullopt;
      return firstIterValue(Nd.Ops[0], Depth + 1);
    case NodeKind::Op: {
      if (!Nd.Ty || !Nd.Ty->isInteger())
        return std::nullopt;
      if (Nd.Op == Opcode::ICmp && Nd.Ops.size() == 2) {
        auto A = firstIterValue(Nd.Ops[0], Depth + 1);
        auto B = firstIterValue(Nd.Ops[1], Depth + 1);
        if (!A || !B)
          return std::nullopt;
        Type *OpTy = G.node(G.find(Nd.Ops[0])).Ty;
        if (!OpTy || !OpTy->isInteger())
          return std::nullopt;
        return foldICmp(static_cast<ICmpPred>(Nd.Pred), *A, *B,
                        OpTy->getBitWidth())
                   ? 1
                   : 0;
      }
      if (isIntBinaryOp(Nd.Op) && Nd.Ops.size() == 2) {
        auto A = firstIterValue(Nd.Ops[0], Depth + 1);
        auto B = firstIterValue(Nd.Ops[1], Depth + 1);
        if (!A || !B)
          return std::nullopt;
        auto R = foldIntBinary(Nd.Op, *A, *B, Nd.Ty->getBitWidth());
        return R ? std::optional<int64_t>(*R) : std::nullopt;
      }
      if (isCastOp(Nd.Op) && Nd.Ops.size() == 1) {
        auto A = firstIterValue(Nd.Ops[0], Depth + 1);
        Type *SrcTy = G.node(G.find(Nd.Ops[0])).Ty;
        if (!A || !SrcTy || !SrcTy->isInteger())
          return std::nullopt;
        return foldCast(Nd.Op, *A, SrcTy->getBitWidth(),
                        Nd.Ty->getBitWidth());
      }
      return std::nullopt;
    }
    default:
      return std::nullopt;
    }
  }

  //===------------------------------------------------------------------===//
  // Unswitch commuting: η(e, μ[... γ(c,a,b) ...]) with loop-invariant c
  // becomes γ(c → η_t, ¬c → η_f), where η_t/η_f are copies of the loop
  // with the γ resolved to its true/false side. Mirrors what the loop
  // unswitching pass did to the optimized function.
  //===------------------------------------------------------------------===//

  /// Finds a two-branch γ inside the cone of \p Mu whose branch conditions
  /// are {c, ¬c} with c independent of the loop (no path back to Mu).
  /// Returns (gamma, c, trueVal, falseVal) via out-params.
  bool findInvariantGamma(NodeId Mu, NodeId &GammaOut, NodeId &CondOut,
                          NodeId &TrueOut, NodeId &FalseOut) {
    Marks.clear(G.size());
    Stack.assign(1, G.operand(Mu, 1));
    Candidates.clear();
    unsigned Seen = 0;
    while (!Stack.empty()) {
      NodeId N = G.find(Stack.back());
      Stack.pop_back();
      // Nodes past the first 512 are marked but not expanded.
      if (!Marks.insert(N) || ++Seen > 512)
        continue;
      const Node &Nd = G.node(N);
      if (Nd.Kind == NodeKind::Gamma && Nd.Ops.size() == 4)
        Candidates.push_back(N);
      for (NodeId Op : Nd.Ops)
        if (Op != InvalidNode)
          Stack.push_back(Op);
    }
    std::sort(Candidates.begin(), Candidates.end());
    for (NodeId N : Candidates) {
      const Node &Nd = G.node(N);
      NodeId C1 = G.find(Nd.Ops[0]), V1 = G.find(Nd.Ops[1]);
      NodeId C2 = G.find(Nd.Ops[2]), V2 = G.find(Nd.Ops[3]);
      // Match {c, xor(c, true)} in either order.
      auto NotOf = [&](NodeId X) -> NodeId {
        const Node &NX = G.node(X);
        if (NX.Kind == NodeKind::Op && NX.Op == Opcode::Xor &&
            NX.Ops.size() == 2) {
          NodeId A = G.find(NX.Ops[0]), B = G.find(NX.Ops[1]);
          if (isBoolConst(B, true))
            return A;
          if (isBoolConst(A, true))
            return B;
        }
        return InvalidNode;
      };
      NodeId Cond = InvalidNode, TV = InvalidNode, FV = InvalidNode;
      if (NotOf(C2) == C1) {
        Cond = C1;
        TV = V1;
        FV = V2;
      } else if (NotOf(C1) == C2) {
        Cond = C2;
        TV = V2;
        FV = V1;
      } else {
        continue;
      }
      // The condition must not depend on the loop (and must not be
      // trivially constant, which PhiSimplify would handle).
      if (reaches(Cond, Mu))
        continue;
      GammaOut = N;
      CondOut = Cond;
      TrueOut = TV;
      FalseOut = FV;
      return true;
    }
    return false;
  }

  /// True if \p Target is reachable from \p From over current roots.
  bool reaches(NodeId From, NodeId Target) {
    Target = G.find(Target);
    Marks.clear(G.size());
    Stack.assign(1, G.find(From));
    unsigned Seen = 0;
    while (!Stack.empty()) {
      NodeId N = G.find(Stack.back());
      Stack.pop_back();
      if (N == Target)
        return true;
      // Nodes past the first 2048 are marked but not expanded.
      if (!Marks.insert(N) || ++Seen > 2048)
        continue;
      for (NodeId Op : G.node(N).Ops)
        if (Op != InvalidNode)
          Stack.push_back(Op);
    }
    return false;
  }

  /// Marks a clone memo entry that has not been visited; InvalidNode
  /// records a failed clone.
  static constexpr NodeId Unvisited = InvalidNode - 1;

  /// Clones the cone of \p N substituting γ \p Gamma by \p Repl; nodes that
  /// cannot reach either the γ or the μ \p Mu are shared, not cloned. Memo
  /// maps a node id to its clone (or Unvisited); it only ever holds nodes
  /// that existed when the clone began, since cloning merges nothing.
  NodeId cloneSubst(NodeId N, NodeId Gamma, NodeId Repl, NodeId Mu,
                    std::vector<NodeId> &Memo) {
    N = G.find(N);
    if (N == G.find(Gamma))
      return cloneSubst(Repl, Gamma, Repl, Mu, Memo);
    assert(N < Memo.size() && "cloning reached a node newer than its memo");
    if (Memo[N] != Unvisited)
      return Memo[N];
    if (!reaches(N, Gamma) && !reaches(N, Mu)) {
      Memo[N] = N; // invariant: share
      return N;
    }
    const Node &Nd = G.node(N);
    if (Nd.Kind == NodeKind::Mu) {
      if (Nd.Ops[0] == InvalidNode || Nd.Ops[1] == InvalidNode)
        return InvalidNode; // unfinished μ (should not be live)
      NodeId NewMu = G.makeMu(Nd.Ty);
      Memo[N] = NewMu; // break the cycle before recursing
      NodeId Init = cloneSubst(Nd.Ops[0], Gamma, Repl, Mu, Memo);
      NodeId Next = cloneSubst(Nd.Ops[1], Gamma, Repl, Mu, Memo);
      if (Init == InvalidNode || Next == InvalidNode) {
        // Park the unfinished μ on itself so it is inert, and fail.
        G.setMuOperands(NewMu, NewMu, NewMu);
        Memo[N] = InvalidNode;
        return InvalidNode;
      }
      G.setMuOperands(NewMu, Init, Next);
      return NewMu;
    }
    Node Copy = Nd;
    Memo[N] = InvalidNode; // cycle guard (non-μ cycles should not exist)
    for (NodeId &Op : Copy.Ops) {
      if (Op == InvalidNode)
        continue;
      Op = cloneSubst(Op, Gamma, Repl, Mu, Memo);
      if (Op == InvalidNode) {
        // A cycle not broken by a μ (or a prior failure): give up on this
        // clone entirely; the caller abandons the rewrite.
        Memo[N] = InvalidNode;
        return InvalidNode;
      }
    }
    NodeId New;
    switch (Copy.Kind) {
    case NodeKind::Op:
      New = G.getOp(Copy.Op, Copy.Ty, Copy.Ops, Copy.Pred, Copy.IntVal);
      break;
    case NodeKind::Gamma: {
      std::vector<std::pair<NodeId, NodeId>> Branches;
      for (unsigned K = 0; K + 1 < Copy.Ops.size(); K += 2)
        Branches.emplace_back(Copy.Ops[K], Copy.Ops[K + 1]);
      New = G.getGamma(Copy.Ty, Branches);
      break;
    }
    case NodeKind::Eta:
      New = G.getEta(Copy.Ty, Copy.Ops[0], Copy.Ops[1]);
      break;
    case NodeKind::Load:
      New = G.getLoad(Copy.Ty, Copy.Ops[0], Copy.Ops[1]);
      break;
    case NodeKind::Store:
      New = G.getStore(Copy.Ops[0], Copy.Ops[1], Copy.Ops[2]);
      break;
    case NodeKind::Alloc:
      New = G.getAlloc(Copy.Ops[0], Copy.Ops[1],
                       static_cast<unsigned>(Copy.IntVal));
      break;
    case NodeKind::AllocMem:
      New = G.getAllocMem(Copy.Ops[0]);
      break;
    case NodeKind::Call:
      New = G.getCall(Copy.Str, static_cast<MemoryEffect>(Copy.IntVal),
                      Copy.Ty, Copy.Ops);
      break;
    case NodeKind::CallMem:
      New = G.getCallMem(Copy.Ops[0]);
      break;
    default:
      New = N; // leaves are never cloned
      break;
    }
    Memo[N] = New;
    return New;
  }

  unsigned unswitchEta(NodeId N, NodeId Cond, NodeId Mu) {
    if (Unswitches == MaxUnswitchesPerRun)
      return 0;
    NodeId Gamma = InvalidNode, C2 = InvalidNode, TV = InvalidNode,
           FV = InvalidNode;
    if (!findInvariantGamma(Mu, Gamma, C2, TV, FV))
      return 0;
    Type *EtaTy = G.node(N).Ty;
    Memo.assign(G.size(), Unvisited);
    NodeId CondT = cloneSubst(Cond, Gamma, TV, Mu, Memo);
    NodeId MuT = cloneSubst(Mu, Gamma, TV, Mu, Memo);
    Memo.assign(G.size(), Unvisited);
    NodeId CondF = cloneSubst(Cond, Gamma, FV, Mu, Memo);
    NodeId MuF = cloneSubst(Mu, Gamma, FV, Mu, Memo);
    if (CondT == InvalidNode || MuT == InvalidNode || CondF == InvalidNode ||
        MuF == InvalidNode)
      return 0; // unclonable cone; leave the η alone
    NodeId EtaT = G.getEta(EtaTy, CondT, MuT);
    NodeId EtaF = G.getEta(EtaTy, CondF, MuF);
    assert(BoolTy && "unswitching without a boolean type in the graph");
    NodeId NotC = G.getOp(Opcode::Xor, BoolTy, {C2, boolNode(true)});
    rewrite("commute.unswitch", N,
            G.getGamma(EtaTy, {{C2, EtaT}, {NotC, EtaF}}));
    Unswitches += G.find(N) != N; // count effective unswitches only
    return 1;
  }

  //===------------------------------------------------------------------===//
  // Memory rules (10)-(11), dead stores/allocations, libc knowledge
  //===------------------------------------------------------------------===//

  unsigned accessSize(const Node &LoadNode) const {
    return LoadNode.Ty ? LoadNode.Ty->getStoreSize() : 1;
  }

  unsigned rewriteLoad(NodeId N) {
    if (!C.has(RS_LoadStore))
      return 0;
    const Node &Nd = G.node(N);
    NodeId Ptr = G.operand(N, 0);
    NodeId Mem = G.operand(N, 1);
    const Node &NM = G.node(Mem);

    if (NM.Kind == NodeKind::Store) {
      NodeId SV = G.find(NM.Ops[0]);
      NodeId SP = G.find(NM.Ops[1]);
      NodeId SM = G.find(NM.Ops[2]);
      unsigned LSize = accessSize(Nd);
      unsigned SSize = G.node(SV).Ty ? G.node(SV).Ty->getStoreSize() : 1;
      int AR = G.aliasPointers(Ptr, SP, LSize, SSize);
      // Rule (11): load of the just-stored value.
      if (AR == 2 && G.node(SV).Ty == Nd.Ty)
        return rewrite("loadstore.rule11", N, SV);
      // Rule (10): the load jumps over a non-aliasing store.
      if (AR == 0)
        return rewrite("loadstore.rule10", N, G.getLoad(Nd.Ty, Ptr, SM));
      return 0;
    }
    // Allocations do not write memory: jump over them.
    if (NM.Kind == NodeKind::AllocMem) {
      NodeId Alloc = G.find(NM.Ops[0]);
      NodeId PreMem = G.operand(Alloc, 1);
      return rewrite("loadstore.skip-alloc", N, G.getLoad(Nd.Ty, Ptr, PreMem));
    }
    // Folding a load of a constant global (extension rule set).
    if (C.has(RS_GlobalFold) && C.M) {
      const Node &NP = G.node(Ptr);
      if (NP.Kind == NodeKind::Global && NP.IntVal /*constant-qualified*/) {
        if (const GlobalVariable *GV = C.M->getGlobal(NP.Str)) {
          if (GV->hasInitializer() && GV->getValueType() == Nd.Ty) {
            if (const auto *CI = dyn_cast<ConstantInt>(GV->getInitializer()))
              return rewrite("globalfold.load", N,
                             G.getConstInt(Nd.Ty, CI->getSExtValue()));
            if (const auto *CF = dyn_cast<ConstantFP>(GV->getInitializer()))
              return rewrite("globalfold.load", N,
                             G.getConstFloat(Nd.Ty, CF->getValue()));
          }
        }
      }
    }
    // A load whose memory is a loop μ can read the loop's initial memory
    // when no write inside the cycle may alias it (mirrors LICM hoisting a
    // load out of a loop that only writes elsewhere).
    if (NM.Kind == NodeKind::Mu && NM.Ops[0] != InvalidNode) {
      if (muWritesDisjointFrom(Mem, {Ptr}))
        return rewrite("loadstore.load-over-loop", N,
                       G.getLoad(Nd.Ty, Ptr, G.find(NM.Ops[0])));
    }
    // Libc: loads may jump over memset to a disjoint region, or read the
    // memset fill byte.
    if (C.has(RS_Libc) && NM.Kind == NodeKind::CallMem) {
      NodeId Call = G.find(NM.Ops[0]);
      const Node &NC = G.node(Call);
      if (NC.Str == "memset" && NC.Ops.size() == 4) {
        NodeId Dst = G.find(NC.Ops[0]);
        NodeId Fill = G.find(NC.Ops[1]);
        NodeId Len = G.find(NC.Ops[2]);
        NodeId PreMem = G.find(NC.Ops[3]);
        int64_t LenV;
        unsigned LSize = accessSize(Nd);
        const Node &LenNode = G.node(Len);
        if (LenNode.Kind == NodeKind::ConstInt) {
          LenV = LenNode.IntVal < 0 ? 0 : LenNode.IntVal;
          int AR = G.aliasPointers(Ptr, Dst, LSize,
                                   static_cast<unsigned>(LenV));
          if (AR == 0)
            return rewrite("libc.load-over-memset", N,
                           G.getLoad(Nd.Ty, Ptr, PreMem));
          // Reading a byte wholly inside the filled region yields the fill
          // value (the paper's memset rule, l2 < l1).
          int64_t FillV;
          if (LSize == 1 && isConstInt(Fill, &FillV) && Nd.Ty->isInteger() &&
              memsetCovers(Dst, LenV, Ptr, LSize))
            return rewrite("libc.memset-read", N,
                           G.getConstInt(Nd.Ty, signExtend(FillV, 8)));
        }
      }
    }
    return 0;
  }

  unsigned rewriteStore(NodeId N) {
    if (!C.has(RS_LoadStore))
      return 0;
    NodeId Val = G.find(G.node(N).Ops[0]);
    NodeId Ptr = G.operand(N, 1);
    NodeId Mem = G.operand(N, 2);
    const Node &NM = G.node(Mem);
    // Store-over-store to the same location: the older store is dead.
    if (NM.Kind == NodeKind::Store) {
      NodeId SP = G.find(NM.Ops[1]);
      NodeId SM = G.find(NM.Ops[2]);
      unsigned NewSize = G.node(Val).Ty ? G.node(Val).Ty->getStoreSize() : 1;
      NodeId OldVal = G.find(NM.Ops[0]);
      unsigned OldSize =
          G.node(OldVal).Ty ? G.node(OldVal).Ty->getStoreSize() : 1;
      int AR = G.aliasPointers(Ptr, SP, NewSize, OldSize);
      if (AR == 2 && NewSize >= OldSize)
        return rewrite("loadstore.store-over-store", N,
                       G.getStore(Val, Ptr, SM));
      // Adjacent stores to disjoint locations commute; order the chain
      // canonically (smaller pointer root innermost) so both functions'
      // chains meet in one shape regardless of emission order.
      if (AR == 0 && G.find(Ptr) < G.find(SP)) {
        NodeId Inner = G.getStore(Val, Ptr, SM);
        return rewrite("loadstore.store-commute", N,
                       G.getStore(OldVal, SP, Inner));
      }
    }
    // Dead store: non-escaping allocation never read by any live load.
    if (storeIsDead(N, Ptr))
      return rewrite("loadstore.dead-store", N, Mem);
    return 0;
  }

  /// True if \p StoreNode writes a non-escaping allocation from which no
  /// live load may read.
  bool storeIsDead(NodeId StoreNode, NodeId Ptr) {
    const Node &NP = G.node(Ptr);
    NodeId Base = Ptr;
    // Walk GEPs to the base.
    while (G.node(Base).Kind == NodeKind::Op &&
           G.node(Base).Op == Opcode::GEP)
      Base = G.find(G.node(Base).Ops[0]);
    if (G.node(Base).Kind != NodeKind::Alloc)
      return false;
    if (!G.isNonEscapingAlloc(Base))
      return false;
    (void)NP;
    refreshLive();
    // Any live load that may alias the store's pointer keeps it alive.
    for (NodeId L : Live) {
      if (G.find(L) != L)
        continue;
      const Node &NL = G.node(L);
      if (NL.Kind != NodeKind::Load)
        continue;
      unsigned LSize = NL.Ty ? NL.Ty->getStoreSize() : 1;
      if (G.aliasPointers(G.find(NL.Ops[0]), Ptr, LSize, 8) != 0)
        return false;
    }
    (void)StoreNode;
    return true;
  }

  unsigned rewriteAllocMem(NodeId N) {
    if (!C.has(RS_LoadStore))
      return 0;
    // Dead allocation: the pointer is never used by any live node.
    NodeId Alloc = G.find(G.node(N).Ops[0]);
    refreshLive();
    for (NodeId L : Live) {
      if (G.find(L) != L || L == N)
        continue;
      for (NodeId Op : G.node(L).Ops)
        if (Op != InvalidNode && G.find(Op) == Alloc)
          return 0; // still referenced
    }
    // The memory before the allocation.
    return rewrite("loadstore.dead-alloc", N, G.operand(Alloc, 1));
  }

  unsigned rewriteCall(NodeId N) {
    if (!C.has(RS_Libc))
      return 0;
    const Node &Nd = G.node(N);
    auto Effect = static_cast<MemoryEffect>(Nd.IntVal);
    if (Effect != MemoryEffect::ReadOnly || Nd.Ops.empty())
      return 0;
    NodeId Mem = G.find(Nd.Ops.back());
    std::vector<NodeId> PtrArgs;
    for (unsigned K = 0; K + 1 < Nd.Ops.size(); ++K) {
      NodeId A = G.find(Nd.Ops[K]);
      if (G.node(A).Ty && G.node(A).Ty->isPointer())
        PtrArgs.push_back(A);
    }
    const Node &NM = G.node(Mem);
    // A readonly call jumps over a store none of its pointers can see.
    if (NM.Kind == NodeKind::Store) {
      NodeId SP = G.find(NM.Ops[1]);
      bool AllDisjoint = true;
      for (NodeId P : PtrArgs)
        AllDisjoint &= G.aliasPointers(P, SP, 4096, 8) == 0;
      if (AllDisjoint) {
        std::vector<NodeId> NewOps(Nd.Ops.begin(), Nd.Ops.end() - 1);
        NewOps.push_back(G.find(NM.Ops[2]));
        return rewrite("libc.call-over-store", N,
                       G.getCall(Nd.Str, Effect, Nd.Ty, std::move(NewOps)));
      }
      return 0;
    }
    if (NM.Kind == NodeKind::AllocMem) {
      NodeId Alloc = G.find(NM.Ops[0]);
      std::vector<NodeId> NewOps(Nd.Ops.begin(), Nd.Ops.end() - 1);
      NewOps.push_back(G.operand(Alloc, 1));
      return rewrite("libc.call-over-alloc", N,
                     G.getCall(Nd.Str, Effect, Nd.Ty, std::move(NewOps)));
    }
    // A readonly call whose memory is a loop μ can use the loop's initial
    // memory if no write inside the loop can affect its pointers.
    if (NM.Kind == NodeKind::Mu && NM.Ops[0] != InvalidNode) {
      if (muWritesDisjointFrom(Mem, PtrArgs)) {
        std::vector<NodeId> NewOps(Nd.Ops.begin(), Nd.Ops.end() - 1);
        NewOps.push_back(G.find(NM.Ops[0]));
        return rewrite("libc.call-over-loop", N,
                       G.getCall(Nd.Str, Effect, Nd.Ty, std::move(NewOps)));
      }
    }
    return 0;
  }

  /// Walks the memory chain of the μ cycle; true if every store in it is
  /// disjoint from every pointer in \p PtrArgs and no opaque CallMem
  /// appears.
  bool muWritesDisjointFrom(NodeId Mu, const std::vector<NodeId> &PtrArgs) {
    Marks.clear(G.size());
    Stack.assign(1, G.find(G.node(Mu).Ops[1]));
    while (!Stack.empty()) {
      NodeId M = G.find(Stack.back());
      Stack.pop_back();
      if (M == G.find(Mu) || !Marks.insert(M))
        continue;
      const Node &NM = G.node(M);
      switch (NM.Kind) {
      case NodeKind::Store: {
        NodeId SP = G.find(NM.Ops[1]);
        for (NodeId P : PtrArgs)
          if (G.aliasPointers(P, SP, 4096, 8) != 0)
            return false;
        Stack.push_back(NM.Ops[2]);
        break;
      }
      case NodeKind::AllocMem:
        Stack.push_back(G.operand(G.find(NM.Ops[0]), 1));
        break;
      case NodeKind::CallMem:
        return false;
      case NodeKind::Gamma:
        for (unsigned K = 1; K < NM.Ops.size(); K += 2)
          Stack.push_back(NM.Ops[K]);
        break;
      case NodeKind::Eta:
        Stack.push_back(NM.Ops[1]);
        break;
      case NodeKind::Mu:
        // A nested loop's memory: recurse through both sides.
        if (NM.Ops[0] != InvalidNode) {
          Stack.push_back(NM.Ops[0]);
          Stack.push_back(NM.Ops[1]);
        }
        break;
      case NodeKind::InitialMem:
        break;
      default:
        return false; // unexpected node in a memory chain
      }
    }
    return true;
  }

  ValueGraph &G;
  const RuleConfig &C;
  NormalizeStats &Stats;
  /// The live cone of GraphRoots (current roots), ascending.
  std::vector<NodeId> Live;
  std::vector<NodeId> GraphRoots;
  /// Scratch reused by every sweep and walk: the sweep's snapshot of Live,
  /// and the visited set and stack of computeLive, reaches,
  /// findInvariantGamma and muWritesDisjointFrom (none runs inside
  /// another), plus findInvariantGamma's candidate γs.
  std::vector<NodeId> SweepOrder;
  NodeMarks Marks;
  std::vector<NodeId> Stack;
  std::vector<NodeId> Candidates;
  /// cloneSubst's memo, by node id (see cloneSubst).
  std::vector<NodeId> Memo;
  unsigned LiveStamp = 0;
  unsigned Unswitches = 0;
  Type *BoolTy = nullptr;
};

} // namespace

NormalizeStats llvmmd::normalizeGraph(ValueGraph &G,
                                      const std::vector<NodeId> &Roots,
                                      const RuleConfig &Config) {
  NormalizeStats Stats;
  RuleEngine Engine(G, Config, Stats);
  auto RootsMerged = [&] {
    return Roots.size() > 1 &&
           std::all_of(Roots.begin(), Roots.end(), [&](NodeId R) {
             return G.find(R) == G.find(Roots.front());
           });
  };
  while (true) {
    if (RootsMerged()) {
      Stats.Stop = NormalizeStop::RootsMerged;
      break;
    }
    if (Stats.Iterations == Config.MaxIterations) {
      Stats.Stop = NormalizeStop::Budget;
      break;
    }
    ++Stats.Iterations;
    unsigned Rewrites = Engine.sweep(Roots);
    unsigned Merges = G.maximizeSharing(Config.Strategy);
    Stats.SharingMerges += Merges;
    if (Rewrites == 0 && Merges == 0) {
      Stats.Stop = NormalizeStop::Fixpoint;
      break;
    }
  }
  return Stats;
}
