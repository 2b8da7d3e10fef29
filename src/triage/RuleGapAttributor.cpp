//===- RuleGapAttributor.cpp - Name the rule a false alarm misses -------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "triage/RuleGapAttributor.h"

#include "normalize/Normalizer.h"
#include "validator/Validator.h"
#include "vg/GraphBuilder.h"

#include <cstdio>
#include <deque>
#include <set>

using namespace llvmmd;

const char *llvmmd::getRuleSetName(RuleSet RS) {
  switch (RS) {
  case RS_Boolean:
    return "boolean";
  case RS_PhiSimplify:
    return "phi-simplify";
  case RS_EtaMu:
    return "eta-mu";
  case RS_ConstFold:
    return "const-fold";
  case RS_Canonicalize:
    return "canonicalize";
  case RS_LoadStore:
    return "load-store";
  case RS_Commuting:
    return "commuting";
  case RS_Libc:
    return "libc";
  case RS_FloatFold:
    return "float-fold";
  case RS_GlobalFold:
    return "global-fold";
  default:
    return "?";
  }
}

namespace {

/// Every individually probeable family, in mask-bit order (deterministic
/// probe sequence).
const RuleSet AllFamilies[] = {
    RS_Boolean,      RS_PhiSimplify, RS_EtaMu,     RS_ConstFold,
    RS_Canonicalize, RS_LoadStore,   RS_Commuting, RS_Libc,
    RS_FloatFold,    RS_GlobalFold,
};

std::string describeNode(const ValueGraph &G, NodeId Id) {
  const Node &N = G.node(Id);
  std::string S = getNodeKindName(N.Kind);
  char Buf[64];
  switch (N.Kind) {
  case NodeKind::ConstInt:
    std::snprintf(Buf, sizeof(Buf), "(%lld)",
                  static_cast<long long>(N.IntVal));
    S += Buf;
    break;
  case NodeKind::ConstFloat:
    std::snprintf(Buf, sizeof(Buf), "(%.17g)", N.FloatVal);
    S += Buf;
    break;
  case NodeKind::Op:
    S += '(';
    S += getOpcodeName(N.Op);
    if (N.Op == Opcode::ICmp) {
      S += ' ';
      S += getPredName(static_cast<ICmpPred>(N.Pred));
    } else if (N.Op == Opcode::FCmp) {
      S += ' ';
      S += getPredName(static_cast<FCmpPred>(N.Pred));
    }
    S += ')';
    break;
  case NodeKind::Global:
  case NodeKind::Call:
    S += '(' + N.Str + ')';
    break;
  case NodeKind::Param:
    std::snprintf(Buf, sizeof(Buf), "(%lld)",
                  static_cast<long long>(N.IntVal));
    S += Buf;
    break;
  default:
    break;
  }
  if (N.Ty) {
    S += ':';
    S += N.Ty->getName();
  }
  return S;
}

bool headsEqual(const Node &A, const Node &B) {
  return A.Kind == B.Kind && A.Op == B.Op && A.Pred == B.Pred &&
         A.Ty == B.Ty && A.IntVal == B.IntVal && A.FloatVal == B.FloatVal &&
         A.Str == B.Str && A.Ops.size() == B.Ops.size();
}

} // namespace

RuleGapOutcome llvmmd::attributeRuleGap(const Function &A, const Function &B,
                                        const RuleConfig &Rules) {
  RuleGapOutcome Out;

  // Reproduce the validator's fixpoint on a private graph, then diff.
  ValueGraph G;
  BuildResult RA = buildValueGraph(G, A);
  BuildResult RB = buildValueGraph(G, B);
  if (!RA.Supported || !RB.Supported)
    return Out; // nothing to diff; probing below is pointless too
  Out.Ran = true;
  if (normalizeGraph(G, {RA.Ret, RB.Ret}, Rules).Stop ==
      NormalizeStop::RootsMerged) {
    // The pair validates after all (the caller ran a different
    // configuration); there is no gap to attribute.
    Out.Ran = false;
    return Out;
  }

  // Lockstep breadth-first walk over the two root cones: the first pair of
  // unmerged nodes with disagreeing heads is where normalization got
  // stuck. Head-congruent unmerged pairs (μ cycles the sharing passes
  // could not unify) descend into their operands instead.
  std::set<std::pair<NodeId, NodeId>> Seen;
  std::deque<std::pair<NodeId, NodeId>> Work;
  Work.emplace_back(G.find(RA.Ret), G.find(RB.Ret));
  while (!Work.empty()) {
    auto [X, Y] = Work.front();
    Work.pop_front();
    if (X == Y || !Seen.insert({X, Y}).second)
      continue;
    const Node &NX = G.node(X);
    const Node &NY = G.node(Y);
    if (!headsEqual(NX, NY)) {
      Out.Diverged = true;
      Out.NodeA = describeNode(G, X);
      Out.NodeB = describeNode(G, Y);
      break;
    }
    for (size_t I = 0; I < NX.Ops.size(); ++I)
      Work.emplace_back(G.find(NX.Ops[I]), G.find(NY.Ops[I]));
  }

  // Probe: enable each disabled family alone and re-validate. A hit is a
  // checked attribution, not a heuristic. RS_All distinguishes "needs a
  // combination of extensions" from "no known rule helps".
  for (RuleSet RS : AllFamilies) {
    if (Rules.Mask & RS)
      continue;
    RuleConfig Probe = Rules;
    Probe.Mask |= RS;
    if (validatePair(A, B, Probe).Validated) {
      Out.MissingRuleMask = RS;
      Out.MissingRule = getRuleSetName(RS);
      return Out;
    }
  }
  if ((Rules.Mask & RS_All) != RS_All) {
    RuleConfig Probe = Rules;
    Probe.Mask |= RS_All;
    Out.ClosedByAllRules = validatePair(A, B, Probe).Validated;
  }
  return Out;
}
