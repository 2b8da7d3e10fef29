//===- Rules.h - Rewrite rule sets and configuration ------------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The validator's rewrite rules come in individually toggleable sets so
/// the benchmark harness can reproduce the paper's rule ablations
/// (Figures 6-8). The first seven sets are the rules the paper describes;
/// the last three are the extensions it names as known false-alarm fixes
/// (libc knowledge, floating-point constant folding, folding of global
/// constants).
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_NORMALIZE_RULES_H
#define LLVMMD_NORMALIZE_RULES_H

#include "vg/ValueGraph.h"

namespace llvmmd {

class Module;

enum RuleSet : unsigned {
  RS_None = 0,
  /// Boolean simplification — the paper's rules (1)-(4) plus i1 algebra.
  RS_Boolean = 1u << 0,
  /// φ (γ-node) simplification — rules (5)-(6).
  RS_PhiSimplify = 1u << 1,
  /// η/μ simplification — rules (7)-(9) plus η-elimination on loop-free
  /// values.
  RS_EtaMu = 1u << 2,
  /// Constant folding over integers (add 3 2 ↓ 5) and constant identities
  /// (x+0, x*1, x*0, ...).
  RS_ConstFold = 1u << 3,
  /// LLVM-oriented canonicalizations: a+a ↓ shl a 1, mul-by-2^k ↓ shl,
  /// add x (-k) ↓ sub x k, comparison reorientation (gt 10 a ↓ lt a 10).
  RS_Canonicalize = 1u << 4,
  /// Load/store simplification with aliasing — rules (10)-(11), dead store
  /// and dead allocation removal.
  RS_LoadStore = 1u << 5,
  /// Commuting rules: push η nodes toward their μ nodes; distribute γ out
  /// of loops (validating loop unswitching).
  RS_Commuting = 1u << 6,
  /// Extension: libc knowledge (strlen/memset/atoi models).
  RS_Libc = 1u << 7,
  /// Extension: floating-point constant folding.
  RS_FloatFold = 1u << 8,
  /// Extension: folding loads of constant global variables.
  RS_GlobalFold = 1u << 9,

  /// What the paper's evaluated validator uses.
  RS_Paper = RS_Boolean | RS_PhiSimplify | RS_EtaMu | RS_ConstFold |
             RS_Canonicalize | RS_LoadStore | RS_Commuting,
  /// Everything, including the extensions.
  RS_All = RS_Paper | RS_Libc | RS_FloatFold | RS_GlobalFold,
};

/// Configuration of one validation run.
struct RuleConfig {
  unsigned Mask = RS_Paper;
  /// Module providing global-variable initializers for RS_GlobalFold.
  const Module *M = nullptr;
  /// Budget of the normalize/share loop, in sweeps (each followed by one
  /// sharing round).
  unsigned MaxIterations = 32;
  SharingStrategy Strategy = SharingStrategy::Combined;

  bool has(RuleSet RS) const { return (Mask & RS) != 0; }
};

} // namespace llvmmd

#endif // LLVMMD_NORMALIZE_RULES_H
