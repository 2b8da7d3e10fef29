//===- Normalizer.h - Value-graph rewrite engine ----------------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Applies the enabled rewrite rule sets to a shared value graph until a
/// fixpoint (or budget). Rules are oriented the way the LLVM optimizer
/// rewrites (paper §4.1): the engine only ever rewrites a node *into* its
/// more-optimized form, which keeps the number of rewrites proportional to
/// the number of transformations the optimizer performed. No two rules undo
/// each other, so the loop ends because a sweep finds nothing left to
/// rewrite; the iteration budget is a backstop, not the usual way out.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_NORMALIZE_NORMALIZER_H
#define LLVMMD_NORMALIZE_NORMALIZER_H

#include "normalize/Rules.h"
#include "vg/ValueGraph.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace llvmmd {

/// Loop unswitching duplicates a loop cone per rewrite; this bounds the
/// graph growth of one normalizeGraph run (one validation pair).
inline constexpr unsigned MaxUnswitchesPerRun = 8;

/// Why normalizeGraph stopped.
enum class NormalizeStop : uint8_t {
  RootsMerged, ///< all roots (two or more) fell into one class
  Fixpoint,    ///< a sweep plus sharing round merged nothing
  Budget,      ///< RuleConfig::MaxIterations sweeps ran without either
};

struct NormalizeStats {
  /// Effective rewrites: rule applications that merged two classes.
  unsigned Rewrites = 0;
  /// Rule applications whose result was already in the node's class.
  unsigned NoopRewrites = 0;
  unsigned SharingMerges = 0;
  /// Sweeps run; each is followed by one round of sharing maximization.
  unsigned Iterations = 0;
  NormalizeStop Stop = NormalizeStop::Fixpoint;
  /// Per-rule effective rewrite counts (they sum to Rewrites), for the
  /// rule-effectiveness analyses.
  std::map<std::string, unsigned> RuleFires;
};

/// Normalizes \p G with respect to the live cones of \p Roots: one sweep of
/// the rules, then one round of sharing maximization, as in Figure 1, until
/// the roots merge (when there are two or more), a sweep and its sharing
/// round merge nothing, or Config.MaxIterations sweeps have run. Returns the
/// statistics of the run.
NormalizeStats normalizeGraph(ValueGraph &G, const std::vector<NodeId> &Roots,
                              const RuleConfig &Config);

} // namespace llvmmd

#endif // LLVMMD_NORMALIZE_NORMALIZER_H
