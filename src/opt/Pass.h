//===- Pass.h - Function pass interface and pass manager --------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The optimizer driver: function passes, a sequential pass manager, and a
/// registry that builds the paper's pipeline from a comma-separated string
/// ("adce,gvn,sccp,licm,loop-deletion,loop-unswitch,dse").
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_OPT_PASS_H
#define LLVMMD_OPT_PASS_H

#include <memory>
#include <string>
#include <vector>

namespace llvmmd {

class DominatorTree;
class Function;
class LoopInfo;
class Module;

/// The CFG analyses of one function version: its DominatorTree and
/// LoopInfo, each built on first request and then shared by every pass that
/// asks until a pass changes the CFG. Only the CFG feeds them (block list
/// order, terminator successors), so a pass that rewrites, erases or moves
/// non-terminator instructions keeps them valid; a pass that creates or
/// erases a block, retargets or folds a branch, or reorders the block list
/// calls invalidateCFG() before returning, or before asking again itself.
/// This is the function-analysis caching of LLVM's new pass manager,
/// reduced to the two analyses the optimizer shares.
class FunctionAnalyses {
public:
  explicit FunctionAnalyses(const Function &F);
  ~FunctionAnalyses();
  FunctionAnalyses(const FunctionAnalyses &) = delete;
  FunctionAnalyses &operator=(const FunctionAnalyses &) = delete;

  DominatorTree &getDomTree();
  /// Builds the dominator tree too when it is not cached.
  LoopInfo &getLoopInfo();

  /// Drops both analyses: the CFG they describe is gone.
  void invalidateCFG();

  /// The cached analyses, or null; never builds.
  const DominatorTree *cachedDomTree() const { return DT.get(); }
  const LoopInfo *cachedLoopInfo() const { return LI.get(); }

private:
  const Function &F;
  std::unique_ptr<DominatorTree> DT;
  std::unique_ptr<LoopInfo> LI;
};

/// A transformation over one function.
class FunctionPass {
public:
  virtual ~FunctionPass() = default;

  virtual const char *getName() const = 0;

  /// Transforms \p F in place; returns true iff something changed. CFG
  /// analyses come from \p FA, which the pass invalidates when it changes
  /// the CFG (see FunctionAnalyses).
  virtual bool run(Function &F, FunctionAnalyses &FA) = 0;
};

/// Creates a pass by its pipeline name; null for unknown names. Known:
/// adce, gvn, sccp, licm, loop-deletion, loop-unswitch, dse, instcombine,
/// simplifycfg.
std::unique_ptr<FunctionPass> createPass(const std::string &Name);

/// True iff \p Name is in the createPass registry, without constructing
/// the pass.
bool isRegisteredPassName(const std::string &Name);

/// Runs passes in order over every defined function of a module.
class PassManager {
public:
  /// Parses a comma-separated pipeline; returns false on an unknown pass
  /// name (and leaves the manager unchanged).
  bool parsePipeline(const std::string &Pipeline);

  void addPass(std::unique_ptr<FunctionPass> P) {
    Passes.push_back(std::move(P));
  }

  size_t size() const { return Passes.size(); }

  /// Builds an independent pipeline of the same passes through the registry,
  /// or null if any pass is not registry-constructible (a caller-assembled
  /// pass whose name createPass does not know). The validation engine clones
  /// the pipeline per optimizer task: passes carry per-run scratch state and
  /// change counters, so one PassManager must never run on two threads.
  std::unique_ptr<PassManager> clone() const;

  /// True iff clone() would succeed — every pass name is in the registry.
  /// Cheap: no pass objects are constructed.
  bool isClonable() const;

  /// Runs the pipeline on one function; returns true iff any pass changed
  /// it. The passes share one FunctionAnalyses.
  bool run(Function &F);

  /// Runs the pipeline on every defined function.
  bool run(Module &M);

  /// Per-pass change counts from the last run(Module&): how many functions
  /// each pass reported transforming. Used by the per-optimization figures.
  const std::vector<unsigned> &getChangeCounts() const { return ChangeCounts; }

  const std::vector<std::unique_ptr<FunctionPass>> &passes() const {
    return Passes;
  }

private:
  std::vector<std::unique_ptr<FunctionPass>> Passes;
  std::vector<unsigned> ChangeCounts;
};

/// The paper's evaluation pipeline (§5.1).
inline const char *getPaperPipeline() {
  return "adce,gvn,sccp,licm,loop-deletion,loop-unswitch,dse";
}

} // namespace llvmmd

#endif // LLVMMD_OPT_PASS_H
