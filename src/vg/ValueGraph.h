//===- ValueGraph.h - Shared, hash-consed value graph -----------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared value graph of the paper (§2-3): a single arena of
/// hash-consed nodes representing *both* the original and the optimized
/// function, so that equal subcomputations are literally the same node and
/// the best-case equality check is O(1).
///
/// Acyclic nodes are interned on construction. Cycles are broken by μ
/// nodes, which are created unique and merged later by the sharing
/// maximization pass (§5.4): either the simple parallel-unification
/// algorithm, a Hopcroft-style partition refinement, or the paper's default
/// combination (simple first, partitioning as fallback).
///
/// Merging is a union-find over node ids; rewrite rules replace a node by
/// merging it into its replacement.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_VG_VALUEGRAPH_H
#define LLVMMD_VG_VALUEGRAPH_H

#include "ir/Function.h"
#include "ir/Type.h"
#include "support/Arena.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace llvmmd {

using NodeId = uint32_t;
inline constexpr NodeId InvalidNode = ~NodeId(0);

enum class NodeKind : uint8_t {
  ConstInt,   // IntVal
  ConstFloat, // FloatVal
  ConstNull,
  Undef,
  Global,     // Str = name; IntVal = 1 if constant-qualified
  Param,      // IntVal = index (shared between the two functions!)
  InitialMem, // the memory state on function entry (shared)
  Op,         // Op + Pred payloads; pure operators incl. GEP
  Gamma,      // gated φ: operands [c1,v1, c2,v2, ...]
  Mu,         // loop value: operands [init, next]; NOT hash-consed
  Eta,        // loop exit: operands [stayCond, value]
  Alloc,      // operands [count, memIn]; IntVal = element store size
  AllocMem,   // operands [alloc]: memory state after the allocation
  Load,       // operands [ptr, mem]
  Store,      // operands [value, ptr, mem] -> memory
  Call,       // Str = callee; IntVal = MemoryEffect; operands [args..., memIn]
  CallMem,    // operands [call]: memory state after the call
  Ret,        // operands [mem] or [value, mem]: the function's state pointer
};

const char *getNodeKindName(NodeKind K);

struct Node {
  NodeKind Kind;
  Opcode Op = Opcode::Add; // valid when Kind == Op
  uint8_t Pred = 0;        // icmp/fcmp predicate for Kind == Op
  Type *Ty = nullptr;      // result type (null for memory-typed nodes)
  int64_t IntVal = 0;
  double FloatVal = 0;
  std::string Str;
  std::vector<NodeId> Ops;
};

/// A visited set over node ids for graph walks, reused across walks:
/// clear() starts a new epoch in O(1) instead of touching every mark, so a
/// walk costs what it visits. Walks that share one NodeMarks must not
/// interleave.
class NodeMarks {
public:
  /// Empties the set and makes room for ids below \p NumNodes.
  void clear(size_t NumNodes) {
    if (Stamp.size() < NumNodes)
      Stamp.resize(NumNodes, 0);
    if (++Epoch == 0) { // wrapped: no stale stamp may equal the new epoch
      std::fill(Stamp.begin(), Stamp.end(), 0);
      Epoch = 1;
    }
  }
  /// Adds \p Id; false when it was already in the set.
  bool insert(NodeId Id) {
    assert(Id < Stamp.size() && "node id beyond the last clear()");
    if (Stamp[Id] == Epoch)
      return false;
    Stamp[Id] = Epoch;
    return true;
  }

private:
  std::vector<uint32_t> Stamp;
  uint32_t Epoch = 0;
};

/// Sharing maximization strategy (§5.4 of the paper).
enum class SharingStrategy : uint8_t {
  /// Bottom-up congruence pass + pairwise μ unification.
  Simple,
  /// Hopcroft-style partition refinement (bisimulation classes).
  Partition,
  /// Simple first; partitioning as a fallback. The paper reports this
  /// performs slightly better than either alone.
  Combined,
};

class ValueGraph {
public:
  //===------------------------------------------------------------------===//
  // Node construction (hash-consed unless noted)
  //===------------------------------------------------------------------===//

  NodeId getConstInt(Type *Ty, int64_t V);
  NodeId getConstFloat(Type *Ty, double V);
  NodeId getConstBool(Type *BoolTy, bool B) {
    return getConstInt(BoolTy, B ? 1 : 0);
  }
  NodeId getNull(Type *PtrTy);
  NodeId getUndef(Type *Ty);
  NodeId getGlobal(const std::string &Name, bool IsConstant, Type *PtrTy);
  NodeId getParam(unsigned Index, Type *Ty);
  NodeId getInitialMem();

  NodeId getOp(Opcode Op, Type *Ty, std::vector<NodeId> Operands,
               uint8_t Pred = 0, int64_t Extra = 0);

  /// Gamma operands are (cond, value) pairs; they are canonically sorted.
  NodeId getGamma(Type *Ty, std::vector<std::pair<NodeId, NodeId>> Branches);

  NodeId getEta(Type *Ty, NodeId StayCond, NodeId Value);

  /// μ nodes are unique (cycle breakers); operands set after body
  /// construction via setMuOperands.
  NodeId makeMu(Type *Ty);
  void setMuOperands(NodeId Mu, NodeId Init, NodeId Next);

  NodeId getAlloc(NodeId Count, NodeId MemIn, unsigned ElemSize);
  NodeId getAllocMem(NodeId Alloc);
  NodeId getLoad(Type *Ty, NodeId Ptr, NodeId Mem);
  NodeId getStore(NodeId Value, NodeId Ptr, NodeId Mem);
  NodeId getCall(const std::string &Callee, MemoryEffect Effect, Type *RetTy,
                 std::vector<NodeId> ArgsAndMem);
  NodeId getCallMem(NodeId Call);
  NodeId getRet(NodeId ValueOrInvalid, NodeId Mem);

  //===------------------------------------------------------------------===//
  // Union-find and access
  //===------------------------------------------------------------------===//

  NodeId find(NodeId Id) const;
  /// Merges \p From into \p Into: find(From) == find(Into) == find-of-Into.
  /// Rewrite rules call this with Into = the canonical replacement. Returns
  /// false (and changes nothing) when both are already in one class.
  bool mergeInto(NodeId From, NodeId Into);

  const Node &node(NodeId Id) const { return Nodes[find(Id)]; }
  size_t size() const { return Nodes.size(); }
  /// Number of live (representative) nodes.
  size_t countRoots() const;

  NodeId operand(NodeId Id, unsigned I) const {
    return find(node(Id).Ops[I]);
  }

  //===------------------------------------------------------------------===//
  // Sharing maximization
  //===------------------------------------------------------------------===//

  /// Runs one round of sharing maximization; returns the number of merges.
  /// Afterwards no two non-μ roots are congruent, and every root γ's
  /// branches and root commutative operator's operands are sorted by
  /// current roots. Congruence and partition refinement merge the later of
  /// two roots into the earlier one.
  ///
  /// Cost: one pass over the graph indexes the users of every class; after
  /// that, congruence re-probes only the users of merged-away classes, and
  /// partition refinement runs over the roots that reach a μ.
  unsigned maximizeSharing(SharingStrategy Strategy);

  //===------------------------------------------------------------------===//
  // Cone queries used by rewrite rules
  //===------------------------------------------------------------------===//

  /// True if any μ node is reachable from \p Id (over current roots).
  bool coneContainsMu(NodeId Id) const;

  /// True if the Alloc node \p Alloc is non-escaping in this graph: it is
  /// only used as a load/store/GEP address or for its AllocMem projection.
  bool isNonEscapingAlloc(NodeId Alloc) const;

  /// Structural may-alias on pointer-valued nodes (the validator-side
  /// mirror of AliasAnalysis): NoAlias for distinct Allocs, distinct
  /// Globals, non-escaping Alloc vs anything else, same base with disjoint
  /// constant GEP offsets. Returns 0 = NoAlias, 1 = MayAlias, 2 = Must.
  int aliasPointers(NodeId P, NodeId Q, unsigned SizeP, unsigned SizeQ) const;

  /// Number of effective merges so far (mergeInto calls that returned
  /// true).
  unsigned getMergeCount() const { return MergeCount; }

  /// Renders the live cone of \p Roots as readable text (one node per
  /// line), for debugging and for the graph-dump example.
  std::string dump(const std::vector<NodeId> &Roots) const;

  /// Renders the live cone of \p Roots as a GraphViz digraph, in the style
  /// of the paper's figures: γ/μ/η nodes labeled, memory edges dashed.
  std::string dumpDot(const std::vector<NodeId> &Roots) const;

private:
  NodeId intern(Node N);

  /// Hash of the head payload only (kind, op, pred, type, scalars, arity) —
  /// the operand *contents* are excluded. Combined with the operand roots it
  /// is the hash-cons and congruence key; alone it is the bucket key of the
  /// partition refinement pass's initial partition. Cached per node in
  /// HeadHashes, since a node's head never changes.
  uint64_t hashNodeHead(const Node &N) const;
  /// Field-by-field structural equality against an interned node.
  static bool nodeEquals(const Node &A, const Node &B);

  /// Parallel structural unification under cycle assumptions (§5.4's
  /// "simple unification algorithm"). \p Assumed is an undo log of the
  /// (smaller, larger) pairs assumed equal so far; a failed commutative
  /// attempt truncates it back to where the attempt began.
  bool unify(NodeId X, NodeId Y,
             std::vector<std::pair<NodeId, NodeId>> &Assumed,
             unsigned Depth) const;

  /// All bases pointer \p P may resolve to, following GEPs and the
  /// selecting structure (γ branches, μ streams, η values), each once.
  /// Returns false when the set is unbounded or contains something
  /// unanalyzable.
  bool possibleBases(NodeId P, std::vector<NodeId> &Out) const;

  /// Rebuilds the use index unless the graph is unchanged since it was
  /// last built.
  void ensureUseIndex() const;

  /// Use index, congruence memo and repair worklist of one
  /// maximizeSharing call (defined in ValueGraph.cpp).
  struct SharingState;

  /// mergeInto for the sharing passes: also queues the users of the
  /// merged-away class for repair and hands its use list to the winner.
  bool shareMerge(SharingState &S, NodeId From, NodeId Into);
  /// Sorts a root γ's branches or a root commutative operator's operands
  /// by current roots, in place; other nodes keep their operand lists.
  void canonicalizeNode(NodeId Id);
  /// Canonicalizes root \p Id and probes the congruence memo with it,
  /// merging it with a congruent root (the later id into the earlier) or
  /// filing it. Returns the number of merges (0 or 1).
  unsigned repairRoot(SharingState &S, NodeId Id);

  /// First call: hashes every root once. Every call: repairs the queued
  /// roots until none is left. On return no two non-μ roots are congruent.
  unsigned congruencePass(SharingState &S);
  unsigned muUnificationPass(SharingState &S);
  /// Bisimulation classes of the μ-reaching roots; requires a congruence
  /// fixpoint (see the definition).
  unsigned partitionRefinementPass(SharingState &S);
  /// Congruence and μ unification, alternated until neither merges.
  unsigned simpleRounds(SharingState &S);

  /// Arena-backed, pointer-stable node table. Interning a node must never
  /// invalidate references to existing nodes — the normalizer's rewrite
  /// rules hold `const Node &` to the node being rewritten while creating
  /// its replacement through getOp/getConstInt, and node() hands such
  /// references out across the codebase. Nodes are bump-allocated in
  /// creation order (normalization walks touch consecutive memory) and
  /// freed with the graph in a handful of slab releases.
  class NodeTable {
  public:
    Node &operator[](size_t I) { return *Items[I]; }
    const Node &operator[](size_t I) const { return *Items[I]; }
    size_t size() const { return Items.size(); }
    void push_back(Node N) { Items.push_back(A.create<Node>(std::move(N))); }

  private:
    Arena A{16 * 1024};
    std::vector<Node *> Items;
  };
  NodeTable Nodes;
  mutable std::vector<NodeId> Parent;
  std::vector<uint64_t> HeadHashes; ///< hashNodeHead of each node
  /// Hash-cons table: open-addressed (linear probing, never deleted from)
  /// multimap from a node's structural hash to its id. Entries with equal
  /// hashes sit along one probe run in interning order, so candidates are
  /// probed oldest first. Keys are frozen at intern time, like the interned
  /// nodes' operand lists; later union-find merges can make equal-shaped
  /// nodes miss, which the sharing-maximization congruence pass cleans up.
  std::vector<uint64_t> ConsHash;
  std::vector<NodeId> ConsNode; ///< InvalidNode marks an empty slot
  size_t ConsCount = 0;
  unsigned MergeCount = 0;
  /// Bumped by every change to a node, an operand list or the union-find
  /// classes; the use index is valid while it stays put.
  uint64_t Version = 0;

  /// Scratch state of the const cone queries, reused across calls. The
  /// walks of coneContainsMu, possibleBases and isNonEscapingAlloc share
  /// Marks and Stack; none of them runs inside another.
  mutable NodeMarks Marks;
  mutable std::vector<NodeId> Stack;
  mutable std::vector<NodeId> BasesA, BasesB;
  /// Use index of the roots (CSR): the (user root, operand slot) pairs
  /// whose operand is class C are Uses[UseBegin[C] .. UseBegin[C + 1]), in
  /// user then slot order. Built for graph version UseIndexVersion.
  mutable std::vector<uint32_t> UseBegin;
  mutable std::vector<std::pair<NodeId, uint32_t>> Uses;
  mutable uint64_t UseIndexVersion = ~uint64_t(0);
};

} // namespace llvmmd

#endif // LLVMMD_VG_VALUEGRAPH_H
