//===- PerfBench.h - Shared declarations of perfbench -----------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark drives every layer of the validator from outside, through
/// the library's public functions only: loadModules, PassManager::run,
/// buildValueGraph, validatePair, ValidationEngine, suiteToJSON,
/// FleetRouter and ServerClient. Nothing here reaches into src/.
///
/// One run = one workload (suite-cold, suite-warm, fleet-mixed) at one
/// seed: set-up (repeated, median reported), a measured loop of a fixed
/// number of seconds, then the correctness checks. With tracing on, the
/// loop's first half runs untraced and gives the overhead's base, the
/// library's tracer is switched on for its second half, and a one-thread
/// layer-by-layer sweep gives the per-layer numbers.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PERFBENCH_H
#define PERFBENCH_PERFBENCH_H

#include "driver/ModuleLoader.h"
#include "driver/Report.h"
#include "workload/Profiles.h"

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace llvmmd {
class Context;
class Module;
} // namespace llvmmd

namespace perfbench {

//===----------------------------------------------------------------------===//
// Options, results, statistics
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  /// Scratch directory of this run (module files, stores, sockets).
  std::string WorkDir;
  /// The fleet's worker executable (a stock validate_server).
  std::string WorkerBinary;
  /// Where the traced run writes its Chrome trace-event JSON.
  std::string TraceOut;
};

/// What one run reports: named metrics plus the correctness ledger.
/// `Attempted` counts operations (function pairs brought to a verdict, or
/// fleet jobs); `Failed` counts those a check found wrong. A failed check
/// that is not about one operation is a `Problem`.
class Outcome {
public:
  void metric(const std::string &Name, double Value, const char *Unit);
  void problem(const std::string &What);
  void note(const std::string &What);
  /// Counts \p Bad failed operations (of those already attempted) under
  /// the reason \p Why.
  void failOps(uint64_t Bad, const std::string &Why);

  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  bool correct() const { return Problems.empty() && Failed == 0; }

  /// Human-readable lines, then the one-line JSON result.
  void print() const;

private:
  struct Metric {
    std::string Name;
    double Value;
    const char *Unit;
  };
  std::vector<Metric> Metrics;
  std::vector<std::string> Problems;
  std::vector<std::pair<std::string, uint64_t>> FailReasons;
  std::vector<std::string> Notes;
};

uint64_t nowUs();
double secondsSince(uint64_t StartUs);
/// Linear-interpolated quantile (Q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}
/// Restarts this process's peak-RSS mark (VmHWM) from its current RSS, so
/// the peak read later is the measured loop's, not the set-up's. False
/// when the kernel does not allow it.
bool resetPeakRss();
/// Peak resident set of this process since the last resetPeakRss (MB);
/// with \p Children, plus the largest peak among reaped child processes.
double peakRssMb(bool Children);
/// Size of the file at \p Path in bytes; 0 when there is none.
double fileBytes(const std::string &Path);

//===----------------------------------------------------------------------===//
// Spans, through the library's tracer (support/Trace.h)
//===----------------------------------------------------------------------===//

/// Times one call into a layer and, while the library's tracer is on
/// (llvmmd::traceEnable), records it as a complete event with
/// llvmmd::traceCompleteEvent. \p Name and \p Cat must be string
/// literals; \p Arg names what the call worked on (module, function,
/// pass). The duration is measured either way, so metrics and spans agree.
class Span {
public:
  Span(const char *Name, const char *Cat, std::string Arg = "");
  ~Span() { end(); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Ends the span (once) and returns its duration in microseconds.
  uint64_t end();

private:
  const char *Name;
  const char *Cat;
  std::string Arg;
  uint64_t StartUs, TraceStartUs;
  uint64_t DurUs = 0;
  bool Done = false;
};

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

/// 0..N-1 rotated left by \p Start: the submission order of pass (or
/// round) number Start - seed.
std::vector<size_t> rotation(uint64_t Start, size_t N);
/// \p Text with `%pb.stamp = add i32 %arg0, Stamp` opening the entry block
/// of function number \p Fn, or of every function when \p Fn is negative:
/// an edit that changes the function's fingerprint but not what the
/// validator has to do, since ADCE deletes the dead `add`.
std::string stamped(const std::string &Text, int Fn, uint64_t Stamp);
/// The profile's module as mini-IR text, generated in a scratch Context.
std::string moduleText(const llvmmd::BenchmarkProfile &P);

struct ModuleFile {
  std::string Name;
  std::string Path;
  uint64_t Bytes = 0;
};
/// Generates each profile and writes it as `<Dir>/<name>.mir`.
std::vector<ModuleFile>
writeModules(const std::string &Dir,
             const std::vector<llvmmd::BenchmarkProfile> &Ps);
std::string readFile(const std::string &Path);
/// Loads the files (mini-IR) into \p Ctx through loadModules.
llvmmd::LoadResult loadFiles(llvmmd::Context &Ctx,
                             const std::vector<ModuleFile> &Files);
/// Empty when every file's functions fingerprint exactly like the
/// `profile:NAME` module of the same name; else what differed.
std::string checkMatchesProfiles(const std::vector<ModuleFile> &Files);
/// Empty when \p M verifies and defines \p FunctionCount functions.
std::string checkWellFormed(const llvmmd::Module &M, unsigned FunctionCount);

//===----------------------------------------------------------------------===//
// Checks
//===----------------------------------------------------------------------===//

/// The verdict-bearing fields of one function entry.
struct Verdict {
  std::string Name; ///< "module/function"
  bool Transformed = false;
  bool Validated = false;
  std::string Reason;
  uint64_t FingerprintOpt = 0;
};

std::vector<Verdict> verdictsOf(const llvmmd::SuiteReport &S);
/// Parses the function entries out of suite/module report JSON (the
/// schema Report.cpp writes); what a fleet client receives.
std::vector<Verdict> verdictsFromJSON(const std::string &Json);
/// Names of entries that differ between \p A and \p B (matched by name;
/// an entry on one side only is reported too).
std::vector<std::string> verdictMismatches(std::vector<Verdict> A,
                                           std::vector<Verdict> B);

struct SoundnessResult {
  unsigned Checked = 0;
  std::vector<std::string> Witnessed; ///< validated pairs that diverge
};
/// Order-independent digest of \p V's verdict-bearing fields.
uint64_t verdictDigest(std::vector<Verdict> V);
/// "a, b, c and 7 more": at most \p Max names of \p Names.
std::string nameList(const std::vector<std::string> &Names, size_t Max = 5);

/// Differential cross-check of every validated, transformed function in
/// \p R: the reference interpreter runs \p Original's and \p Optimized's
/// bodies on a deterministic input corpus; a witness is a soundness bug.
/// Pairs whose fingerprints are in \p Done were checked already (the same
/// code) and are skipped; checked pairs are added.
using PairSet = std::set<std::pair<uint64_t, uint64_t>>;
SoundnessResult crossCheck(const llvmmd::Module &Original,
                           const llvmmd::Module &Optimized,
                           const llvmmd::ValidationReport &R, PairSet &Done);

/// `--self-test`: the checks must catch a planted failure. Writes its
/// scratch files to \p Dir. Returns the process exit code.
int runSelfTest(const std::string &Dir);

//===----------------------------------------------------------------------===//
// Layer sweep (traced run)
//===----------------------------------------------------------------------===//

/// One module for the sweep, loaded through loadModules from \p Spec.
struct SweepInput {
  llvmmd::ModuleSpec Spec;
  uint64_t Bytes = 0;
};
/// Runs the validator's layers one call at a time on one thread, spans
/// around each, and reports the per-layer metrics. Returns the verdicts
/// in module order, for comparison with the engine's.
std::vector<Verdict> runLayerSweep(const std::vector<SweepInput> &Inputs,
                                   Outcome &Out);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

void runSuiteWorkload(const Options &O, bool Warm, Outcome &Out);
void runFleetWorkload(const Options &O, Outcome &Out);

/// Engine worker threads of the suite workloads and the batch checks.
constexpr unsigned EngineThreads = 4;

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_H
