//===- Main.cpp - perfbench command line ----------------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
//
//   perfbench --workload suite-cold|suite-warm|fleet-mixed --seed N
//             --seconds S --trace 0|1 --work DIR --worker PATH
//             [--trace-out FILE]
//   perfbench --self-test [--work DIR]
//
// Prints one `metric NAME VALUE UNIT` line per metric, the failed checks,
// and as its last line the JSON result. Exits 1 when any check failed.
// perfbench/run.py builds this binary and is the command to run.
//
//===----------------------------------------------------------------------===//

#include "PerfBench.h"

#include "support/Trace.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload suite-cold|suite-warm|fleet-mixed "
               "--seed N --seconds S --trace 0|1 --work DIR --worker PATH "
               "[--trace-out FILE]\n"
               "       perfbench --self-test [--work DIR]\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  bool SelfTest = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--self-test") {
      SelfTest = true;
      continue;
    }
    if (I + 1 >= argc)
      return usage();
    const char *V = argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(V, nullptr);
    else if (A == "--trace")
      O.Trace = std::strcmp(V, "0") != 0;
    else if (A == "--work")
      O.WorkDir = V;
    else if (A == "--worker")
      O.WorkerBinary = V;
    else if (A == "--trace-out")
      O.TraceOut = V;
    else
      return usage();
  }
  if (SelfTest)
    return runSelfTest(O.WorkDir.empty() ? "." : O.WorkDir);
  if (O.WorkDir.empty() || !(O.Seconds > 0))
    return usage();

  Outcome Out;
  if (O.Workload == "suite-cold" || O.Workload == "suite-warm")
    runSuiteWorkload(O, O.Workload == "suite-warm", Out);
  else if (O.Workload == "fleet-mixed")
    runFleetWorkload(O, Out);
  else
    return usage();

  if (O.Trace) {
    llvmmd::traceDisable();
    std::string Error;
    if (llvmmd::traceEventCount() == 0)
      Out.problem("the traced run recorded no spans");
    else if (!O.TraceOut.empty() &&
             !llvmmd::traceWriteFile(O.TraceOut, &Error))
      Out.problem(Error);
    else if (!O.TraceOut.empty())
      Out.note("trace: " + std::to_string(llvmmd::traceEventCount()) +
               " spans in " + O.TraceOut +
               " (Chrome trace-event JSON; open in Perfetto)");
  }
  if (Out.Attempted == 0)
    Out.problem("no operation was attempted");
  Out.print();
  return Out.correct() ? 0 : 1;
}
