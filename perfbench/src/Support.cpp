//===- Support.cpp - Results, statistics and spans for perfbench ----------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "PerfBench.h"

#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <sys/resource.h>
#include <sys/stat.h>

using namespace perfbench;

//===----------------------------------------------------------------------===//
// Outcome
//===----------------------------------------------------------------------===//

void Outcome::metric(const std::string &Name, double Value, const char *Unit) {
  if (!std::isfinite(Value)) {
    problem("metric " + Name + " is not a finite number");
    Value = 0;
  }
  Metrics.push_back({Name, Value, Unit});
}

void Outcome::problem(const std::string &What) { Problems.push_back(What); }

void Outcome::note(const std::string &What) { Notes.push_back(What); }

void Outcome::failOps(uint64_t Bad, const std::string &Why) {
  if (Bad == 0)
    return;
  Failed += Bad;
  for (auto &R : FailReasons)
    if (R.first == Why) {
      R.second += Bad;
      return;
    }
  FailReasons.emplace_back(Why, Bad);
}

void Outcome::print() const {
  for (const std::string &N : Notes)
    std::printf("note: %s\n", N.c_str());
  for (const Metric &M : Metrics)
    std::printf("metric %-36s %14.6f %s\n", M.Name.c_str(), M.Value, M.Unit);
  for (const std::string &P : Problems)
    std::printf("check failed: %s\n", P.c_str());
  for (const auto &R : FailReasons)
    std::printf("check failed: %llu operations: %s\n",
                static_cast<unsigned long long>(R.second), R.first.c_str());
  double Share = Attempted ? double(Failed) / double(Attempted) : 1.0;
  std::printf("ops: attempted %llu, failed %llu, failed_share %.6f ratio\n",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed), Share);

  std::ostringstream OS;
  OS << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
     << ", \"metrics\": {";
  char Buf[64];
  for (size_t I = 0; I < Metrics.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%.17g", Metrics[I].Value);
    OS << (I ? ", " : "") << '"' << Metrics[I].Name << "\": {\"value\": "
       << Buf << ", \"unit\": \"" << Metrics[I].Unit << "\"}";
  }
  OS << "}}";
  std::printf("%s\n", OS.str().c_str());
  std::fflush(stdout);
}

//===----------------------------------------------------------------------===//
// Clock, statistics, memory
//===----------------------------------------------------------------------===//

uint64_t perfbench::nowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double perfbench::secondsSince(uint64_t StartUs) {
  return double(nowUs() - StartUs) / 1e6;
}

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  if (Lo + 1 >= V.size())
    return V.back();
  return V[Lo] + (Pos - double(Lo)) * (V[Lo + 1] - V[Lo]);
}

double perfbench::fileBytes(const std::string &Path) {
  struct stat St {};
  return ::stat(Path.c_str(), &St) == 0 ? double(St.st_size) : 0;
}

bool perfbench::resetPeakRss() {
  // Writing 5 to clear_refs resets VmHWM (Linux 4.0 and later).
  std::ofstream OS("/proc/self/clear_refs");
  OS << "5";
  OS.flush();
  return static_cast<bool>(OS);
}

double perfbench::peakRssMb(bool Children) {
  double Kb = 0;
  std::ifstream IS("/proc/self/status");
  for (std::string Line; std::getline(IS, Line);)
    if (Line.compare(0, 6, "VmHWM:") == 0)
      Kb = std::strtod(Line.c_str() + 6, nullptr);
  if (Children) {
    struct rusage C {};
    getrusage(RUSAGE_CHILDREN, &C);
    Kb += double(C.ru_maxrss);
  }
  return Kb / 1024.0;
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

Span::Span(const char *Name, const char *Cat, std::string Arg)
    : Name(Name), Cat(Cat), Arg(std::move(Arg)), StartUs(nowUs()),
      TraceStartUs(llvmmd::traceNowUs()) {}

uint64_t Span::end() {
  if (Done)
    return DurUs;
  Done = true;
  DurUs = nowUs() - StartUs;
  if (llvmmd::traceEnabled())
    llvmmd::traceCompleteEvent(Name, Cat, TraceStartUs, DurUs, Arg);
  return DurUs;
}
