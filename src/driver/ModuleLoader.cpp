//===- ModuleLoader.cpp - Unified module ingest ----------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "driver/ModuleLoader.h"

#include "driver/ThreadPool.h"
#include "frontend/llvm/LLFrontend.h"
#include "ir/Module.h"
#include "ir/Parser.h"
#include "support/Trace.h"
#include "workload/Generator.h"
#include "workload/Profiles.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <thread>

using namespace llvmmd;

ModuleFormat llvmmd::detectModuleFormat(std::string_view Text) {
  return looksLikeLLVMIR(Text) ? ModuleFormat::LLVMIR : ModuleFormat::MiniIR;
}

bool llvmmd::parseModuleFormat(const std::string &Name, ModuleFormat &Out) {
  if (Name == "auto")
    Out = ModuleFormat::Auto;
  else if (Name == "mini")
    Out = ModuleFormat::MiniIR;
  else if (Name == "llvm")
    Out = ModuleFormat::LLVMIR;
  else
    return false;
  return true;
}

const char *llvmmd::moduleFormatName(ModuleFormat F) {
  switch (F) {
  case ModuleFormat::Auto:
    return "auto";
  case ModuleFormat::MiniIR:
    return "mini";
  case ModuleFormat::LLVMIR:
    return "llvm";
  }
  return "auto";
}

ModuleSpec llvmmd::parseModuleSpec(const std::string &Spec) {
  ModuleSpec S;
  if (Spec == "-") {
    S.From = ModuleSpec::Source::Stdin;
    return S;
  }
  if (Spec.rfind("profile:", 0) == 0) {
    S.From = ModuleSpec::Source::Profile;
    S.Value = Spec.substr(8);
    return S;
  }
  S.From = ModuleSpec::Source::File;
  S.Value = Spec;
  return S;
}

const char *llvmmd::moduleSpecHelp() {
  return "  Module specs (positional arguments / --input values):\n"
         "    FILE           load the file; real LLVM .ll input is detected\n"
         "                   by content and routed through the import\n"
         "                   frontend (unsupported constructs are rejected\n"
         "                   per function, named in the report)\n"
         "    -              read one module's text from stdin\n"
         "    profile:NAME   generate the Table-1 benchmark profile NAME\n"
         "  A spec that cannot be loaded (unreadable file, parse error,\n"
         "  unknown profile) prints `error: ...` on stderr and exits 1.\n";
}

namespace {

/// Extracts the leading "line N" of a mini-parser diagnostic so both
/// frontends report positions the same way.
unsigned parseErrorLine(const std::string &Error) {
  if (Error.rfind("line ", 0) != 0)
    return 0;
  return static_cast<unsigned>(std::atoi(Error.c_str() + 5));
}

/// Printed mini-IR bytes per generated code segment (gcc: 481 KB over its
/// ~1350 segments), so profile specs are scheduled by the size of the text
/// they stand for.
constexpr size_t ProfileBytesPerSegment = 360;

/// One spec on its way through loadModules: read (calling thread, spec
/// order), then parsed or generated (any thread), then collected (spec
/// order). Each slot is written by one stage at a time.
struct SpecSlot {
  std::string Owned;     ///< file or stdin contents
  std::string_view Text; ///< Owned, or an inline spec's own text
  std::string Name;      ///< resolved name; empty derives it from the text
  BenchmarkProfile Profile{};
  size_t Cost = 0; ///< scheduling weight, in text bytes
  LoadedModule LM;
  std::string Error; ///< empty while the spec is good
  unsigned ErrorLine = 0;
  unsigned ErrorCol = 0;
};

/// Reads \p Spec's text (or resolves its profile) into \p S; false (with
/// S.Error set) when the file cannot be opened or the profile is unknown.
bool readSpec(const ModuleSpec &Spec, SpecSlot &S) {
  S.Name = Spec.Name;
  switch (Spec.From) {
  case ModuleSpec::Source::Profile:
    S.Profile = getProfile(Spec.Value);
    if (S.Profile.FunctionCount == 0) {
      S.Error = "unknown profile '" + Spec.Value + "'";
      return false;
    }
    if (Spec.ProfileFnCount)
      S.Profile.FunctionCount = Spec.ProfileFnCount;
    if (S.Name.empty())
      S.Name = Spec.Value;
    S.Cost = size_t(S.Profile.FunctionCount) *
             (S.Profile.MinSegments + S.Profile.MaxSegments) / 2 *
             ProfileBytesPerSegment;
    return true;
  case ModuleSpec::Source::File: {
    std::ifstream In(Spec.Value);
    if (!In) {
      S.Error = "cannot open " + Spec.Value;
      return false;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    S.Owned = SS.str();
    S.Text = S.Owned;
    if (S.Name.empty())
      S.Name = Spec.Value;
    break;
  }
  case ModuleSpec::Source::Stdin: {
    std::ostringstream SS;
    SS << std::cin.rdbuf();
    S.Owned = SS.str();
    S.Text = S.Owned;
    if (S.Name.empty())
      S.Name = "<stdin>";
    break;
  }
  case ModuleSpec::Source::Inline:
    S.Text = Spec.Value;
    break;
  }
  S.Cost = S.Text.size();
  return true;
}

/// Parses or generates a read spec into S.LM, or sets S.Error. Touches
/// only \p S and interns through the thread-safe \p Ctx.
void buildSpec(Context &Ctx, const ModuleSpec &Spec, SpecSlot &S) {
  TraceSpan Span("load_module", "ir", S.Name);
  if (Spec.From == ModuleSpec::Source::Profile) {
    S.LM.M = generateBenchmark(Ctx, S.Profile);
    S.LM.Name = S.Name;
    S.LM.Format = ModuleFormat::MiniIR;
    return;
  }

  const std::string ModName = S.Name.empty() ? "module" : S.Name;
  ModuleFormat F = Spec.Format;
  if (F == ModuleFormat::Auto)
    F = detectModuleFormat(S.Text);

  if (F == ModuleFormat::LLVMIR) {
    LLImportResult IR = importLLModule(Ctx, S.Text, ModName);
    if (!IR) {
      S.Error = ModName + ": line " + std::to_string(IR.ErrorLine) + ": " +
                IR.Error;
      S.ErrorLine = IR.ErrorLine;
      S.ErrorCol = IR.ErrorCol;
    } else {
      S.LM.M = std::move(IR.M);
      S.LM.Format = ModuleFormat::LLVMIR;
      for (const LLFunctionReject &R : IR.Rejected)
        S.LM.Unsupported.push_back({R.Function, R.Reason, R.Detail});
    }
  } else {
    ParseResult PR = parseModule(Ctx, S.Text, ModName);
    if (!PR) {
      S.Error = ModName + ": " + PR.Error;
      S.ErrorLine = parseErrorLine(PR.Error);
    } else {
      S.LM.M = std::move(PR.M);
      S.LM.Format = ModuleFormat::MiniIR;
    }
  }
  if (S.LM.M)
    S.LM.Name = S.LM.M->getName();
  // The module no longer needs its text.
  std::string().swap(S.Owned);
  S.Text = {};
}

} // namespace

LoadResult llvmmd::loadModules(Context &Ctx,
                               const std::vector<ModuleSpec> &Specs) {
  // Read on the calling thread, in spec order (stdin and files are read
  // exactly once, and a missing file stops the batch before anything
  // behind it is parsed).
  std::vector<SpecSlot> Slots(Specs.size());
  size_t Readable = 0;
  while (Readable < Specs.size() && readSpec(Specs[Readable], Slots[Readable]))
    ++Readable;

  // Parse or generate every readable spec into Ctx, largest first so the
  // biggest module starts at once and bounds the wall time. Workers pull
  // from one shared cursor over that order. A single spec (the server and
  // fleet path) runs inline and starts no thread.
  std::vector<size_t> Order(Readable);
  std::iota(Order.begin(), Order.end(), size_t(0));
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return Slots[A].Cost > Slots[B].Cost;
  });
  const unsigned Workers = static_cast<unsigned>(std::min<size_t>(
      Readable, std::max(1u, std::thread::hardware_concurrency())));
  if (Workers <= 1) {
    for (size_t K : Order)
      buildSpec(Ctx, Specs[K], Slots[K]);
  } else {
    ThreadPool Pool(Workers);
    std::atomic<size_t> Next{0};
    Pool.parallelFor(Workers, [&](size_t) {
      for (size_t J; (J = Next.fetch_add(1, std::memory_order_relaxed)) <
                     Order.size();)
        buildSpec(Ctx, Specs[Order[J]], Slots[Order[J]]);
    });
  }

  // Collect in spec order; the first failing spec (read or parse) ends the
  // batch, and later modules are discarded.
  LoadResult Out;
  for (SpecSlot &S : Slots) {
    if (!S.Error.empty()) {
      Out.Error = std::move(S.Error);
      Out.ErrorLine = S.ErrorLine;
      Out.ErrorCol = S.ErrorCol;
      break;
    }
    Out.Modules.push_back(std::move(S.LM));
  }
  return Out;
}

LoadResult llvmmd::loadModule(Context &Ctx, const ModuleSpec &Spec) {
  return loadModules(Ctx, {Spec});
}

void llvmmd::attachUnsupported(ValidationReport &Report,
                               const LoadedModule &LM) {
  Report.UnsupportedFunctions = LM.Unsupported;
}
