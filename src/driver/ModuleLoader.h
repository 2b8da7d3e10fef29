//===- ModuleLoader.h - Unified module ingest for all front doors -*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One module-loading entry point shared by every front door: the batch CLI,
/// the validation server, the fleet path behind it, and the example tools.
/// A ModuleSpec names where a module comes from (file, stdin, inline text,
/// or a generated benchmark profile) and in which format; loadModules
/// resolves each spec to a native Module, auto-detecting real LLVM `.ll`
/// input by content and routing it through the `.ll` importer with its
/// per-function unsupported accounting.
///
/// Spec grammar (shared by every CLI's `--input` / positional arguments):
///
///   FILE           load the file; format auto-detected by content
///   -              read the module text from stdin
///   profile:NAME   generate the Table-1 benchmark profile NAME
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_DRIVER_MODULELOADER_H
#define LLVMMD_DRIVER_MODULELOADER_H

#include "driver/Report.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace llvmmd {

class Context;
class Module;

/// Wire-stable module text format selector. Auto sniffs by content:
/// the mini-IR printer emits none of real LLVM's noise (target lines,
/// attribute groups, metadata, `align` suffixes...), so text that looks
/// like real `.ll` goes through the import frontend and everything else
/// through the native parser.
enum class ModuleFormat : uint8_t {
  Auto = 0,
  MiniIR = 1,
  LLVMIR = 2,
};

/// Returns MiniIR or LLVMIR (never Auto) for the given module text.
ModuleFormat detectModuleFormat(std::string_view Text);

/// Parses "mini" / "llvm" / "auto" (as in `--format`); false on junk.
bool parseModuleFormat(const std::string &Name, ModuleFormat &Out);
const char *moduleFormatName(ModuleFormat F);

/// One requested module: where it comes from and how to read it.
struct ModuleSpec {
  enum class Source : uint8_t { File, Stdin, Inline, Profile };
  Source From = Source::File;
  /// File path, inline module text, or profile name (by Source).
  std::string Value;
  /// Module name override; empty derives it (file path, profile name,
  /// "<stdin>", or the name embedded in the text).
  std::string Name;
  ModuleFormat Format = ModuleFormat::Auto;
  /// Profile specs only: overrides the profile's FunctionCount (0 = keep).
  unsigned ProfileFnCount = 0;
};

/// Parses the shared `--input` spec grammar (FILE | - | profile:NAME).
ModuleSpec parseModuleSpec(const std::string &Spec);

/// The CLI help paragraph describing the spec grammar and the shared
/// error-exit convention, so every tool's --help says the same thing.
const char *moduleSpecHelp();

/// One successfully loaded module.
struct LoadedModule {
  std::unique_ptr<Module> M;
  std::string Name;
  ModuleFormat Format = ModuleFormat::MiniIR; ///< resolved, never Auto
  /// Functions the `.ll` frontend refused (present in M as declarations),
  /// with their named reason classes; empty for mini-IR and profiles.
  std::vector<UnsupportedFunctionEntry> Unsupported;
};

/// Result of loading a batch of specs. The first failing spec in spec order
/// sets the error; `Modules` holds exactly the modules of the specs before
/// it, in spec order.
struct LoadResult {
  std::vector<LoadedModule> Modules;
  std::string Error; ///< empty on success; includes the module/file name
  unsigned ErrorLine = 0; ///< 1-based when known, else 0
  unsigned ErrorCol = 0;

  explicit operator bool() const { return Error.empty(); }
};

/// Loads every spec into \p Ctx (which must outlive the modules). Texts are
/// read on the calling thread in spec order, stopping at the first spec
/// that cannot be read; the specs read are then parsed or generated
/// concurrently, largest first, on a transient pool of at most one thread
/// per spec and hardware thread. A single spec is loaded inline.
LoadResult loadModules(Context &Ctx, const std::vector<ModuleSpec> &Specs);

/// Single-spec convenience wrapper over loadModules.
LoadResult loadModule(Context &Ctx, const ModuleSpec &Spec);

/// Attaches a loaded module's unsupported-function accounting to its
/// validation report (sets Report.UnsupportedFunctions).
void attachUnsupported(ValidationReport &Report, const LoadedModule &LM);

} // namespace llvmmd

#endif // LLVMMD_DRIVER_MODULELOADER_H
