// Convenience driver tying the front-end phases together: preprocess+lex,
// parse, analyse.  Used by the public uc:: API, the transform passes, the
// code generator and the test suite.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "support/diag.hpp"
#include "support/source.hpp"
#include "uclang/ast.hpp"
#include "uclang/sema.hpp"

namespace uc::lang {

// A fully analysed compilation unit.  Owns the source buffer, diagnostics,
// AST and symbols; AST annotations point into `sema`.
struct CompilationUnit {
  std::unique_ptr<support::SourceFile> file;
  support::DiagnosticEngine diags;
  std::unique_ptr<Program> program;
  SemaResult sema;
  // The program's identity: fnv1a_u64(flag bits, fnv1a(source text)), where
  // the bits are the source-level transforms uc::Program::compile applied
  // (0 for a unit from compile() alone).  Durable snapshots are stamped with
  // it, so a resume never restores another program's state.
  std::uint64_t identity = 0;

  bool ok() const { return !diags.has_errors(); }
};

// Runs lex+parse only (no sema) — used by transform tests that want a raw
// tree.  `unit.sema` is left empty.
std::unique_ptr<CompilationUnit> parse_only(std::string name,
                                            std::string source);

// Runs the full front end.  Always returns a unit; check unit->ok().
std::unique_ptr<CompilationUnit> compile(std::string name,
                                         std::string source);

// Re-runs semantic analysis over an existing unit's program (after a
// source-to-source transform rewired the AST).  Clears old annotations'
// owners by replacing unit.sema wholesale.
void reanalyze(CompilationUnit& unit);

}  // namespace uc::lang
