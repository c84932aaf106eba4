// Structured results of the `ucc analyze` static-analysis passes.
//
// Findings carry stable UC-Axxx codes so tools (and tests) can match them
// without parsing prose:
//
//   UC-A101  warning  write-write conflict between lanes of a par block
//   UC-A102  note     possible write-write conflict (not statically decidable)
//   UC-A103  note     reads observe old (copy-in) values in a par block
//   UC-A104  note     write escapes the subset selected by an st predicate
//   UC-A105  note     user-function call limits interference analysis
//   UC-A201  warning  permute mapping forces router traffic where the
//                     default (or a NEWS) mapping would serve every access
//   UC-A202  note     mapping targets an array with no parallel accesses
//
// The communication summary classifies every parallel array access:
//
//   local   every lane reads its own element (no communication)
//   news    every lane reads one axis away, within the NEWS limit
//   scan    decided per lane (uniform or reduce-bound subscripts, other
//           geometries or layouts)
//   router  general communication (non-affine, strided, permuted, or
//           past the NEWS limit)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/diag.hpp"
#include "support/source.hpp"

namespace uc::analysis {

enum class CommClass : std::uint8_t { kLocal, kNews, kScan, kRouter };

const char* comm_class_name(CommClass c);

struct Finding {
  const char* code = "UC-A000";
  support::Severity severity = support::Severity::kNote;
  support::SourceRange range;
  std::string message;
};

// One classified array access inside a parallel construct or reduction.
struct CommAccess {
  CommClass cls = CommClass::kLocal;
  bool is_write = false;
  std::string array;
  std::string detail;  // why it landed in this class
  support::SourceRange range;
  std::uint64_t lanes = 1;  // evaluation-space size
};

struct FunctionComm {
  std::string function;
  std::vector<CommAccess> accesses;

  std::size_t count(CommClass c) const;
};

struct RenderOptions {
  bool include_notes = true;
  bool include_summary = true;
};

struct Report {
  std::vector<Finding> findings;
  std::vector<FunctionComm> functions;

  std::size_t error_count() const;
  std::size_t warning_count() const;
  std::size_t note_count() const;

  void add(const char* code, support::Severity severity,
           support::SourceRange range, std::string message);

  // Renders findings (via the shared diagnostic engine, carets and all)
  // followed by the per-function communication summary.
  std::string render(const support::SourceFile* file,
                     const RenderOptions& opts = {}) const;

  // Machine-readable findings + summary (`ucc analyze --json=`),
  // mirroring the profile JSON conventions (docs/ANALYSIS.md).
  std::string json(const support::SourceFile* file) const;
};

}  // namespace uc::analysis
