// Symbols produced by semantic analysis.  Symbol objects are owned by the
// Sema that created them and live as long as the analysed Program; AST
// nodes hold non-owning Symbol* annotations.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "support/source.hpp"
#include "uclang/ast.hpp"

namespace uc::lang {

enum class SymbolKind : std::uint8_t {
  kGlobalVar,
  kLocalVar,   // includes per-lane locals declared inside parallel bodies
  kParam,
  kIndexSet,
  kIndexElem,  // the `i` of `I:i`
  kFunc,
  kBuiltin,
};

const char* symbol_kind_name(SymbolKind k);

// Resolved contents of an index set (constant by definition, paper §3.1).
struct IndexSetInfo {
  std::vector<std::int64_t> values;  // in declaration order
  Symbol* elem = nullptr;            // the element symbol

  // True for a non-empty ascending run of consecutive ints: position t
  // then binds values.front() + t.
  bool consecutive_run() const {
    for (std::size_t t = 1; t < values.size(); ++t) {
      if (values[t - 1] == std::numeric_limits<std::int64_t>::max() ||
          values[t] != values[t - 1] + 1) {
        return false;
      }
    }
    return !values.empty();
  }
};

struct Symbol {
  SymbolKind kind = SymbolKind::kGlobalVar;
  std::string name;
  Type type;            // vars/params; index elems are scalar int
  bool is_const = false;
  support::SourceRange def_range;

  // Storage assignment: index into the global frame (globals) or the
  // owning function's frame (locals/params).
  std::int32_t slot = -1;

  FuncDecl* func = nullptr;            // kFunc
  IndexSetInfo* index_set = nullptr;   // kIndexSet
  Symbol* elem_of_set = nullptr;       // kIndexElem: its set symbol
  std::int32_t builtin_id = -1;        // kBuiltin

  // Compile-time constant value, when known (const int N = 32; INF; ...).
  bool has_const_value = false;
  std::int64_t const_value = 0;
};

// UC's INF constant.  Chosen large but safe: INF + INF and INF * small do
// not overflow int64, so shortest-path relaxations through "infinite"
// edges behave (documented in docs/LANGUAGE.md).
inline constexpr std::int64_t kUcInf = std::int64_t{1} << 40;

// The well-known builtins (paper programs use power2, rand, swap, ...).
enum class BuiltinId : std::int32_t {
  kPower2,   // power2(k) = 2^k
  kRand,     // rand() — deterministic SplitMix64 stream
  kSrand,    // srand(seed)
  kAbs,      // abs(x)
  kMin2,     // min(a, b)
  kMax2,     // max(a, b)
  kSwap,     // swap(lval, lval) — exchanges two lvalues
  kPrint,    // print(fmt_or_values...) — appends to the run's output
};

}  // namespace uc::lang
