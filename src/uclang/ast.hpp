// Abstract syntax tree for UC.  Nodes are owned via unique_ptr in a strict
// tree; semantic analysis annotates nodes in place (resolved symbols,
// types, evaluated constants).  Kind tags + static casts keep the tree
// cheap to walk in the interpreter's hot path.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/source.hpp"

namespace uc::lang {

struct Symbol;  // defined in sema/symbols

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

enum class ScalarKind : std::uint8_t { kVoid, kInt, kFloat, kChar, kBool };

const char* scalar_kind_name(ScalarKind k);

// A value type: a scalar, or an array of scalars with rank dims.size().
// Dimensions are filled in by sema (constant-evaluated from the source
// dimension expressions).
struct Type {
  ScalarKind scalar = ScalarKind::kInt;
  std::vector<std::int64_t> dims;  // empty for scalars

  bool is_array() const { return !dims.empty(); }
  bool is_numeric() const {
    return scalar != ScalarKind::kVoid && dims.empty();
  }
  bool is_float() const { return scalar == ScalarKind::kFloat; }
  std::string to_string() const;

  friend bool operator==(const Type& a, const Type& b) = default;
};

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind : std::uint8_t {
  kIntLit, kFloatLit, kStringLit, kIdent, kSubscript, kCall,
  kUnary, kBinary, kAssign, kTernary, kReduce, kIncDec,
};

enum class UnaryOp : std::uint8_t { kNeg, kNot, kBitNot, kPlus };
enum class BinaryOp : std::uint8_t {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kGt, kLe, kGe,
  kLogAnd, kLogOr,
  kBitAnd, kBitOr, kBitXor, kShl, kShr,
};
enum class AssignOp : std::uint8_t { kAssign, kAdd, kSub, kMul, kDiv, kMod };

// The eight UC reduction operators (paper §3.2).
enum class ReduceKind : std::uint8_t {
  kAdd, kMul, kAnd, kOr, kXor, kMax, kMin, kArb,
};

const char* unary_op_spelling(UnaryOp op);
const char* binary_op_spelling(BinaryOp op);
const char* assign_op_spelling(AssignOp op);
const char* reduce_kind_spelling(ReduceKind k);

struct Expr {
  ExprKind kind;
  support::SourceRange range;
  // Sema annotations.
  Type type;

  explicit Expr(ExprKind k) : kind(k) {}
  virtual ~Expr() = default;
};

using ExprPtr = std::unique_ptr<Expr>;

struct IntLitExpr : Expr {
  std::int64_t value = 0;
  IntLitExpr() : Expr(ExprKind::kIntLit) {}
};

struct FloatLitExpr : Expr {
  double value = 0.0;
  FloatLitExpr() : Expr(ExprKind::kFloatLit) {}
};

struct StringLitExpr : Expr {
  std::string value;
  StringLitExpr() : Expr(ExprKind::kStringLit) {}
};

struct IdentExpr : Expr {
  std::string name;
  Symbol* symbol = nullptr;  // sema
  IdentExpr() : Expr(ExprKind::kIdent) {}
};

struct SubscriptExpr : Expr {
  ExprPtr base;  // IdentExpr naming an array (UC has no pointer arithmetic)
  std::vector<ExprPtr> indices;
  SubscriptExpr() : Expr(ExprKind::kSubscript) {}
};

struct CallExpr : Expr {
  std::string callee;
  std::vector<ExprPtr> args;
  Symbol* symbol = nullptr;  // sema: function or builtin
  CallExpr() : Expr(ExprKind::kCall) {}
};

struct UnaryExpr : Expr {
  UnaryOp op = UnaryOp::kNeg;
  ExprPtr operand;
  UnaryExpr() : Expr(ExprKind::kUnary) {}
};

struct BinaryExpr : Expr {
  BinaryOp op = BinaryOp::kAdd;
  ExprPtr lhs, rhs;
  BinaryExpr() : Expr(ExprKind::kBinary) {}
};

struct AssignExpr : Expr {
  AssignOp op = AssignOp::kAssign;
  ExprPtr lhs, rhs;
  AssignExpr() : Expr(ExprKind::kAssign) {}
};

struct TernaryExpr : Expr {
  ExprPtr cond, then_expr, else_expr;
  TernaryExpr() : Expr(ExprKind::kTernary) {}
};

struct IncDecExpr : Expr {
  bool is_increment = true;
  bool is_prefix = false;
  ExprPtr operand;
  IncDecExpr() : Expr(ExprKind::kIncDec) {}
};

// One `st (pred) expr` arm of a reduction (pred may be null for the plain
// `(I; expr)` form).
struct ReduceArm {
  ExprPtr pred;  // may be null
  ExprPtr value;
};

struct ReduceExpr : Expr {
  ReduceKind op = ReduceKind::kAdd;
  std::vector<std::string> index_sets;
  std::vector<Symbol*> index_set_syms;  // sema
  std::vector<ReduceArm> arms;          // at least one
  ExprPtr others;                       // may be null
  // VM annotation (written by the issuing thread before lane evaluation):
  // 1 when the §4 processor optimisation applies (send-with-combine keeps
  // the reduction at |sets| processors), 0 when not, -1 unknown.
  std::int8_t partition_optimized = -1;
  ReduceExpr() : Expr(ExprKind::kReduce) {}
};

// Calls fn on each direct subexpression of `e`, in evaluation order (a
// reduction's arms, each predicate before its value, then `others`).
template <class F>
void for_each_child(const Expr& e, F&& fn) {
  switch (e.kind) {
    case ExprKind::kSubscript:
      fn(*static_cast<const SubscriptExpr&>(e).base);
      for (const auto& x : static_cast<const SubscriptExpr&>(e).indices) fn(*x);
      return;
    case ExprKind::kCall:
      for (const auto& x : static_cast<const CallExpr&>(e).args) fn(*x);
      return;
    case ExprKind::kUnary:
      fn(*static_cast<const UnaryExpr&>(e).operand);
      return;
    case ExprKind::kBinary:
      fn(*static_cast<const BinaryExpr&>(e).lhs);
      fn(*static_cast<const BinaryExpr&>(e).rhs);
      return;
    case ExprKind::kAssign:
      fn(*static_cast<const AssignExpr&>(e).lhs);
      fn(*static_cast<const AssignExpr&>(e).rhs);
      return;
    case ExprKind::kTernary: {
      const auto& t = static_cast<const TernaryExpr&>(e);
      fn(*t.cond);
      fn(*t.then_expr);
      fn(*t.else_expr);
      return;
    }
    case ExprKind::kReduce: {
      const auto& r = static_cast<const ReduceExpr&>(e);
      for (const auto& arm : r.arms) {
        if (arm.pred) fn(*arm.pred);
        fn(*arm.value);
      }
      if (r.others) fn(*r.others);
      return;
    }
    case ExprKind::kIncDec:
      fn(*static_cast<const IncDecExpr&>(e).operand);
      return;
    default:
      return;
  }
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtKind : std::uint8_t {
  kExpr, kCompound, kIf, kWhile, kFor, kReturn, kBreak, kContinue,
  kVarDecl, kIndexSetDecl, kUcConstruct, kMapSection, kEmpty,
};

struct Stmt {
  StmtKind kind;
  support::SourceRange range;
  explicit Stmt(StmtKind k) : kind(k) {}
  virtual ~Stmt() = default;
};

using StmtPtr = std::unique_ptr<Stmt>;

struct ExprStmt : Stmt {
  ExprPtr expr;
  ExprStmt() : Stmt(StmtKind::kExpr) {}
};

struct CompoundStmt : Stmt {
  std::vector<StmtPtr> body;
  CompoundStmt() : Stmt(StmtKind::kCompound) {}
};

struct IfStmt : Stmt {
  ExprPtr cond;
  StmtPtr then_stmt;
  StmtPtr else_stmt;  // may be null
  IfStmt() : Stmt(StmtKind::kIf) {}
};

struct WhileStmt : Stmt {
  ExprPtr cond;
  StmtPtr body;
  WhileStmt() : Stmt(StmtKind::kWhile) {}
};

struct ForStmt : Stmt {
  StmtPtr init;   // ExprStmt, VarDecl, or null
  ExprPtr cond;   // may be null
  ExprPtr step;   // may be null
  StmtPtr body;
  ForStmt() : Stmt(StmtKind::kFor) {}
};

struct ReturnStmt : Stmt {
  ExprPtr value;  // may be null
  ReturnStmt() : Stmt(StmtKind::kReturn) {}
};

struct BreakStmt : Stmt {
  BreakStmt() : Stmt(StmtKind::kBreak) {}
};

struct ContinueStmt : Stmt {
  ContinueStmt() : Stmt(StmtKind::kContinue) {}
};

// One declarator of a (possibly multi-declarator) variable declaration.
struct VarDeclarator {
  std::string name;
  support::SourceRange range;
  std::vector<ExprPtr> dim_exprs;  // one per array dimension
  ExprPtr init;                    // may be null
  Symbol* symbol = nullptr;        // sema
};

struct VarDeclStmt : Stmt {
  ScalarKind scalar = ScalarKind::kInt;
  bool is_const = false;
  std::vector<VarDeclarator> declarators;
  VarDeclStmt() : Stmt(StmtKind::kVarDecl) {}
};

// index_set I:i = {0..N-1} | {4,2,9} | J
struct IndexSetDef {
  std::string set_name;
  std::string elem_name;
  support::SourceRange range;
  // Exactly one of the following forms:
  ExprPtr range_lo, range_hi;    // {lo..hi}
  std::vector<ExprPtr> listed;   // {a, b, c}
  std::string alias;             // = J
  Symbol* symbol = nullptr;      // sema: the set symbol
};

struct IndexSetDeclStmt : Stmt {
  std::vector<IndexSetDef> defs;
  IndexSetDeclStmt() : Stmt(StmtKind::kIndexSetDecl) {}
};

// par / seq / solve / oneof, with optional leading '*'.
enum class UcOp : std::uint8_t { kPar, kSeq, kSolve, kOneof };

const char* uc_op_spelling(UcOp op);

// One `st (pred) stmt` arm (pred null for the bare-statement form).
struct ScBlock {
  ExprPtr pred;  // may be null
  StmtPtr body;
};

struct UcConstructStmt : Stmt {
  UcOp op = UcOp::kPar;
  bool starred = false;
  std::vector<std::string> index_sets;
  std::vector<Symbol*> index_set_syms;  // sema
  std::vector<ScBlock> blocks;          // at least one
  StmtPtr others;                       // may be null
  UcConstructStmt() : Stmt(StmtKind::kUcConstruct) {}
};

// ---------------------------------------------------------------------------
// Map sections (paper §4)
// ---------------------------------------------------------------------------

enum class MapKind : std::uint8_t { kPermute, kFold, kCopy };

const char* map_kind_spelling(MapKind k);

// permute (I) b[i+1] :- a[i];   fold (I) a[N-1-i] :- a[i];   copy (J) a;
struct Mapping {
  MapKind kind = MapKind::kPermute;
  support::SourceRange range;
  std::vector<std::string> index_sets;
  std::vector<Symbol*> index_set_syms;  // sema
  // Target side (the array being re-mapped) and source side.
  std::string target_array;
  std::vector<ExprPtr> target_subscripts;
  std::string source_array;             // empty for copy
  std::vector<ExprPtr> source_subscripts;
  Symbol* target_symbol = nullptr;  // sema
  Symbol* source_symbol = nullptr;  // sema
};

struct MapSectionStmt : Stmt {
  std::vector<std::string> index_sets;  // the map header's sets
  std::vector<Mapping> mappings;
  MapSectionStmt() : Stmt(StmtKind::kMapSection) {}
};

struct EmptyStmt : Stmt {
  EmptyStmt() : Stmt(StmtKind::kEmpty) {}
};

// ---------------------------------------------------------------------------
// Top level
// ---------------------------------------------------------------------------

struct Param {
  ScalarKind scalar = ScalarKind::kInt;
  bool is_array = false;       // passed by reference, C-style decay
  std::size_t array_rank = 0;  // 0 for scalar
  std::string name;
  support::SourceRange range;
  Symbol* symbol = nullptr;  // sema
};

struct FuncDecl {
  ScalarKind return_scalar = ScalarKind::kVoid;
  std::string name;
  support::SourceRange range;
  std::vector<Param> params;
  std::unique_ptr<CompoundStmt> body;
  Symbol* symbol = nullptr;  // sema
  // Sema: number of local scalar slots this function's frame needs.
  std::size_t frame_slots = 0;
  // Sema: true if the body contains any UC parallel construct (such
  // functions cannot be called from inside a parallel context).
  bool has_parallel_construct = false;
  // Sema: true if the body, or a function it calls (transitively),
  // declares an array.  Each such declaration allocates machine storage,
  // so the VM runs lanes that may make one on a single host thread.
  bool declares_array = false;
};

// A top-level item: a global declaration statement (var / index_set / map)
// or a function definition.
struct TopLevel {
  StmtPtr decl;                    // non-null for declarations
  std::unique_ptr<FuncDecl> func;  // non-null for functions
};

struct Program {
  std::vector<TopLevel> items;

  FuncDecl* find_function(std::string_view name) const;
};

// Deep copies for the transform passes.  Sema annotations (symbols, types)
// are NOT copied — run sema again after transforming.
ExprPtr clone_expr(const Expr& e);
StmtPtr clone_stmt(const Stmt& s);

}  // namespace uc::lang
