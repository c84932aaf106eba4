// Semantic analysis for UC.  Resolves names (with index-set shadowing as in
// paper §3.4), constant-evaluates index-set definitions and array
// dimensions, type-checks expressions, enforces UC's restrictions (no
// goto — rejected by the parser —, pointers only as array parameters,
// solve bodies must be proper assignment sets), and assigns storage slots
// for the VM.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/diag.hpp"
#include "uclang/ast.hpp"
#include "uclang/symbols.hpp"

namespace uc::lang {

// Result of analysing a program: symbol storage plus layout info the VM
// needs.  Owns every Symbol referenced from the AST annotations.
struct SemaResult {
  std::vector<std::unique_ptr<Symbol>> symbols;
  std::vector<std::unique_ptr<IndexSetInfo>> index_sets;
  std::int32_t global_slots = 0;  // size of the global frame
  // Global variables in declaration order (the VM materialises them).
  std::vector<Symbol*> globals;
};

class Sema {
 public:
  Sema(Program& program, support::DiagnosticEngine& diags);

  // Runs the analysis; returns the result even when diagnostics were
  // produced (callers check diags.has_errors()).
  SemaResult run();

 private:
  struct Scope {
    std::unordered_map<std::string, Symbol*> names;
  };

  // Scope & symbol helpers.
  void push_scope();
  void pop_scope();
  Symbol* declare(SymbolKind kind, const std::string& name,
                  support::SourceRange range);
  Symbol* lookup(const std::string& name);
  Symbol* make_symbol(SymbolKind kind, const std::string& name,
                      support::SourceRange range);

  // Constant expression evaluation (index sets, array dims).
  std::optional<std::int64_t> const_eval_int(const Expr& e);

  // Declarations.
  void declare_builtins();
  void analyze_top_level();
  void analyze_function(FuncDecl& fn);
  void analyze_var_decl(VarDeclStmt& decl, bool is_global);
  void analyze_index_set_decl(IndexSetDeclStmt& decl);
  void analyze_map_section(MapSectionStmt& section);

  // Statements.
  void analyze_stmt(Stmt& stmt);
  void analyze_uc_construct(UcConstructStmt& stmt);
  void check_solve_body(UcConstructStmt& stmt);
  const Expr* assignment_target_of(const Stmt& stmt,
                                   std::vector<const AssignExpr*>& out);

  // Expressions.  Returns the expression's type (also annotated in place).
  Type analyze_expr(Expr& e);
  Type analyze_ident(IdentExpr& e);
  Type analyze_subscript(SubscriptExpr& e);
  Type analyze_call(CallExpr& e);
  Type analyze_reduce(ReduceExpr& e);
  void require_numeric(const Expr& e, const char* what);
  void require_lvalue(const Expr& e);
  // Binds the element symbols of the named sets; returns resolved set syms.
  std::vector<Symbol*> bind_index_sets(const std::vector<std::string>& names,
                                       support::SourceRange range);
  void unbind_index_sets(const std::vector<Symbol*>& sets);

  Program& program_;
  support::DiagnosticEngine& diags_;
  SemaResult result_;
  std::vector<Scope> scopes_;

  FuncDecl* current_function_ = nullptr;
  std::int32_t next_local_slot_ = 0;
  std::int32_t loop_depth_ = 0;
  std::int32_t parallel_depth_ = 0;  // nesting of par/seq/solve/oneof bodies
  // Element symbols currently bound (counts support nested rebinding).
  std::unordered_map<Symbol*, int> bound_elems_;
  // Deferred check: calls made from parallel context.
  struct ParallelCall {
    CallExpr* call;
    Symbol* callee;
  };
  std::vector<ParallelCall> parallel_calls_;
  // Caller -> callee edges between user functions, for the transitive
  // FuncDecl::declares_array.
  std::vector<std::pair<FuncDecl*, FuncDecl*>> call_edges_;
};

}  // namespace uc::lang
