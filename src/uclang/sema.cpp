#include "uclang/sema.hpp"

#include <algorithm>
#include <unordered_set>

#include "uclang/arith.hpp"

namespace uc::lang {

namespace {

bool is_scalar_numeric(const Type& t) { return t.is_numeric(); }

// Usual arithmetic promotion: float wins, otherwise int.
Type promote(const Type& a, const Type& b) {
  Type t;
  t.scalar = (a.is_float() || b.is_float()) ? ScalarKind::kFloat
                                            : ScalarKind::kInt;
  return t;
}

Type int_type() { return Type{ScalarKind::kInt, {}}; }
Type void_type() { return Type{ScalarKind::kVoid, {}}; }

}  // namespace

Sema::Sema(Program& program, support::DiagnosticEngine& diags)
    : program_(program), diags_(diags) {}

SemaResult Sema::run() {
  push_scope();  // global scope
  declare_builtins();
  analyze_top_level();
  pop_scope();

  // A function declares an array if its body does or a callee does.
  for (bool changed = true; changed;) {
    changed = false;
    for (const auto& [caller, callee] : call_edges_) {
      if (callee->declares_array && !caller->declares_array) {
        caller->declares_array = true;
        changed = true;
      }
    }
  }

  // Direct check: a function whose body contains a parallel construct may
  // not be called from a parallel context.  (The transitive case — f calls
  // g, g contains par — is caught by the VM at execution time.)
  for (auto& pc : parallel_calls_) {
    if (pc.callee->func != nullptr &&
        pc.callee->func->has_parallel_construct) {
      diags_.error(pc.call->range,
                   "function '" + pc.callee->name +
                       "' contains a parallel construct and cannot be "
                       "called from inside a parallel context");
    }
  }
  return std::move(result_);
}

// ---------------------------------------------------------------------------
// Scope & symbols
// ---------------------------------------------------------------------------

void Sema::push_scope() { scopes_.emplace_back(); }

void Sema::pop_scope() { scopes_.pop_back(); }

Symbol* Sema::make_symbol(SymbolKind kind, const std::string& name,
                          support::SourceRange range) {
  auto sym = std::make_unique<Symbol>();
  sym->kind = kind;
  sym->name = name;
  sym->def_range = range;
  result_.symbols.push_back(std::move(sym));
  return result_.symbols.back().get();
}

Symbol* Sema::declare(SymbolKind kind, const std::string& name,
                      support::SourceRange range) {
  auto& scope = scopes_.back();
  auto it = scope.names.find(name);
  if (it != scope.names.end()) {
    diags_.error(range, "redeclaration of '" + name + "' (previously a " +
                            std::string(symbol_kind_name(it->second->kind)) +
                            ")");
    // Continue with a fresh symbol for error recovery.
  }
  Symbol* sym = make_symbol(kind, name, range);
  scope.names[name] = sym;
  return sym;
}

Symbol* Sema::lookup(const std::string& name) {
  for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
    auto found = it->names.find(name);
    if (found != it->names.end()) return found->second;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Constant evaluation
// ---------------------------------------------------------------------------

std::optional<std::int64_t> Sema::const_eval_int(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kIntLit:
      return static_cast<const IntLitExpr&>(e).value;
    case ExprKind::kIdent: {
      const auto& id = static_cast<const IdentExpr&>(e);
      Symbol* sym = id.symbol != nullptr
                        ? id.symbol
                        : const_cast<Sema*>(this)->lookup(id.name);
      if (sym != nullptr && sym->has_const_value) return sym->const_value;
      return std::nullopt;
    }
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(e);
      auto v = const_eval_int(*u.operand);
      if (!v) return std::nullopt;
      return arith::unary(u.op, arith::Num::of_int(*v)).i;
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      auto l = const_eval_int(*b.lhs);
      auto r = const_eval_int(*b.rhs);
      if (!l || !r) return std::nullopt;
      auto v = arith::binary(b.op, arith::Num::of_int(*l),
                             arith::Num::of_int(*r));
      if (!v) return std::nullopt;  // zero divisor
      return v->i;
    }
    case ExprKind::kTernary: {
      const auto& t = static_cast<const TernaryExpr&>(e);
      auto c = const_eval_int(*t.cond);
      if (!c) return std::nullopt;
      return const_eval_int(*c != 0 ? *t.then_expr : *t.else_expr);
    }
    default:
      return std::nullopt;
  }
}

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

void Sema::declare_builtins() {
  auto add = [&](const char* name, BuiltinId id) {
    Symbol* s = declare(SymbolKind::kBuiltin, name, {});
    s->builtin_id = static_cast<std::int32_t>(id);
  };
  add("power2", BuiltinId::kPower2);
  add("rand", BuiltinId::kRand);
  add("srand", BuiltinId::kSrand);
  add("abs", BuiltinId::kAbs);
  add("min", BuiltinId::kMin2);
  add("max", BuiltinId::kMax2);
  add("swap", BuiltinId::kSwap);
  add("print", BuiltinId::kPrint);

  Symbol* inf = declare(SymbolKind::kGlobalVar, "INF", {});
  inf->is_const = true;
  inf->has_const_value = true;
  inf->const_value = kUcInf;
  inf->type = int_type();
}

void Sema::analyze_top_level() {
  // Pass 1: declare all function signatures so call order doesn't matter.
  for (auto& item : program_.items) {
    if (!item.func) continue;
    FuncDecl& fn = *item.func;
    Symbol* sym = declare(SymbolKind::kFunc, fn.name, fn.range);
    sym->func = &fn;
    fn.symbol = sym;
  }
  // Pass 2: globals, index sets and map sections in order; then bodies.
  for (auto& item : program_.items) {
    if (item.decl) {
      switch (item.decl->kind) {
        case StmtKind::kVarDecl:
          analyze_var_decl(static_cast<VarDeclStmt&>(*item.decl),
                           /*is_global=*/true);
          break;
        case StmtKind::kIndexSetDecl:
          analyze_index_set_decl(static_cast<IndexSetDeclStmt&>(*item.decl));
          break;
        case StmtKind::kMapSection:
          analyze_map_section(static_cast<MapSectionStmt&>(*item.decl));
          break;
        default:
          diags_.error(item.decl->range, "unexpected top-level statement");
      }
    }
  }
  for (auto& item : program_.items) {
    if (item.func) analyze_function(*item.func);
  }
}

void Sema::analyze_function(FuncDecl& fn) {
  current_function_ = &fn;
  next_local_slot_ = 0;
  push_scope();
  for (auto& p : fn.params) {
    Symbol* sym = declare(SymbolKind::kParam, p.name, p.range);
    sym->type.scalar = p.scalar;
    if (p.is_array) {
      // Unknown extents: rank recorded via dims of -1 placeholders.
      sym->type.dims.assign(p.array_rank, -1);
    }
    sym->slot = next_local_slot_++;
    p.symbol = sym;
  }
  if (fn.body) {
    for (auto& stmt : fn.body->body) analyze_stmt(*stmt);
  }
  fn.frame_slots = static_cast<std::size_t>(next_local_slot_);
  pop_scope();
  current_function_ = nullptr;
}

void Sema::analyze_var_decl(VarDeclStmt& decl, bool is_global) {
  for (auto& d : decl.declarators) {
    Type t;
    t.scalar = decl.scalar;
    if (t.scalar == ScalarKind::kVoid) {
      diags_.error(d.range, "variables cannot have void type");
      t.scalar = ScalarKind::kInt;
    }
    for (auto& dim_expr : d.dim_exprs) {
      analyze_expr(*dim_expr);
      auto v = const_eval_int(*dim_expr);
      if (!v || *v <= 0) {
        diags_.error(dim_expr->range,
                     "array dimension must be a positive constant expression");
        t.dims.push_back(1);
      } else {
        t.dims.push_back(*v);
      }
    }
    Symbol* sym = declare(
        is_global ? SymbolKind::kGlobalVar : SymbolKind::kLocalVar, d.name,
        d.range);
    sym->type = t;
    sym->is_const = decl.is_const;
    if (t.is_array() && current_function_ != nullptr) {
      current_function_->declares_array = true;
    }
    if (t.is_array() && parallel_depth_ > 0) {
      diags_.error(d.range,
                   "array declarations inside parallel constructs are not "
                   "supported (declare the array outside the construct)");
    }
    if (is_global) {
      sym->slot = result_.global_slots++;
      result_.globals.push_back(sym);
    } else {
      sym->slot = next_local_slot_++;
    }
    if (d.init) {
      if (t.is_array()) {
        diags_.error(d.init->range,
                     "array initialisers are not supported; initialise with "
                     "a par statement");
      } else {
        Type init_t = analyze_expr(*d.init);
        if (!is_scalar_numeric(init_t)) {
          diags_.error(d.init->range, "initialiser must be a scalar value");
        }
        if (decl.is_const) {
          auto v = const_eval_int(*d.init);
          if (v) {
            sym->has_const_value = true;
            sym->const_value = *v;
          }
        }
      }
    }
    d.symbol = sym;
  }
}

void Sema::analyze_index_set_decl(IndexSetDeclStmt& decl) {
  for (auto& def : decl.defs) {
    auto info = std::make_unique<IndexSetInfo>();
    if (!def.alias.empty()) {
      Symbol* alias = lookup(def.alias);
      if (alias == nullptr || alias->kind != SymbolKind::kIndexSet) {
        diags_.error(def.range,
                     "'" + def.alias + "' does not name an index set");
      } else {
        info->values = alias->index_set->values;
      }
    } else if (def.range_lo) {
      analyze_expr(*def.range_lo);
      analyze_expr(*def.range_hi);
      auto lo = const_eval_int(*def.range_lo);
      auto hi = const_eval_int(*def.range_hi);
      if (!lo || !hi) {
        diags_.error(def.range,
                     "index set bounds must be constant expressions");
      } else {
        if (*lo > *hi) {
          diags_.warning(def.range, "index set '" + def.set_name +
                                        "' is empty (lower bound exceeds "
                                        "upper bound)");
        }
        for (std::int64_t v = *lo; v <= *hi; ++v) info->values.push_back(v);
      }
    } else {
      for (auto& e : def.listed) {
        analyze_expr(*e);
        auto v = const_eval_int(*e);
        if (!v) {
          diags_.error(e->range,
                       "index set members must be constant expressions");
        } else {
          info->values.push_back(*v);
        }
      }
    }

    Symbol* set_sym = declare(SymbolKind::kIndexSet, def.set_name, def.range);
    Symbol* elem_sym = declare(SymbolKind::kIndexElem, def.elem_name,
                               def.range);
    elem_sym->type = int_type();
    elem_sym->elem_of_set = set_sym;
    info->elem = elem_sym;
    set_sym->index_set = info.get();
    result_.index_sets.push_back(std::move(info));
    def.symbol = set_sym;
  }
}

void Sema::analyze_map_section(MapSectionStmt& section) {
  // The header's sets must exist; each mapping binds its own sets' elems.
  for (auto& name : section.index_sets) {
    Symbol* s = lookup(name);
    if (s == nullptr || s->kind != SymbolKind::kIndexSet) {
      diags_.error(section.range,
                   "'" + name + "' in map header does not name an index set");
    }
  }
  for (auto& m : section.mappings) {
    m.index_set_syms = bind_index_sets(m.index_sets, m.range);

    auto resolve_array = [&](const std::string& name) -> Symbol* {
      Symbol* s = lookup(name);
      if (s == nullptr) {
        diags_.error(m.range, "unknown array '" + name + "' in mapping");
        return nullptr;
      }
      if ((s->kind != SymbolKind::kGlobalVar &&
           s->kind != SymbolKind::kLocalVar &&
           s->kind != SymbolKind::kParam) ||
          !s->type.is_array()) {
        diags_.error(m.range, "'" + name + "' is not an array");
        return nullptr;
      }
      return s;
    };

    m.target_symbol = resolve_array(m.target_array);
    if (m.target_symbol != nullptr && m.kind != MapKind::kCopy &&
        m.target_subscripts.size() != m.target_symbol->type.dims.size()) {
      diags_.error(m.range, "mapping subscript count does not match the rank "
                            "of array '" + m.target_array + "'");
    }
    if (m.kind == MapKind::kCopy && !m.target_subscripts.empty()) {
      diags_.error(m.range,
                   "copy mapping takes a bare array name: copy (J) a;");
    }
    for (auto& e : m.target_subscripts) analyze_expr(*e);
    if (m.kind != MapKind::kCopy) {
      m.source_symbol = resolve_array(m.source_array);
      if (m.source_symbol != nullptr &&
          m.source_subscripts.size() != m.source_symbol->type.dims.size()) {
        diags_.error(m.range,
                     "mapping subscript count does not match the rank of "
                     "array '" + m.source_array + "'");
      }
      for (auto& e : m.source_subscripts) analyze_expr(*e);
      if (m.kind == MapKind::kFold && m.target_symbol != nullptr &&
          m.source_symbol != nullptr &&
          m.target_symbol != m.source_symbol) {
        diags_.error(m.range,
                     "fold maps an array relative to itself (paper §4); use "
                     "permute for distinct arrays");
      }
    }
    unbind_index_sets(m.index_set_syms);
  }
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

void Sema::analyze_stmt(Stmt& stmt) {
  switch (stmt.kind) {
    case StmtKind::kExpr:
      analyze_expr(*static_cast<ExprStmt&>(stmt).expr);
      return;
    case StmtKind::kCompound: {
      push_scope();
      for (auto& s : static_cast<CompoundStmt&>(stmt).body) analyze_stmt(*s);
      pop_scope();
      return;
    }
    case StmtKind::kIf: {
      auto& s = static_cast<IfStmt&>(stmt);
      require_numeric(*s.cond, "if condition");
      analyze_stmt(*s.then_stmt);
      if (s.else_stmt) analyze_stmt(*s.else_stmt);
      return;
    }
    case StmtKind::kWhile: {
      auto& s = static_cast<WhileStmt&>(stmt);
      require_numeric(*s.cond, "while condition");
      ++loop_depth_;
      analyze_stmt(*s.body);
      --loop_depth_;
      return;
    }
    case StmtKind::kFor: {
      auto& s = static_cast<ForStmt&>(stmt);
      push_scope();
      if (s.init) analyze_stmt(*s.init);
      if (s.cond) require_numeric(*s.cond, "for condition");
      if (s.step) analyze_expr(*s.step);
      ++loop_depth_;
      analyze_stmt(*s.body);
      --loop_depth_;
      pop_scope();
      return;
    }
    case StmtKind::kReturn: {
      auto& s = static_cast<ReturnStmt&>(stmt);
      if (current_function_ == nullptr) {
        diags_.error(stmt.range, "return outside a function");
        return;
      }
      if (s.value) {
        Type t = analyze_expr(*s.value);
        if (current_function_->return_scalar == ScalarKind::kVoid) {
          diags_.error(stmt.range, "void function '" +
                                       current_function_->name +
                                       "' cannot return a value");
        } else if (!is_scalar_numeric(t)) {
          diags_.error(s.value->range, "return value must be scalar");
        }
      } else if (current_function_->return_scalar != ScalarKind::kVoid) {
        diags_.error(stmt.range, "non-void function '" +
                                     current_function_->name +
                                     "' must return a value");
      }
      return;
    }
    case StmtKind::kBreak:
    case StmtKind::kContinue:
      if (loop_depth_ == 0) {
        diags_.error(stmt.range, "break/continue outside a loop");
      }
      return;
    case StmtKind::kVarDecl:
      analyze_var_decl(static_cast<VarDeclStmt&>(stmt), /*is_global=*/false);
      return;
    case StmtKind::kIndexSetDecl:
      analyze_index_set_decl(static_cast<IndexSetDeclStmt&>(stmt));
      return;
    case StmtKind::kUcConstruct:
      analyze_uc_construct(static_cast<UcConstructStmt&>(stmt));
      return;
    case StmtKind::kMapSection:
      analyze_map_section(static_cast<MapSectionStmt&>(stmt));
      return;
    case StmtKind::kEmpty:
      return;
  }
}

std::vector<Symbol*> Sema::bind_index_sets(
    const std::vector<std::string>& names, support::SourceRange range) {
  std::vector<Symbol*> sets;
  std::unordered_set<std::string> seen;
  for (const auto& name : names) {
    if (!seen.insert(name).second) {
      diags_.error(range,
                   "index set '" + name + "' listed more than once");
    }
    Symbol* s = lookup(name);
    if (s == nullptr || s->kind != SymbolKind::kIndexSet) {
      diags_.error(range, "'" + name + "' does not name an index set");
      continue;
    }
    sets.push_back(s);
    ++bound_elems_[s->index_set->elem];
  }
  return sets;
}

void Sema::unbind_index_sets(const std::vector<Symbol*>& sets) {
  for (Symbol* s : sets) {
    auto it = bound_elems_.find(s->index_set->elem);
    if (it != bound_elems_.end() && --it->second == 0) bound_elems_.erase(it);
  }
}

void Sema::analyze_uc_construct(UcConstructStmt& stmt) {
  stmt.index_set_syms = bind_index_sets(stmt.index_sets, stmt.range);
  if (current_function_ != nullptr) {
    current_function_->has_parallel_construct = true;
  }
  ++parallel_depth_;
  for (auto& block : stmt.blocks) {
    if (block.pred) require_numeric(*block.pred, "st predicate");
    push_scope();
    analyze_stmt(*block.body);
    pop_scope();
  }
  if (stmt.others) {
    push_scope();
    analyze_stmt(*stmt.others);
    pop_scope();
  }
  --parallel_depth_;
  if (stmt.op == UcOp::kSolve) check_solve_body(stmt);
  unbind_index_sets(stmt.index_set_syms);
}

// Collects the plain assignments in a (compound of) expression statements.
// Returns nullptr and pushes nothing on malformed bodies (diagnosed here).
const Expr* Sema::assignment_target_of(const Stmt& stmt,
                                       std::vector<const AssignExpr*>& out) {
  switch (stmt.kind) {
    case StmtKind::kExpr: {
      const auto& es = static_cast<const ExprStmt&>(stmt);
      if (es.expr->kind != ExprKind::kAssign) {
        diags_.error(es.expr->range,
                     "solve bodies may contain only assignment statements "
                     "(paper §3.6)");
        return nullptr;
      }
      const auto& a = static_cast<const AssignExpr&>(*es.expr);
      if (a.op != AssignOp::kAssign) {
        diags_.error(a.range,
                     "solve assignments must use plain '=' (compound "
                     "assignments read their own target)");
        return nullptr;
      }
      out.push_back(&a);
      return a.lhs.get();
    }
    case StmtKind::kCompound: {
      for (const auto& s : static_cast<const CompoundStmt&>(stmt).body) {
        assignment_target_of(*s, out);
      }
      return nullptr;
    }
    case StmtKind::kEmpty:
      return nullptr;
    default:
      diags_.error(stmt.range,
                   "solve bodies may contain only assignment statements "
                   "(paper §3.6)");
      return nullptr;
  }
}

void Sema::check_solve_body(UcConstructStmt& stmt) {
  // Non-starred solve: a proper set assigns each variable at most once.
  // Conservative syntactic check, per sc-block: within one block (whose
  // lanes all satisfy the same predicate) an array may be the target of at
  // most one assignment.  Across differently-predicated blocks the
  // equations may legitimately partition the same array, so overlap there
  // is checked element-wise at run time.  (*solve lifts the rule entirely,
  // paper §3.6.)
  auto check_block = [&](const Stmt& body) {
    std::vector<const AssignExpr*> assigns;
    assignment_target_of(body, assigns);
    if (stmt.starred) return;
    std::unordered_set<const Symbol*> targets;
    for (const auto* a : assigns) {
      const Symbol* target = nullptr;
      if (a->lhs->kind == ExprKind::kSubscript) {
        const auto& sub = static_cast<const SubscriptExpr&>(*a->lhs);
        if (sub.base->kind == ExprKind::kIdent) {
          target = static_cast<const IdentExpr&>(*sub.base).symbol;
        }
      } else if (a->lhs->kind == ExprKind::kIdent) {
        diags_.error(a->lhs->range,
                     "solve assignments must target array elements");
        continue;
      }
      if (target != nullptr && !targets.insert(target).second) {
        diags_.error(a->range,
                     "array '" + target->name +
                         "' is assigned by more than one statement in a "
                         "solve body (not a proper set, paper §3.6)");
      }
    }
  };
  for (auto& block : stmt.blocks) check_block(*block.body);
  if (stmt.others) check_block(*stmt.others);
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

void Sema::require_numeric(const Expr& e_const, const char* what) {
  Expr& e = const_cast<Expr&>(e_const);
  Type t = analyze_expr(e);
  if (!is_scalar_numeric(t)) {
    diags_.error(e.range, std::string(what) + " must be a scalar value");
  }
}

void Sema::require_lvalue(const Expr& e) {
  if (e.kind == ExprKind::kSubscript) return;
  if (e.kind == ExprKind::kIdent) {
    const auto& id = static_cast<const IdentExpr&>(e);
    if (id.symbol == nullptr) return;  // already diagnosed
    switch (id.symbol->kind) {
      case SymbolKind::kGlobalVar:
      case SymbolKind::kLocalVar:
      case SymbolKind::kParam:
        if (id.symbol->is_const) {
          diags_.error(e.range,
                       "cannot assign to const '" + id.symbol->name + "'");
        } else if (id.symbol->type.is_array()) {
          diags_.error(e.range, "cannot assign to an array as a whole");
        }
        return;
      case SymbolKind::kIndexElem:
        diags_.error(e.range, "cannot assign to index element '" +
                                  id.symbol->name + "'");
        return;
      default:
        diags_.error(e.range, "cannot assign to " +
                                  std::string(symbol_kind_name(
                                      id.symbol->kind)) +
                                  " '" + id.symbol->name + "'");
        return;
    }
  }
  diags_.error(e.range, "expression is not assignable");
}

Type Sema::analyze_expr(Expr& e) {
  switch (e.kind) {
    case ExprKind::kIntLit:
      e.type = int_type();
      return e.type;
    case ExprKind::kFloatLit:
      e.type = Type{ScalarKind::kFloat, {}};
      return e.type;
    case ExprKind::kStringLit:
      e.type = void_type();  // only valid as a print() argument
      return e.type;
    case ExprKind::kIdent:
      return analyze_ident(static_cast<IdentExpr&>(e));
    case ExprKind::kSubscript:
      return analyze_subscript(static_cast<SubscriptExpr&>(e));
    case ExprKind::kCall:
      return analyze_call(static_cast<CallExpr&>(e));
    case ExprKind::kUnary: {
      auto& u = static_cast<UnaryExpr&>(e);
      Type t = analyze_expr(*u.operand);
      if (!is_scalar_numeric(t)) {
        diags_.error(u.operand->range, "operand must be a scalar value");
        t = int_type();
      }
      if (u.op == UnaryOp::kNot) {
        e.type = int_type();
      } else if (u.op == UnaryOp::kBitNot) {
        if (t.is_float()) {
          diags_.error(u.operand->range, "'~' requires an integer operand");
        }
        e.type = int_type();
      } else {
        e.type = t;
      }
      return e.type;
    }
    case ExprKind::kBinary: {
      auto& b = static_cast<BinaryExpr&>(e);
      Type lt = analyze_expr(*b.lhs);
      Type rt = analyze_expr(*b.rhs);
      if (!is_scalar_numeric(lt) || !is_scalar_numeric(rt)) {
        if (!is_scalar_numeric(lt)) {
          diags_.error(b.lhs->range, "operand must be a scalar value");
        }
        if (!is_scalar_numeric(rt)) {
          diags_.error(b.rhs->range, "operand must be a scalar value");
        }
        e.type = int_type();
        return e.type;
      }
      switch (b.op) {
        case BinaryOp::kMod:
        case BinaryOp::kBitAnd:
        case BinaryOp::kBitOr:
        case BinaryOp::kBitXor:
        case BinaryOp::kShl:
        case BinaryOp::kShr:
          if (lt.is_float() || rt.is_float()) {
            diags_.error(e.range, std::string("'") +
                                      binary_op_spelling(b.op) +
                                      "' requires integer operands");
          }
          e.type = int_type();
          return e.type;
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kGt:
        case BinaryOp::kLe:
        case BinaryOp::kGe:
        case BinaryOp::kLogAnd:
        case BinaryOp::kLogOr:
          e.type = int_type();
          return e.type;
        default:
          e.type = promote(lt, rt);
          return e.type;
      }
    }
    case ExprKind::kAssign: {
      auto& a = static_cast<AssignExpr&>(e);
      Type lt = analyze_expr(*a.lhs);
      require_lvalue(*a.lhs);
      Type rt = analyze_expr(*a.rhs);
      if (!is_scalar_numeric(rt)) {
        diags_.error(a.rhs->range, "assigned value must be scalar");
      }
      if (a.op == AssignOp::kMod && (lt.is_float() || rt.is_float())) {
        diags_.error(e.range, "'%=' requires integer operands");
      }
      e.type = lt.dims.empty() ? lt : int_type();
      return e.type;
    }
    case ExprKind::kTernary: {
      auto& t = static_cast<TernaryExpr&>(e);
      require_numeric(*t.cond, "ternary condition");
      Type a = analyze_expr(*t.then_expr);
      Type b = analyze_expr(*t.else_expr);
      if (!is_scalar_numeric(a) || !is_scalar_numeric(b)) {
        if (!is_scalar_numeric(a)) {
          diags_.error(t.then_expr->range, "ternary arm must be scalar");
        }
        if (!is_scalar_numeric(b)) {
          diags_.error(t.else_expr->range, "ternary arm must be scalar");
        }
        e.type = int_type();
        return e.type;
      }
      e.type = promote(a, b);
      return e.type;
    }
    case ExprKind::kReduce:
      return analyze_reduce(static_cast<ReduceExpr&>(e));
    case ExprKind::kIncDec: {
      auto& i = static_cast<IncDecExpr&>(e);
      Type t = analyze_expr(*i.operand);
      require_lvalue(*i.operand);
      if (!is_scalar_numeric(t)) {
        diags_.error(i.operand->range, "++/-- operand must be scalar");
        t = int_type();
      }
      e.type = t;
      return e.type;
    }
  }
  e.type = int_type();
  return e.type;
}

Type Sema::analyze_ident(IdentExpr& e) {
  Symbol* sym = lookup(e.name);
  if (sym == nullptr) {
    diags_.error(e.range, "unknown identifier '" + e.name + "'");
    e.type = int_type();
    return e.type;
  }
  e.symbol = sym;
  switch (sym->kind) {
    case SymbolKind::kGlobalVar:
    case SymbolKind::kLocalVar:
    case SymbolKind::kParam:
      e.type = sym->type;
      return e.type;
    case SymbolKind::kIndexElem:
      if (!bound_elems_.contains(sym)) {
        diags_.error(e.range,
                     "index element '" + e.name +
                         "' used outside a construct over its index set");
      }
      e.type = int_type();
      return e.type;
    case SymbolKind::kIndexSet:
      diags_.error(e.range, "index set '" + e.name +
                                "' cannot be used as a value");
      e.type = int_type();
      return e.type;
    case SymbolKind::kFunc:
    case SymbolKind::kBuiltin:
      diags_.error(e.range,
                   "function '" + e.name + "' used without a call");
      e.type = int_type();
      return e.type;
  }
  e.type = int_type();
  return e.type;
}

Type Sema::analyze_subscript(SubscriptExpr& e) {
  if (e.base->kind != ExprKind::kIdent) {
    diags_.error(e.base->range, "only named arrays can be subscripted");
    e.type = int_type();
    return e.type;
  }
  Type base_t = analyze_expr(*e.base);
  auto& id = static_cast<IdentExpr&>(*e.base);
  if (id.symbol == nullptr) {
    e.type = int_type();
    return e.type;
  }
  if (!id.symbol->type.is_array()) {
    diags_.error(e.range, "'" + id.name + "' is not an array");
    e.type = int_type();
    return e.type;
  }
  if (e.indices.size() != base_t.dims.size()) {
    diags_.error(e.range,
                 "array '" + id.name + "' has rank " +
                     std::to_string(base_t.dims.size()) + " but " +
                     std::to_string(e.indices.size()) +
                     " subscripts were given");
  }
  for (auto& idx : e.indices) require_numeric(*idx, "array subscript");
  e.type = Type{base_t.scalar == ScalarKind::kVoid ? ScalarKind::kInt
                                                   : base_t.scalar,
                {}};
  return e.type;
}

Type Sema::analyze_call(CallExpr& e) {
  Symbol* sym = lookup(e.callee);
  if (sym == nullptr) {
    diags_.error(e.range, "unknown function '" + e.callee + "'");
    e.type = int_type();
    return e.type;
  }
  e.symbol = sym;

  auto check_argc = [&](std::size_t want) {
    if (e.args.size() != want) {
      diags_.error(e.range, "'" + e.callee + "' expects " +
                                std::to_string(want) + " argument(s), got " +
                                std::to_string(e.args.size()));
      return false;
    }
    return true;
  };

  if (sym->kind == SymbolKind::kBuiltin) {
    switch (static_cast<BuiltinId>(sym->builtin_id)) {
      case BuiltinId::kPower2:
        if (check_argc(1)) require_numeric(*e.args[0], "power2 argument");
        e.type = int_type();
        return e.type;
      case BuiltinId::kRand:
        check_argc(0);
        e.type = int_type();
        return e.type;
      case BuiltinId::kSrand:
        if (check_argc(1)) require_numeric(*e.args[0], "srand argument");
        e.type = void_type();
        return e.type;
      case BuiltinId::kAbs: {
        Type t = int_type();
        if (check_argc(1)) {
          t = analyze_expr(*e.args[0]);
          if (!is_scalar_numeric(t)) {
            diags_.error(e.args[0]->range, "abs argument must be scalar");
            t = int_type();
          }
        }
        e.type = t;
        return e.type;
      }
      case BuiltinId::kMin2:
      case BuiltinId::kMax2: {
        Type t = int_type();
        if (check_argc(2)) {
          Type a = analyze_expr(*e.args[0]);
          Type b = analyze_expr(*e.args[1]);
          if (!is_scalar_numeric(a) || !is_scalar_numeric(b)) {
            diags_.error(e.range, "min/max arguments must be scalar");
          } else {
            t = promote(a, b);
          }
        }
        e.type = t;
        return e.type;
      }
      case BuiltinId::kSwap:
        if (check_argc(2)) {
          for (auto& arg : e.args) {
            Type t = analyze_expr(*arg);
            require_lvalue(*arg);
            if (!is_scalar_numeric(t)) {
              diags_.error(arg->range,
                           "swap arguments must be scalar lvalues");
            }
          }
        }
        e.type = void_type();
        return e.type;
      case BuiltinId::kPrint:
        for (auto& arg : e.args) analyze_expr(*arg);
        e.type = void_type();
        return e.type;
    }
    e.type = int_type();
    return e.type;
  }

  if (sym->kind != SymbolKind::kFunc) {
    diags_.error(e.range, "'" + e.callee + "' is not a function");
    e.type = int_type();
    return e.type;
  }

  FuncDecl* fn = sym->func;
  if (current_function_ != nullptr && fn != nullptr) {
    call_edges_.emplace_back(current_function_, fn);
  }
  if (e.args.size() != fn->params.size()) {
    diags_.error(e.range, "'" + e.callee + "' expects " +
                              std::to_string(fn->params.size()) +
                              " argument(s), got " +
                              std::to_string(e.args.size()));
  }
  for (std::size_t i = 0; i < e.args.size() && i < fn->params.size(); ++i) {
    const Param& p = fn->params[i];
    if (p.is_array) {
      // Whole array, or an array slice `m[k]...` fixing leading dimensions
      // (paper §3: pointers pass "an array (or an array slice)").
      Expr& arg = *e.args[i];
      const Symbol* base_sym = nullptr;
      std::size_t fixed = 0;
      if (arg.kind == ExprKind::kIdent) {
        analyze_expr(arg);
        base_sym = static_cast<IdentExpr&>(arg).symbol;
      } else if (arg.kind == ExprKind::kSubscript) {
        auto& sub = static_cast<SubscriptExpr&>(arg);
        if (sub.base->kind == ExprKind::kIdent) {
          analyze_expr(*sub.base);
          base_sym = static_cast<IdentExpr&>(*sub.base).symbol;
          fixed = sub.indices.size();
          for (auto& idx : sub.indices) {
            require_numeric(*idx, "slice subscript");
          }
        }
      }
      const bool ok = base_sym != nullptr && base_sym->type.is_array() &&
                      base_sym->type.dims.size() >= fixed &&
                      base_sym->type.dims.size() - fixed == p.array_rank &&
                      p.array_rank > 0;
      if (!ok) {
        diags_.error(e.args[i]->range,
                     "argument for array parameter '" + p.name +
                         "' must be an array or array slice of rank " +
                         std::to_string(p.array_rank));
      } else if (base_sym->type.scalar != p.scalar) {
        // C: passing `int *` for `float *` is a constraint violation.
        diags_.error(e.args[i]->range,
                     std::string("argument for array parameter '") + p.name +
                         "' must have element type " +
                         scalar_kind_name(p.scalar) + ", not " +
                         scalar_kind_name(base_sym->type.scalar));
      } else {
        // Annotate the argument with its view type.
        arg.type.scalar = base_sym->type.scalar;
        arg.type.dims.assign(base_sym->type.dims.begin() +
                                 static_cast<std::ptrdiff_t>(fixed),
                             base_sym->type.dims.end());
      }
    } else {
      Type t = analyze_expr(*e.args[i]);
      if (!is_scalar_numeric(t)) {
        diags_.error(e.args[i]->range,
                     "argument for parameter '" + p.name +
                         "' must be scalar");
      }
    }
  }
  if (parallel_depth_ > 0) {
    parallel_calls_.push_back(ParallelCall{&e, sym});
  }
  e.type = Type{fn->return_scalar, {}};
  return e.type;
}

Type Sema::analyze_reduce(ReduceExpr& e) {
  e.index_set_syms = bind_index_sets(e.index_sets, e.range);
  Type result = int_type();
  bool any_float = false;
  for (auto& arm : e.arms) {
    if (arm.pred) require_numeric(*arm.pred, "reduction predicate");
    Type t = analyze_expr(*arm.value);
    if (!is_scalar_numeric(t)) {
      diags_.error(arm.value->range, "reduction operand must be scalar");
    } else if (t.is_float()) {
      any_float = true;
    }
  }
  if (e.others) {
    Type t = analyze_expr(*e.others);
    if (!is_scalar_numeric(t)) {
      diags_.error(e.others->range, "reduction operand must be scalar");
    } else if (t.is_float()) {
      any_float = true;
    }
  }
  switch (e.op) {
    case ReduceKind::kAnd:
    case ReduceKind::kOr:
      result = int_type();
      break;
    case ReduceKind::kXor:
      if (any_float) {
        diags_.error(e.range, "'$^' requires integer operands");
      }
      result = int_type();
      break;
    default:
      result.scalar = any_float ? ScalarKind::kFloat : ScalarKind::kInt;
      break;
  }
  unbind_index_sets(e.index_set_syms);
  e.type = result;
  return e.type;
}

}  // namespace uc::lang
