#include "codegen/pretty.hpp"

#include <charconv>
#include <cmath>
#include <limits>
#include <sstream>

namespace uc::codegen {

using namespace lang;

namespace {

// Operator precedence for minimal parenthesisation (mirrors the parser).
int prec_of(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLogOr: return 1;
    case BinaryOp::kLogAnd: return 2;
    case BinaryOp::kBitOr: return 3;
    case BinaryOp::kBitXor: return 4;
    case BinaryOp::kBitAnd: return 5;
    case BinaryOp::kEq:
    case BinaryOp::kNe: return 6;
    case BinaryOp::kLt:
    case BinaryOp::kGt:
    case BinaryOp::kLe:
    case BinaryOp::kGe: return 7;
    case BinaryOp::kShl:
    case BinaryOp::kShr: return 8;
    case BinaryOp::kAdd:
    case BinaryOp::kSub: return 9;
    default: return 10;
  }
}

// The shortest text that reads back as exactly `v` (std::to_chars) and
// still lexes as a float.  Infinities and NaN have no literal: they print
// as the quotients that fold back to them.
std::string float_literal(double v) {
  if (std::isnan(v)) return "(0.0 / 0.0)";
  if (std::isinf(v)) return v > 0 ? "(1.0 / 0.0)" : "(-1.0 / 0.0)";
  char buf[32];
  std::string s(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  if (s.find_first_of(".e") == std::string::npos) s += ".0";  // "-0", "10"
  return s;
}

class Printer {
 public:
  // Appends `[e]`.
  void bracket(std::string& out, const Expr& e) {
    out += '[';
    out += expr(e);
    out += ']';
  }

  std::string expr(const Expr& e, int parent_prec = 0) {
    switch (e.kind) {
      case ExprKind::kIntLit: {
        const std::int64_t v = static_cast<const IntLitExpr&>(e).value;
        // INT64_MIN has no literal: its magnitude does not fit an int64.
        if (v == std::numeric_limits<std::int64_t>::min()) {
          return "(-9223372036854775807 - 1)";
        }
        return std::to_string(v);
      }
      case ExprKind::kFloatLit:
        return float_literal(static_cast<const FloatLitExpr&>(e).value);
      case ExprKind::kStringLit: {
        std::string out = "\"";
        for (char c : static_cast<const StringLitExpr&>(e).value) {
          switch (c) {
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            default: out += c;
          }
        }
        return out + "\"";
      }
      case ExprKind::kIdent:
        return static_cast<const IdentExpr&>(e).name;
      case ExprKind::kSubscript: {
        const auto& s = static_cast<const SubscriptExpr&>(e);
        std::string out = expr(*s.base, 11);
        for (const auto& idx : s.indices) bracket(out, *idx);
        return out;
      }
      case ExprKind::kCall: {
        const auto& c = static_cast<const CallExpr&>(e);
        std::string out = c.callee + "(";
        for (std::size_t k = 0; k < c.args.size(); ++k) {
          if (k != 0) out += ", ";
          out += expr(*c.args[k]);
        }
        return out + ")";
      }
      case ExprKind::kUnary: {
        const auto& u = static_cast<const UnaryExpr&>(e);
        auto inner = expr(*u.operand, 11);
        const char* op = unary_op_spelling(u.op);
        // `-(-x)` must not print as `--x` (which lexes as decrement);
        // likewise `+(+x)`.
        if (!inner.empty() && inner[0] == op[0] &&
            (op[0] == '-' || op[0] == '+')) {
          return std::string(op) + "(" + inner + ")";
        }
        return std::string(op) + inner;
      }
      case ExprKind::kBinary: {
        const auto& b = static_cast<const BinaryExpr&>(e);
        const int p = prec_of(b.op);
        auto out = expr(*b.lhs, p) + " " + binary_op_spelling(b.op) + " " +
                   expr(*b.rhs, p + 1);
        if (p < parent_prec) return "(" + out + ")";
        return out;
      }
      case ExprKind::kAssign: {
        const auto& a = static_cast<const AssignExpr&>(e);
        auto out = expr(*a.lhs, 11) + " " + assign_op_spelling(a.op) + " " +
                   expr(*a.rhs);
        if (parent_prec > 0) return "(" + out + ")";
        return out;
      }
      case ExprKind::kTernary: {
        const auto& t = static_cast<const TernaryExpr&>(e);
        auto out = expr(*t.cond, 1) + " ? " + expr(*t.then_expr) + " : " +
                   expr(*t.else_expr);
        if (parent_prec > 0) return "(" + out + ")";
        return out;
      }
      case ExprKind::kReduce: {
        const auto& r = static_cast<const ReduceExpr&>(e);
        std::string out = reduce_kind_spelling(r.op);
        out += "(";
        for (std::size_t k = 0; k < r.index_sets.size(); ++k) {
          if (k != 0) out += ", ";
          out += r.index_sets[k];
        }
        if (r.arms.size() == 1 && !r.arms[0].pred) {
          out += "; " + expr(*r.arms[0].value);
        } else {
          for (const auto& arm : r.arms) {
            out += " st (" + expr(*arm.pred) + ") " + expr(*arm.value);
          }
          if (r.others) out += " others " + expr(*r.others);
        }
        return out + ")";
      }
      case ExprKind::kIncDec: {
        const auto& i = static_cast<const IncDecExpr&>(e);
        const char* op = i.is_increment ? "++" : "--";
        if (i.is_prefix) return op + expr(*i.operand, 11);
        return expr(*i.operand, 11) + op;
      }
    }
    return "?";
  }

  void stmt(const Stmt& s, int indent) {
    switch (s.kind) {
      case StmtKind::kEmpty:
        line(indent, ";");
        return;
      case StmtKind::kExpr:
        line(indent, expr(*static_cast<const ExprStmt&>(s).expr) + ";");
        return;
      case StmtKind::kCompound: {
        line(indent, "{");
        for (const auto& child : static_cast<const CompoundStmt&>(s).body) {
          stmt(*child, indent + 1);
        }
        line(indent, "}");
        return;
      }
      case StmtKind::kIf: {
        const auto& i = static_cast<const IfStmt&>(s);
        line(indent, "if (" + expr(*i.cond) + ")");
        stmt(*i.then_stmt, indent + 1);
        if (i.else_stmt) {
          line(indent, "else");
          stmt(*i.else_stmt, indent + 1);
        }
        return;
      }
      case StmtKind::kWhile: {
        const auto& w = static_cast<const WhileStmt&>(s);
        line(indent, "while (" + expr(*w.cond) + ")");
        stmt(*w.body, indent + 1);
        return;
      }
      case StmtKind::kFor: {
        const auto& f = static_cast<const ForStmt&>(s);
        std::string head = "for (";
        if (f.init) {
          if (f.init->kind == StmtKind::kExpr) {
            head += expr(*static_cast<const ExprStmt&>(*f.init).expr);
            head += "; ";
          } else {
            head += decl_text(static_cast<const VarDeclStmt&>(*f.init)) + " ";
          }
        } else {
          head += "; ";
        }
        if (f.cond) head += expr(*f.cond);
        head += "; ";
        if (f.step) head += expr(*f.step);
        head += ")";
        line(indent, head);
        stmt(*f.body, indent + 1);
        return;
      }
      case StmtKind::kReturn: {
        const auto& r = static_cast<const ReturnStmt&>(s);
        line(indent,
             r.value ? "return " + expr(*r.value) + ";" : "return;");
        return;
      }
      case StmtKind::kBreak:
        line(indent, "break;");
        return;
      case StmtKind::kContinue:
        line(indent, "continue;");
        return;
      case StmtKind::kVarDecl:
        line(indent, decl_text(static_cast<const VarDeclStmt&>(s)));
        return;
      case StmtKind::kIndexSetDecl: {
        const auto& d = static_cast<const IndexSetDeclStmt&>(s);
        std::string out = "index_set ";
        for (std::size_t k = 0; k < d.defs.size(); ++k) {
          const auto& def = d.defs[k];
          if (k != 0) out += ", ";
          out += def.set_name + ":" + def.elem_name + " = ";
          if (!def.alias.empty()) {
            out += def.alias;
          } else if (def.range_lo) {
            out += '{';
            out += expr(*def.range_lo);
            out += "..";
            out += expr(*def.range_hi);
            out += '}';
          } else {
            out += "{";
            for (std::size_t m = 0; m < def.listed.size(); ++m) {
              if (m != 0) out += ", ";
              out += expr(*def.listed[m]);
            }
            out += "}";
          }
        }
        line(indent, out + ";");
        return;
      }
      case StmtKind::kUcConstruct: {
        const auto& u = static_cast<const UcConstructStmt&>(s);
        std::string head = u.starred ? "*" : "";
        head += uc_op_spelling(u.op);
        head += " (";
        for (std::size_t k = 0; k < u.index_sets.size(); ++k) {
          if (k != 0) head += ", ";
          head += u.index_sets[k];
        }
        head += ")";
        line(indent, head);
        for (const auto& block : u.blocks) {
          if (block.pred) {
            line(indent + 1, "st (" + expr(*block.pred) + ")");
            stmt(*block.body, indent + 2);
          } else {
            stmt(*block.body, indent + 1);
          }
        }
        if (u.others) {
          line(indent + 1, "others");
          stmt(*u.others, indent + 2);
        }
        return;
      }
      case StmtKind::kMapSection: {
        const auto& m = static_cast<const MapSectionStmt&>(s);
        std::string head = "map (";
        for (std::size_t k = 0; k < m.index_sets.size(); ++k) {
          if (k != 0) head += ", ";
          head += m.index_sets[k];
        }
        line(indent, head + ") {");
        for (const auto& mapping : m.mappings) {
          std::string out = map_kind_spelling(mapping.kind);
          out += " (";
          for (std::size_t k = 0; k < mapping.index_sets.size(); ++k) {
            if (k != 0) out += ", ";
            out += mapping.index_sets[k];
          }
          out += ") " + mapping.target_array;
          for (const auto& sub : mapping.target_subscripts) {
            bracket(out, *sub);
          }
          if (mapping.kind != MapKind::kCopy) {
            out += " :- " + mapping.source_array;
            for (const auto& sub : mapping.source_subscripts) {
              bracket(out, *sub);
            }
          }
          line(indent + 1, out + ";");
        }
        line(indent, "}");
        return;
      }
    }
  }

  std::string decl_text(const VarDeclStmt& d) {
    std::string out = d.is_const ? "const " : "";
    out += scalar_kind_name(d.scalar);
    out += " ";
    for (std::size_t k = 0; k < d.declarators.size(); ++k) {
      const auto& dec = d.declarators[k];
      if (k != 0) out += ", ";
      out += dec.name;
      for (const auto& dim : dec.dim_exprs) bracket(out, *dim);
      if (dec.init) out += " = " + expr(*dec.init);
    }
    return out + ";";
  }

  void line(int indent, const std::string& text) {
    for (int k = 0; k < indent; ++k) out_ << "  ";
    out_ << text << "\n";
  }

  std::string take() { return out_.str(); }

 private:
  std::ostringstream out_;
};

}  // namespace

std::string print_expr(const Expr& expr) { return Printer().expr(expr); }

std::string print_stmt(const Stmt& stmt, int indent) {
  Printer p;
  p.stmt(stmt, indent);
  return p.take();
}

std::string print_program(const Program& program) {
  Printer p;
  for (const auto& item : program.items) {
    if (item.decl) {
      p.stmt(*item.decl, 0);
    } else if (item.func) {
      const auto& fn = *item.func;
      std::string head = scalar_kind_name(fn.return_scalar);
      head += " " + fn.name + "(";
      for (std::size_t k = 0; k < fn.params.size(); ++k) {
        const auto& param = fn.params[k];
        if (k != 0) head += ", ";
        head += scalar_kind_name(param.scalar);
        head += " " + param.name;
        for (std::size_t d = 0; d < param.array_rank; ++d) head += "[]";
      }
      head += ")";
      p.line(0, head);
      p.stmt(*fn.body, 0);
    }
  }
  return p.take();
}

}  // namespace uc::codegen
