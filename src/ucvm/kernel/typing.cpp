// Static register typing for lane kernels (docs/VM.md "Linking and
// execution").  Runs once when a kernel is compiled; the block executor
// picks each instruction's loop from the result, and the native emitter
// turns registers into int64/double locals from the same table.
#include "ucvm/kernel/bytecode.hpp"

#include "uclang/symbols.hpp"

namespace uc::vm::detail::kernel {

using lang::BinaryOp;
using lang::ReduceKind;
using lang::ScalarKind;
using lang::UnaryOp;

namespace {

// add/sub/mul/div and min/max: any float operand makes the result float.
RegType arith(RegType a, RegType b) {
  if (a == kFloat || b == kFloat) return kFloat;
  if (a == kUnset || b == kUnset) return kUnset;
  return kInt;
}

RegType declared(const lang::Symbol* sym) {
  return sym->type.is_float() ? kFloat : kInt;
}

// The accumulator representation before any fold: and/or/xor fold to
// ints; everything else follows the reduction's declared type.
RegType initial_acc(const lang::ReduceExpr& e) {
  if (e.op == ReduceKind::kAnd || e.op == ReduceKind::kOr ||
      e.op == ReduceKind::kXor) {
    return kInt;
  }
  return e.type.is_float() ? kFloat : kInt;
}

}  // namespace

bool type_kernel(const Kernel& k, KernelTypes& out) {
  out.regs.assign(k.num_regs, kUnset);
  out.acc.resize(k.reduces.size());
  for (std::size_t i = 0; i < k.reduces.size(); ++i) {
    out.acc[i] = initial_acc(*k.reduces[i].expr);
  }
  // Types only move from unset to int or float, so the passes stop; one
  // pass suffices unless a use precedes a definition in code order.
  bool changed = true;
  bool conflict = false;
  while (changed && !conflict) {
    changed = false;
    const auto def = [&](std::uint16_t r, RegType t) {
      if (out.regs[r] == t) return;
      conflict |= out.regs[r] != kUnset;
      out.regs[r] = t;
      changed = true;
    };
    std::int32_t cur_reduce = -1;
    for (const Inst& I : k.code) {
      const auto reg = [&](std::uint16_t r) { return out.regs[r]; };
      switch (I.op) {
        case Op::kConst:
          def(I.dst, k.pool[I.a].is_float ? kFloat : kInt);
          break;
        case Op::kMove:
        case Op::kIncDec:
        case Op::kAbs:
          if (reg(I.a) != kUnset) def(I.dst, reg(I.a));
          break;
        case Op::kBool:
        case Op::kLoadElem:
        case Op::kLoadReduceElem:
        case Op::kArrIndex:
        case Op::kPower2:
        case Op::kRand:
          def(I.dst, kInt);
          break;
        case Op::kLoadScalar:
          def(I.dst, declared(k.scalars[I.a].sym));
          break;
        case Op::kArrLoad:
        case Op::kArrGet:
          def(I.dst, declared(k.arrays[I.a].sym));
          break;
        case Op::kUnary: {
          const auto u = static_cast<UnaryOp>(I.arg);
          if (u == UnaryOp::kNot || u == UnaryOp::kBitNot) {
            def(I.dst, kInt);
          } else if (reg(I.a) != kUnset) {
            def(I.dst, reg(I.a));
          }
          break;
        }
        case Op::kBinary:
          switch (static_cast<BinaryOp>(I.arg)) {
            case BinaryOp::kAdd:
            case BinaryOp::kSub:
            case BinaryOp::kMul:
            case BinaryOp::kDiv: {
              const RegType t = arith(reg(I.a), reg(I.b));
              if (t != kUnset) def(I.dst, t);
              break;
            }
            default:
              def(I.dst, kInt);  // mod, comparisons, bit ops, shifts
              break;
          }
          break;
        case Op::kMinMax: {
          const RegType t = arith(reg(I.a), reg(I.b));
          if (t != kUnset) def(I.dst, t);
          break;
        }
        case Op::kCoerce:
          def(I.dst, static_cast<ScalarKind>(I.arg) == ScalarKind::kFloat
                         ? kFloat
                         : kInt);
          break;
        case Op::kReduceBegin:
          cur_reduce = static_cast<std::int32_t>(I.a);
          break;
        case Op::kReduceFold: {
          if (cur_reduce < 0) break;
          const auto ri = static_cast<std::size_t>(cur_reduce);
          // and/or/xor always leave an int; the others take the arm's
          // representation, and sema types a reduction with a float arm
          // float, so an int accumulator never meets a float arm.
          const ReduceKind op = k.reduces[ri].expr->op;
          const bool keeps_int = op == ReduceKind::kAnd ||
                                 op == ReduceKind::kOr ||
                                 op == ReduceKind::kXor;
          conflict |= !keeps_int && out.acc[ri] == kInt && reg(I.a) == kFloat;
          break;
        }
        case Op::kReduceEnd: {
          const auto ri = static_cast<std::size_t>(I.a);
          def(I.dst, k.reduces[ri].expr->type.is_float() ? kFloat
                                                         : out.acc[ri]);
          cur_reduce = -1;
          break;
        }
        case Op::kStoreScalar:
        case Op::kClassify:
        case Op::kBroadcastCheck:
        case Op::kArrStore:
        case Op::kArrPut:
        case Op::kJump:
        case Op::kJumpIfFalse:
        case Op::kJumpIfTrue:
        case Op::kReduceSkipOthers:
        case Op::kReduceNext:
        case Op::kReduceTuple:
        case Op::kMemberBoundary:
        case Op::kSelect:
        case Op::kRet:
          break;
      }
    }
  }
  return !conflict;
}

}  // namespace uc::vm::detail::kernel
