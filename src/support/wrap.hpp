// Two's-complement arithmetic on UC's 64-bit ints.  Every engine, the
// constant folders and the emitted native kernels compute int + - * and
// negation in uint64_t, where overflow is defined modular arithmetic, and
// cast back: an overflowing int wraps the same way everywhere instead of
// being signed-overflow undefined behaviour.  Division and modulo wrap
// their one overflowing case, INT64_MIN / -1, the same way: the quotient
// is INT64_MIN (as wrap_mul(INT64_MIN, -1)) and the remainder 0.  Callers
// check for a zero divisor first.
#pragma once

#include <cstdint>

namespace uc::support {

inline std::int64_t wrap_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}

inline std::int64_t wrap_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}

inline std::int64_t wrap_mul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                   static_cast<std::uint64_t>(b));
}

inline std::int64_t wrap_neg(std::int64_t a) { return wrap_sub(0, a); }

inline std::int64_t wrap_div(std::int64_t a, std::int64_t b) {
  return b == -1 ? wrap_neg(a) : a / b;
}

inline std::int64_t wrap_mod(std::int64_t a, std::int64_t b) {
  return b == -1 ? 0 : a % b;
}

}  // namespace uc::support
