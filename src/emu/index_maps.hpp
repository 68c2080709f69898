// The basis-index maps of emulated arithmetic (§3.1), one per op.
//
// Every emulated arithmetic op is a map of basis indices: the amplitude
// at index i moves to map(i). Each function below validates its
// operands once — throwing std::invalid_argument before any amplitude
// moves — and returns that map, for every executor alike: Emulator
// permutes a local state with it, DistEmulator routes a distributed
// state with one all-to-all, and the dist backend first composes it
// with its live logical->physical qubit permutation. The maps are pure,
// so executors may call them concurrently.
#pragma once

#include <functional>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "emu/emulator.hpp"

namespace qc::emu {

/// b += a (mod 2^w); a and b of equal width.
[[nodiscard]] inline auto add_map(RegRef a, RegRef b, qubit_t n) {
  if (a.width != b.width) throw std::invalid_argument("add: widths must match");
  check_regs({a, b}, n);
  const index_t mask = bits::low_mask(b.width);
  return [=](index_t i) {
    return reg_replace(i, b, (reg_value(i, b) + reg_value(i, a)) & mask);
  };
}

/// r += k (mod 2^w).
[[nodiscard]] inline auto add_constant_map(RegRef r, index_t k, qubit_t n) {
  check_regs({r}, n);
  const index_t mask = bits::low_mask(r.width);
  return [=](index_t i) { return reg_replace(i, r, (reg_value(i, r) + k) & mask); };
}

/// c += a*b (mod 2^w); all three of equal width. Bijective for every c.
[[nodiscard]] inline auto multiply_map(RegRef a, RegRef b, RegRef c, qubit_t n) {
  if (a.width != b.width || a.width != c.width)
    throw std::invalid_argument("multiply: widths must match");
  check_regs({a, b, c}, n);
  const index_t mask = bits::low_mask(c.width);
  return [=](index_t i) {
    return reg_replace(i, c, (reg_value(i, c) + reg_value(i, a) * reg_value(i, b)) & mask);
  };
}

/// (a, b, c) -> (a mod b, b, c + a div b): a partial map, injective only
/// where c = 0. For b = 0 it matches the restoring divider, whose every
/// trial subtraction "succeeds": quotient 2^w - 1, remainder a.
[[nodiscard]] inline auto divide_map(RegRef a, RegRef b, RegRef c, qubit_t n) {
  if (a.width != b.width || a.width != c.width)
    throw std::invalid_argument("divide: widths must match");
  check_regs({a, b, c}, n);
  const index_t mask = bits::low_mask(c.width);
  return [=](index_t i) {
    const index_t va = reg_value(i, a);
    const index_t vb = reg_value(i, b);
    const index_t q = vb == 0 ? mask : va / vb;
    const index_t r = vb == 0 ? va : va % vb;
    return reg_replace(reg_replace(i, a, r), c, (reg_value(i, c) + q) & mask);
  };
}

/// out += f(in) (mod 2^out.width): bijective for any classical f.
[[nodiscard]] inline auto function_map(RegRef in, RegRef out,
                                       std::function<index_t(index_t)> f, qubit_t n) {
  check_regs({in, out}, n);
  const index_t mask = bits::low_mask(out.width);
  return [=, f = std::move(f)](index_t i) {
    const index_t v = f(reg_value(i, in)) & mask;
    return reg_replace(i, out, (reg_value(i, out) + v) & mask);
  };
}

/// x -> k*x mod modulus for x < modulus, the identity above; requires
/// 0 < modulus <= 2^x.width and gcd(k, modulus) = 1.
[[nodiscard]] inline auto multiply_mod_map(RegRef x, index_t k, index_t modulus, qubit_t n) {
  check_regs({x}, n);
  if (modulus == 0 || modulus > dim(x.width))
    throw std::invalid_argument("multiply_mod: modulus out of range");
  if (std::gcd(k % modulus, modulus) != 1)
    throw std::invalid_argument("multiply_mod: k not invertible mod modulus");
  return [=](index_t i) {
    const index_t v = reg_value(i, x);
    return v >= modulus ? i : reg_replace(i, x, (v * k) % modulus);
  };
}

}  // namespace qc::emu
