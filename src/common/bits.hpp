// Bit manipulation of computational-basis indices.
//
// A basis state of an n-qubit register is an index i in [0, 2^n); qubit k
// is bit k of i. Gate kernels and the classical-function permutation
// kernel are built from these primitives.
#pragma once

#include <bit>
#include <cassert>
#include <span>

#include "common/types.hpp"

namespace qc::bits {

/// The single-bit mask 2^k, computed at index_t width. This is the
/// sanctioned spelling for "one shifted by a runtime amount": a raw
/// `1 << k` shifts at int width, which is undefined behaviour the moment
/// k reaches 31 — and silently wrong long before an amplitude index
/// needs it. qc-analyze's raw-shift rule rejects `1 <<` by a variable
/// count.
constexpr index_t bit(qubit_t k) noexcept {
  assert(k < 64);
  return index_t{1} << k;
}

/// Mask with the low `k` bits set, for k in [0, 64] (k given as int
/// because rank/node counts are ints throughout the cluster layer).
constexpr index_t mask(int k) noexcept {
  assert(k >= 0 && k <= 64);
  return k >= 64 ? ~index_t{0} : (index_t{1} << k) - 1;
}

/// Value of bit `k` of `i` (0 or 1).
constexpr index_t get(index_t i, qubit_t k) noexcept { return (i >> k) & index_t{1}; }

/// `i` with bit `k` set.
constexpr index_t set(index_t i, qubit_t k) noexcept { return i | (index_t{1} << k); }

/// `i` with bit `k` cleared.
constexpr index_t clear(index_t i, qubit_t k) noexcept { return i & ~(index_t{1} << k); }

/// `i` with bit `k` flipped.
constexpr index_t flip(index_t i, qubit_t k) noexcept { return i ^ (index_t{1} << k); }

/// True if bit `k` of `i` is 1.
constexpr bool test(index_t i, qubit_t k) noexcept { return get(i, k) != 0; }

/// Mask with the low `k` bits set.
constexpr index_t low_mask(qubit_t k) noexcept {
  return k >= 64 ? ~index_t{0} : (index_t{1} << k) - 1;
}

/// Inserts a 0 bit at position `k`, shifting bits >= k up by one.
/// Enumerating j in [0, 2^{n-1}) and calling insert_bit(j, k) visits every
/// index of an n-qubit space whose bit k is 0 — the canonical loop of a
/// single-qubit gate kernel.
constexpr index_t insert_bit(index_t i, qubit_t k) noexcept {
  const index_t lo = i & low_mask(k);
  const index_t hi = (i & ~low_mask(k)) << 1;
  return hi | lo;
}

/// Inserts two 0 bits at positions k1 < k2 (positions in the *result*).
constexpr index_t insert_two_bits(index_t i, qubit_t k1, qubit_t k2) noexcept {
  assert(k1 < k2);
  return insert_bit(insert_bit(i, k1), k2);
}

/// Removes bit `k` from `i`, shifting bits above k down by one.
constexpr index_t remove_bit(index_t i, qubit_t k) noexcept {
  const index_t lo = i & low_mask(k);
  const index_t hi = (i >> 1) & ~low_mask(k);
  return hi | lo;
}

/// Extracts the `width`-bit field starting at bit `offset`.
constexpr index_t field(index_t i, qubit_t offset, qubit_t width) noexcept {
  return (i >> offset) & low_mask(width);
}

/// Replaces the `width`-bit field at `offset` with `value` (must fit).
constexpr index_t with_field(index_t i, qubit_t offset, qubit_t width, index_t value) noexcept {
  assert((value & ~low_mask(width)) == 0);
  return (i & ~(low_mask(width) << offset)) | (value << offset);
}

/// Reverses the low `n` bits of `i` (used by FFT bit-reversal reordering
/// and by the QFT's implicit output order).
constexpr index_t reverse(index_t i, qubit_t n) noexcept {
  index_t r = 0;
  for (qubit_t k = 0; k < n; ++k) r |= get(i, k) << (n - 1 - k);
  return r;
}

/// Number of set bits.
constexpr int popcount(index_t i) noexcept { return std::popcount(i); }

/// Parity (0/1) of the number of set bits in `i & mask` — the sign bit of
/// a Pauli-Z string expectation.
constexpr int parity(index_t i, index_t mask) noexcept { return std::popcount(i & mask) & 1; }

/// floor(log2(i)) for i > 0.
constexpr qubit_t log2_floor(index_t i) noexcept {
  return static_cast<qubit_t>(63 - std::countl_zero(i));
}

/// True if `i` is a power of two.
constexpr bool is_pow2(index_t i) noexcept { return i != 0 && (i & (i - 1)) == 0; }

/// True if all qubits in `qs` are distinct and below `n`.
inline bool all_distinct_below(std::span<const qubit_t> qs, qubit_t n) {
  index_t seen = 0;
  for (qubit_t q : qs) {
    if (q >= n) return false;
    if (test(seen, q)) return false;
    seen = set(seen, q);
  }
  return true;
}

}  // namespace qc::bits
