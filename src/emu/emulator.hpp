// Quantum computer emulator — the paper's core contribution (§3).
//
// An Emulator wraps a StateVector and executes recognized high-level
// subroutines at the level of their mathematical description instead of
// gate by gate:
//
//  §3.1  classical functions: arithmetic on register values becomes one
//        permutation of the amplitude array — no Toffoli networks, no
//        ancilla qubits, no uncomputation;
//  §3.2  the quantum Fourier transform becomes a classical FFT over the
//        amplitudes (Eq. 4), including batched sub-register transforms;
//  §3.4  measurement statistics come from the full amplitude
//        distribution in one pass — no sampling loop.
//
// Phase estimation (§3.3) lives in qpe.hpp; expectation values in
// observables.hpp. Every shortcut returns bit-identical results to the
// corresponding gate-level simulation (enforced by the test suite).
#pragma once

#include <functional>
#include <initializer_list>
#include <memory>

#include "common/aligned.hpp"
#include "fft/fft.hpp"
#include "sim/kernels.hpp"
#include "sim/state_vector.hpp"

namespace qc::emu {

/// A contiguous qubit register [offset, offset + width).
struct RegRef {
  qubit_t offset = 0;
  qubit_t width = 0;
};

/// Validates that every register is nonempty, within an n-qubit state,
/// and pairwise disjoint; throws std::invalid_argument otherwise. Shared
/// by every Emulator register op and by engine::Program's builders —
/// out-of-range offset+width would silently corrupt amplitudes.
void check_regs(std::initializer_list<RegRef> regs, qubit_t n);

class Emulator {
 public:
  /// Wraps (does not own) the state vector.
  explicit Emulator(sim::StateVector& sv) : sv_(&sv) {}

  [[nodiscard]] sim::StateVector& state() noexcept { return *sv_; }
  [[nodiscard]] const sim::StateVector& state() const noexcept { return *sv_; }

  // --- §3.1: classical functions as amplitude permutations -------------

  /// Applies an arbitrary bijection f of basis indices: the amplitude at
  /// i moves to f(i). This is the "one global permutation of the state
  /// vector" the paper describes for emulated arithmetic.
  void apply_permutation(const std::function<index_t(index_t)>& f);

  /// Like apply_permutation but for maps that are only injective on the
  /// nonzero-amplitude support (e.g. division, which assumes its output
  /// register is |0>). Indices with amplitude 0 are dropped; a collision
  /// between two nonzero sources throws std::logic_error.
  void apply_partial_map(const std::function<index_t(index_t)>& f);

  /// c += a*b (mod 2^w): the paper's multiplication example. All three
  /// registers must have equal width and be disjoint.
  void multiply(RegRef a, RegRef b, RegRef c);

  /// (a, b, c=0) -> (a mod b, b, a div b): the paper's division example.
  /// Inputs with c != 0 must have zero amplitude. Convention for b = 0
  /// (matches the restoring-divider circuit): quotient 2^w - 1,
  /// remainder a.
  void divide(RegRef a, RegRef b, RegRef c);

  /// b += a (mod 2^w).
  void add(RegRef a, RegRef b);

  /// r += k (mod 2^w).
  void add_constant(RegRef r, index_t k);

  /// out += f(in) (mod 2^out.width) — bijective for *any* classical f,
  /// the general "evaluate the function per basis state" shortcut that
  /// covers trigonometric functions and other math (paper §3.1).
  void apply_function(RegRef in, RegRef out, const std::function<index_t(index_t)>& f);

  /// x -> k*x mod modulus for x < modulus (identity above); requires
  /// gcd(k, modulus) == 1. The building block of emulated Shor.
  void multiply_mod(RegRef x, index_t k, index_t modulus);

  /// Multiplies every amplitude by exp(i * phase(i)) — the diagonal
  /// counterpart of apply_permutation. A classical predicate or phase
  /// function becomes one in-place sweep instead of a reversible
  /// marking network with work qubits.
  void apply_phase_function(const std::function<double(index_t)>& phase);

  /// Grover-style phase oracle: flips the sign of every basis state for
  /// which `marked` returns true.
  void apply_phase_oracle(const std::function<bool(index_t)>& marked);

  // --- §3.2: QFT as FFT -------------------------------------------------

  /// Full-register QFT per the paper's Eq. (4):
  /// alpha_l <- 2^{-n/2} sum_k alpha_k exp(+2 pi i k l / 2^n).
  void qft();

  /// Inverse of qft().
  void inverse_qft();

  /// QFT on a sub-register: a batched FFT over the register dimension
  /// for every assignment of the remaining qubits.
  void qft(RegRef r);
  void inverse_qft(RegRef r);

 private:
  void ensure_scratch();
  void qft_impl(RegRef r, fft::Sign sign);

  sim::StateVector* sv_;
  uninit_aligned_vector<complex_t> scratch_;
  std::unique_ptr<fft::FftPlan> plan_;  // cached (width, sign)
};

/// Field extraction helpers shared with benches/tests.
[[nodiscard]] inline index_t reg_value(index_t i, RegRef r) {
  return bits::field(i, r.offset, r.width);
}
[[nodiscard]] inline index_t reg_replace(index_t i, RegRef r, index_t v) {
  return bits::with_field(i, r.offset, r.width, v);
}

}  // namespace qc::emu
