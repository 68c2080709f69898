// Tests for the emulator core: every classical-function shortcut must
// equal the corresponding reversible-circuit simulation on arbitrary
// superpositions, and the QFT-as-FFT must equal the gate-level QFT
// circuit — the paper's central "emulation returns the same result"
// contract (§3).
#include <gtest/gtest.h>

#include <omp.h>

#include <cmath>

#include "circuit/builders.hpp"
#include "emu/emulator.hpp"
#include "revcirc/arith.hpp"
#include "sim/simulator.hpp"

namespace qc::emu {
namespace {

using circuit::Circuit;
using revcirc::DivLayout;
using revcirc::MulLayout;
using sim::StateVector;

StateVector random_state(qubit_t n, std::uint64_t seed) {
  StateVector sv(n);
  Rng rng(seed);
  sv.randomize(rng);
  return sv;
}

void copy_state(const StateVector& from, StateVector& to) {
  std::copy(from.amplitudes().begin(), from.amplitudes().end(), to.amplitudes().begin());
}

TEST(Emulator, PermutationMovesAmplitudes) {
  StateVector sv(3);
  sv.set_basis(2);
  Emulator emu(sv);
  // Cyclic shift i -> i+1 mod 8.
  emu.apply_permutation([](index_t i) { return (i + 1) & 7; });
  EXPECT_EQ(sv[3], complex_t{1.0});
  EXPECT_EQ(sv[2], complex_t{});
}

TEST(Emulator, PermutationPreservesNorm) {
  StateVector sv = random_state(10, 1);
  Emulator emu(sv);
  emu.apply_permutation([](index_t i) { return i ^ 0x155; });
  EXPECT_NEAR(sv.norm_sq(), 1.0, 1e-12);
}

TEST(Emulator, PartialMapDetectsCollision) {
  StateVector sv(2);
  sv[0] = sv[1] = 1.0 / std::sqrt(2.0);
  Emulator emu(sv);
  EXPECT_THROW(emu.apply_partial_map([](index_t) { return index_t{3}; }), std::logic_error);
}

TEST(Emulator, PartialMapCollisionAcrossThreadsAlwaysThrows) {
  // Sources 0 and 2^13 open the ranges of threads 0 and 2 (static
  // schedule, 4 threads, 2^14 amplitudes) and map to one index, so a
  // non-atomic check-then-write would let both find the slot empty.
  const qubit_t n = 14;
  const index_t clash = index_t{1} << 13;
  StateVector sv = random_state(n, 21);
  Emulator emu(sv);
  const int threads = omp_get_max_threads();
  omp_set_num_threads(4);
  int thrown = 0;
  for (int rep = 0; rep < 200; ++rep) {
    try {
      emu.apply_partial_map([&](index_t i) { return i == clash ? index_t{0} : i; });
    } catch (const std::logic_error&) {
      ++thrown;
    }
  }
  omp_set_num_threads(threads);
  EXPECT_EQ(thrown, 200);
}

TEST(Emulator, RegisterChecksThrow) {
  StateVector sv(6);
  Emulator emu(sv);
  EXPECT_THROW(emu.multiply({0, 2}, {2, 2}, {3, 2}), std::invalid_argument);  // overlap
  EXPECT_THROW(emu.multiply({0, 2}, {2, 2}, {4, 3}), std::invalid_argument);  // width
  EXPECT_THROW(emu.add({0, 4}, {4, 4}), std::invalid_argument);               // range
  EXPECT_THROW(emu.divide({0, 2}, {1, 2}, {4, 2}), std::invalid_argument);    // overlap
  EXPECT_THROW(emu.divide({0, 2}, {2, 2}, {5, 2}), std::invalid_argument);    // range
  EXPECT_THROW(emu.apply_function({0, 3}, {2, 3}, [](index_t v) { return v; }),
               std::invalid_argument);  // overlap
  EXPECT_THROW(emu.qft({3, 4}), std::invalid_argument);  // offset+width > n
}

TEST(Emulator, CheckRegsValidatesBoundsAndOverlap) {
  // The shared helper behind every register op (and the engine::Program
  // builders): nonempty, in bounds, pairwise disjoint.
  check_regs({{0, 3}, {3, 3}}, 6);                                     // ok
  check_regs({{5, 1}}, 6);                                             // ok
  EXPECT_THROW(check_regs({{0, 0}}, 6), std::invalid_argument);        // empty
  EXPECT_THROW(check_regs({{4, 3}}, 6), std::invalid_argument);        // out of range
  EXPECT_THROW(check_regs({{6, 1}}, 6), std::invalid_argument);        // off the end
  EXPECT_THROW(check_regs({{0, 3}, {2, 3}}, 6), std::invalid_argument);  // overlap
  EXPECT_THROW(check_regs({{0, 2}, {2, 2}, {1, 1}}, 6), std::invalid_argument);
  // offset + width wraps around qubit_t: still out of range.
  EXPECT_THROW(check_regs({{0xFFFFFFFF, 2}}, 8), std::invalid_argument);
  EXPECT_THROW(check_regs({{4, 0xFFFFFFFE}}, 8), std::invalid_argument);
  EXPECT_THROW(check_regs({{0xFFFFFFF0, 0x11}}, 8), std::invalid_argument);
}

class MulEquivalence : public ::testing::TestWithParam<qubit_t> {};

TEST_P(MulEquivalence, EmulatedMultiplyEqualsSimulatedCircuit) {
  // The paper's Fig. 1 correctness contract: the emulator's direct
  // permutation equals the gate-level Toffoli-network simulation,
  // including on superpositions. The circuit uses one extra carry
  // ancilla; registers a, b, c live at the same offsets in both.
  const qubit_t m = GetParam();
  const MulLayout layout = MulLayout::make(m);
  const qubit_t total = layout.total_qubits();

  // Random state on the 3m data qubits, ancilla |0>.
  StateVector data = random_state(3 * m, 10 + m);
  StateVector circuit_sv(total);
  std::copy(data.amplitudes().begin(), data.amplitudes().end(),
            circuit_sv.amplitudes().begin());

  sim::apply_circuit_hpc(circuit_sv.amplitudes(), revcirc::multiplier_circuit(m));

  StateVector emu_sv(total);
  std::copy(data.amplitudes().begin(), data.amplitudes().end(), emu_sv.amplitudes().begin());
  Emulator emu(emu_sv);
  emu.multiply({0, m}, {m, m}, {2 * m, m});

  EXPECT_LT(emu_sv.max_abs_diff(circuit_sv), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Widths, MulEquivalence, ::testing::Values(1, 2, 3, 4));

class DivEquivalence : public ::testing::TestWithParam<qubit_t> {};

TEST_P(DivEquivalence, EmulatedDivideEqualsSimulatedCircuit) {
  // Fig. 2 contract. The divider circuit acts on 4m+4 qubits with its
  // own layout (y window, padded divisor, quotient, flags); the
  // emulator's divide acts on the (a, b, q) registers at the matching
  // offsets. Superpose a and b, leave everything else |0>.
  const qubit_t m = GetParam();
  const DivLayout l = DivLayout::make(m);
  const qubit_t total = l.total_qubits();

  // Superposition over a (qubits [0,m)) and b (qubits [2m+1, 3m+1)).
  Circuit prep(total);
  for (qubit_t q = 0; q < m; ++q) prep.h(q);
  for (qubit_t q = 0; q < m; ++q) prep.h(2 * m + 1 + q);
  StateVector circuit_sv(total);
  sim::apply_circuit_hpc(circuit_sv.amplitudes(), prep);
  StateVector emu_sv(total);
  copy_state(circuit_sv, emu_sv);

  sim::apply_circuit_hpc(circuit_sv.amplitudes(), revcirc::divider_circuit(m));

  Emulator emu(emu_sv);
  emu.divide({0, m}, {2 * m + 1, m}, {3 * m + 1, m});

  EXPECT_LT(emu_sv.max_abs_diff(circuit_sv), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Widths, DivEquivalence, ::testing::Values(1, 2, 3));

TEST(Emulator, MultiplyAccumulatesIntoNonZeroC) {
  // (a, b, c) -> (a, b, c + ab) on a basis state with c != 0.
  const qubit_t m = 4;
  StateVector sv(3 * m);
  const index_t a = 7, b = 9, c0 = 3;
  sv.set_basis(a | (b << m) | (c0 << (2 * m)));
  Emulator emu(sv);
  emu.multiply({0, m}, {m, m}, {2 * m, m});
  const index_t expect = a | (b << m) | (((c0 + a * b) & 15) << (2 * m));
  EXPECT_NEAR(std::abs(sv[expect]), 1.0, 1e-13);
}

TEST(Emulator, DivideBasisStates) {
  const qubit_t m = 5;
  StateVector sv(3 * m);
  Emulator emu(sv);
  const index_t a = 27, b = 4;
  sv.set_basis(a | (b << m));
  emu.divide({0, m}, {m, m}, {2 * m, m});
  const index_t expect = (27 % 4) | (index_t{4} << m) | ((27 / 4) << (2 * m));
  EXPECT_NEAR(std::abs(sv[expect]), 1.0, 1e-13);
}

TEST(Emulator, DivideByZeroConvention) {
  const qubit_t m = 3;
  StateVector sv(3 * m);
  Emulator emu(sv);
  sv.set_basis(5);  // a=5, b=0, c=0
  emu.divide({0, m}, {m, m}, {2 * m, m});
  const index_t expect = 5 | (index_t{7} << (2 * m));  // r=a, q=2^m-1
  EXPECT_NEAR(std::abs(sv[expect]), 1.0, 1e-13);
}

TEST(Emulator, AddMatchesAdderCircuit) {
  const qubit_t w = 4;
  const qubit_t total = 2 * w + 1;  // + carry ancilla
  StateVector data = random_state(2 * w, 30);
  StateVector circuit_sv(total), emu_sv(total);
  std::copy(data.amplitudes().begin(), data.amplitudes().end(),
            circuit_sv.amplitudes().begin());
  std::copy(data.amplitudes().begin(), data.amplitudes().end(), emu_sv.amplitudes().begin());

  Circuit add_circuit(total);
  revcirc::cuccaro_add(add_circuit, revcirc::make_reg(0, w), revcirc::make_reg(w, w), 2 * w);
  sim::apply_circuit_hpc(circuit_sv.amplitudes(), add_circuit);

  Emulator emu(emu_sv);
  emu.add({0, w}, {w, w});
  EXPECT_LT(emu_sv.max_abs_diff(circuit_sv), 1e-12);
}

TEST(Emulator, AddConstantWraps) {
  StateVector sv(4);
  sv.set_basis(0b1110);
  Emulator emu(sv);
  emu.add_constant({0, 4}, 5);
  EXPECT_NEAR(std::abs(sv[(14 + 5) & 15]), 1.0, 1e-14);
}

TEST(Emulator, ApplyFunctionIsBijectiveForAnyF) {
  // out += f(in) is reversible even when f is many-to-one.
  StateVector sv = random_state(8, 44);
  const double before = sv.norm_sq();
  Emulator emu(sv);
  emu.apply_function({0, 4}, {4, 4}, [](index_t v) { return (v * v + 3) % 7; });
  EXPECT_NEAR(sv.norm_sq(), before, 1e-12);
  // And invertible: subtracting the same values restores the state.
  StateVector ref = random_state(8, 44);
  emu.apply_function({0, 4}, {4, 4}, [](index_t v) {
    return (16 - (v * v + 3) % 7) & 15;  // additive inverse mod 16
  });
  EXPECT_LT(sv.max_abs_diff(ref), 1e-12);
}

TEST(Emulator, MultiplyModPermutesModularDomain) {
  const qubit_t w = 4;
  StateVector sv(w);
  Emulator emu(sv);
  sv.set_basis(7);
  emu.multiply_mod({0, w}, 7, 15);  // 7*7 mod 15 = 4 (gcd(7,15)=1)
  EXPECT_NEAR(std::abs(sv[4]), 1.0, 1e-14);
  sv.set_basis(15);  // outside domain: identity
  emu.multiply_mod({0, w}, 7, 15);
  EXPECT_NEAR(std::abs(sv[15]), 1.0, 1e-14);
  EXPECT_THROW(emu.multiply_mod({0, w}, 5, 15), std::invalid_argument);  // gcd != 1
}

TEST(Emulator, PhaseOracleMatchesControlledZNetwork) {
  // Oracle marking |x0>: equals X-conjugated multi-controlled Z.
  const qubit_t n = 5;
  const index_t x0 = 19;
  StateVector circuit_sv = random_state(n, 200);
  StateVector emu_sv(n);
  copy_state(circuit_sv, emu_sv);

  Circuit c(n);
  for (qubit_t q = 0; q < n; ++q)
    if (!bits::test(x0, q)) c.x(q);
  {
    circuit::Gate cz = circuit::make_gate(circuit::GateKind::Z, n - 1);
    for (qubit_t q = 0; q + 1 < n; ++q) cz.controls.push_back(q);
    c.append(cz);
  }
  for (qubit_t q = 0; q < n; ++q)
    if (!bits::test(x0, q)) c.x(q);
  sim::apply_circuit_hpc(circuit_sv.amplitudes(), c);

  Emulator(emu_sv).apply_phase_oracle([x0](index_t i) { return i == x0; });
  EXPECT_LT(emu_sv.max_abs_diff(circuit_sv), 1e-13);
}

TEST(Emulator, PhaseFunctionMatchesDiagonalGates) {
  // phase(i) = theta * bit_2(i) is exactly R(theta) on qubit 2.
  const qubit_t n = 4;
  const double theta = 0.83;
  StateVector circuit_sv = random_state(n, 201);
  StateVector emu_sv(n);
  copy_state(circuit_sv, emu_sv);
  Circuit c(n);
  c.phase(2, theta);
  sim::apply_circuit_hpc(circuit_sv.amplitudes(), c);
  Emulator(emu_sv).apply_phase_function(
      [theta](index_t i) { return bits::test(i, 2) ? theta : 0.0; });
  EXPECT_LT(emu_sv.max_abs_diff(circuit_sv), 1e-13);
}

TEST(Emulator, PhaseFunctionPreservesNorm) {
  StateVector sv = random_state(8, 202);
  Emulator(sv).apply_phase_function(
      [](index_t i) { return 0.01 * static_cast<double>(i % 97); });
  EXPECT_NEAR(sv.norm_sq(), 1.0, 1e-12);
}

class QftEquivalence : public ::testing::TestWithParam<qubit_t> {};

TEST_P(QftEquivalence, EmulatedQftEqualsCircuit) {
  // §3.2's contract: FFT on the amplitudes == gate-level QFT circuit.
  const qubit_t n = GetParam();
  StateVector circuit_sv = random_state(n, 50 + n);
  StateVector emu_sv(n);
  copy_state(circuit_sv, emu_sv);

  sim::apply_circuit_hpc(circuit_sv.amplitudes(), circuit::qft(n));
  Emulator(emu_sv).qft();
  EXPECT_LT(emu_sv.max_abs_diff(circuit_sv), 1e-12);
}

TEST_P(QftEquivalence, EmulatedInverseQftEqualsCircuit) {
  const qubit_t n = GetParam();
  StateVector circuit_sv = random_state(n, 60 + n);
  StateVector emu_sv(n);
  copy_state(circuit_sv, emu_sv);
  sim::apply_circuit_hpc(circuit_sv.amplitudes(), circuit::inverse_qft(n));
  Emulator(emu_sv).inverse_qft();
  EXPECT_LT(emu_sv.max_abs_diff(circuit_sv), 1e-12);
}

TEST_P(QftEquivalence, QftRoundTripIsIdentity) {
  const qubit_t n = GetParam();
  StateVector sv = random_state(n, 70 + n);
  StateVector ref(n);
  copy_state(sv, ref);
  Emulator emu(sv);
  emu.qft();
  emu.inverse_qft();
  EXPECT_LT(sv.max_abs_diff(ref), 1e-12);
}

// Above 12 qubits the FFT takes its blocked four-step path: 14, 17 and
// 18 cover it at odd and even sizes.
INSTANTIATE_TEST_SUITE_P(Qubits, QftEquivalence, ::testing::Values(1, 2, 3, 5, 8, 11, 14, 17, 18));

TEST(Emulator, SubRegisterQftMatchesMappedCircuit) {
  // QFT on qubits [2, 6) of 8: compare against the circuit mapped onto
  // those qubits.
  const qubit_t n = 8;
  const RegRef reg{2, 4};
  StateVector circuit_sv = random_state(n, 90);
  StateVector emu_sv(n);
  copy_state(circuit_sv, emu_sv);

  Circuit mapped(n);
  std::vector<qubit_t> mapping(reg.width);
  for (qubit_t i = 0; i < reg.width; ++i) mapping[i] = reg.offset + i;
  mapped.compose_mapped(circuit::qft(reg.width), mapping);
  sim::apply_circuit_hpc(circuit_sv.amplitudes(), mapped);

  Emulator(emu_sv).qft(reg);
  EXPECT_LT(emu_sv.max_abs_diff(circuit_sv), 1e-11);
}

TEST(Emulator, SubRegisterQftAtBothEnds) {
  for (const RegRef reg : {RegRef{0, 3}, RegRef{5, 3}}) {
    const qubit_t n = 8;
    StateVector circuit_sv = random_state(n, 91 + reg.offset);
    StateVector emu_sv(n);
    copy_state(circuit_sv, emu_sv);
    Circuit mapped(n);
    std::vector<qubit_t> mapping(reg.width);
    for (qubit_t i = 0; i < reg.width; ++i) mapping[i] = reg.offset + i;
    mapped.compose_mapped(circuit::qft(reg.width), mapping);
    sim::apply_circuit_hpc(circuit_sv.amplitudes(), mapped);
    Emulator emu(emu_sv);
    emu.qft(reg);
    EXPECT_LT(emu_sv.max_abs_diff(circuit_sv), 1e-11) << "offset=" << reg.offset;
  }
}

TEST(Emulator, QftOnPeriodicStateDetectsPeriod) {
  // A state supported on multiples of 4 in a 2^6 space transforms to one
  // supported on multiples of 16 (= N / period) — the period-finding
  // behaviour Shor relies on.
  const qubit_t n = 6;
  StateVector sv(n);
  auto a = sv.amplitudes();
  std::fill(a.begin(), a.end(), complex_t{});
  for (index_t i = 0; i < 64; i += 4) a[i] = 0.25;
  Emulator(sv).qft();
  for (index_t k = 0; k < 64; ++k) {
    if (k % 16 == 0) {
      EXPECT_NEAR(std::abs(sv[k]), 0.5, 1e-12) << k;
    } else {
      EXPECT_NEAR(std::abs(sv[k]), 0.0, 1e-12) << k;
    }
  }
}

}  // namespace
}  // namespace qc::emu
