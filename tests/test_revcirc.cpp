// Tests for the reversible arithmetic circuits: exhaustive BitVm
// verification of the adder, controlled adder, multiplier and divider,
// ancilla cleanliness, and state-vector superposition checks.
#include <gtest/gtest.h>

#include "circuit/builders.hpp"
#include "revcirc/arith.hpp"
#include "revcirc/bit_vm.hpp"
#include "sim/simulator.hpp"

namespace qc::revcirc {
namespace {

using circuit::Circuit;

index_t pack(std::initializer_list<std::pair<index_t, std::pair<qubit_t, qubit_t>>> fields) {
  // Each entry: value, (offset, width).
  index_t s = 0;
  for (const auto& [v, ow] : fields) s = bits::with_field(s, ow.first, ow.second, v);
  return s;
}

class AdderWidths : public ::testing::TestWithParam<qubit_t> {};

TEST_P(AdderWidths, ExhaustiveAddition) {
  const qubit_t w = GetParam();
  // Layout: a = [0,w), b = [w,2w), carry anc = 2w, carry out = 2w+1.
  Circuit c(2 * w + 2);
  cuccaro_add(c, make_reg(0, w), make_reg(w, w), 2 * w, 2 * w + 1);
  ASSERT_TRUE(BitVm::is_classical(c));
  const index_t lim = dim(w);
  for (index_t a = 0; a < lim; ++a) {
    for (index_t b = 0; b < lim; ++b) {
      const index_t in = pack({{a, {0, w}}, {b, {w, w}}});
      const index_t out = BitVm::run(c, in);
      EXPECT_EQ(bits::field(out, w, w), (a + b) & (lim - 1)) << "a=" << a << " b=" << b;
      EXPECT_EQ(bits::field(out, 0, w), a) << "input register must be restored";
      EXPECT_EQ(bits::get(out, 2 * w), 0u) << "carry ancilla must be clean";
      EXPECT_EQ(bits::get(out, 2 * w + 1), (a + b) >> w) << "carry out";
    }
  }
}

TEST_P(AdderWidths, ExhaustiveControlledAddition) {
  const qubit_t w = GetParam();
  // Layout: a, b, carry anc = 2w, control = 2w+1.
  Circuit c(2 * w + 2);
  cuccaro_add(c, make_reg(0, w), make_reg(w, w), 2 * w, std::nullopt,
              /*control=*/2 * w + 1);
  const index_t lim = dim(w);
  for (index_t ctl = 0; ctl < 2; ++ctl) {
    for (index_t a = 0; a < lim; ++a) {
      for (index_t b = 0; b < lim; ++b) {
        index_t in = pack({{a, {0, w}}, {b, {w, w}}});
        if (ctl) in = bits::set(in, 2 * w + 1);
        const index_t out = BitVm::run(c, in);
        const index_t expect_b = ctl ? (a + b) & (lim - 1) : b;
        EXPECT_EQ(bits::field(out, w, w), expect_b) << "ctl=" << ctl;
        EXPECT_EQ(bits::field(out, 0, w), a);
        EXPECT_EQ(bits::get(out, 2 * w), 0u);
        EXPECT_EQ(bits::get(out, 2 * w + 1), ctl) << "control must be untouched";
      }
    }
  }
}

TEST_P(AdderWidths, ExhaustiveSubtractionWithBorrow) {
  const qubit_t w = GetParam();
  Circuit c(2 * w + 2);
  cuccaro_sub(c, make_reg(0, w), make_reg(w, w), 2 * w, 2 * w + 1);
  const index_t lim = dim(w);
  for (index_t a = 0; a < lim; ++a) {
    for (index_t b = 0; b < lim; ++b) {
      const index_t in = pack({{a, {0, w}}, {b, {w, w}}});
      const index_t out = BitVm::run(c, in);
      EXPECT_EQ(bits::field(out, w, w), (b - a) & (lim - 1));
      EXPECT_EQ(bits::field(out, 0, w), a);
      EXPECT_EQ(bits::get(out, 2 * w + 1), b < a ? 1u : 0u) << "borrow flag";
      EXPECT_EQ(bits::get(out, 2 * w), 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, AdderWidths, ::testing::Values(1, 2, 3, 4, 5, 6));

class MultiplierWidths : public ::testing::TestWithParam<qubit_t> {};

TEST_P(MultiplierWidths, ExhaustiveOrRandomMultiplication) {
  const qubit_t m = GetParam();
  const Circuit c = multiplier_circuit(m);
  const MulLayout l = MulLayout::make(m);
  ASSERT_TRUE(BitVm::is_classical(c));
  const index_t lim = dim(m);
  Rng rng(m);
  const bool exhaustive = m <= 5;
  const index_t trials = exhaustive ? lim * lim : 4000;
  for (index_t t = 0; t < trials; ++t) {
    const index_t a = exhaustive ? t / lim : rng.uniform_u64(lim);
    const index_t b = exhaustive ? t % lim : rng.uniform_u64(lim);
    const index_t c0 = exhaustive ? 0 : rng.uniform_u64(lim);  // c need not start at 0
    const index_t in = pack({{a, {0, m}}, {b, {m, m}}, {c0, {2 * m, m}}});
    const index_t out = BitVm::run(c, in);
    EXPECT_EQ(bits::field(out, 2 * m, m), (c0 + a * b) & (lim - 1))
        << "a=" << a << " b=" << b << " c0=" << c0;
    EXPECT_EQ(bits::field(out, 0, m), a);
    EXPECT_EQ(bits::field(out, m, m), b);
    EXPECT_EQ(bits::get(out, l.carry), 0u) << "carry ancilla clean";
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, MultiplierWidths, ::testing::Values(1, 2, 3, 4, 5, 8, 12, 16));

class DividerWidths : public ::testing::TestWithParam<qubit_t> {};

TEST_P(DividerWidths, ExhaustiveOrRandomDivision) {
  const qubit_t m = GetParam();
  const Circuit c = divider_circuit(m);
  const DivLayout l = DivLayout::make(m);
  ASSERT_TRUE(BitVm::is_classical(c));
  const index_t lim = dim(m);
  Rng rng(m + 50);
  const bool exhaustive = m <= 5;
  const index_t trials = exhaustive ? lim * lim : 4000;
  for (index_t t = 0; t < trials; ++t) {
    const index_t a = exhaustive ? t / lim : rng.uniform_u64(lim);
    const index_t b = exhaustive ? t % lim : rng.uniform_u64(lim);
    const index_t in = pack({{a, {0, m}}, {b, {2 * m + 1, m}}});
    const index_t out = BitVm::run(c, in);
    const index_t expect_q = b == 0 ? lim - 1 : a / b;
    const index_t expect_r = b == 0 ? a : a % b;
    EXPECT_EQ(bits::field(out, 3 * m + 1, m), expect_q) << "a=" << a << " b=" << b;
    EXPECT_EQ(bits::field(out, 0, m), expect_r) << "a=" << a << " b=" << b;
    EXPECT_EQ(bits::field(out, m, m + 1), 0u) << "shift window restored";
    EXPECT_EQ(bits::field(out, 2 * m + 1, m), b) << "divisor intact";
    EXPECT_EQ(bits::get(out, l.b_pad), 0u);
    EXPECT_EQ(bits::get(out, l.borrow), 0u) << "borrow clean";
    EXPECT_EQ(bits::get(out, l.carry), 0u) << "carry clean";
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, DividerWidths, ::testing::Values(1, 2, 3, 4, 5, 7, 10));

TEST(Multiplier, GateCountGrowsQuadratically) {
  // Shift-and-add: sum of 6(m-i) MAJ/UMA gates, ~3m^2 total.
  const std::size_t g4 = multiplier_circuit(4).size();
  const std::size_t g8 = multiplier_circuit(8).size();
  EXPECT_GT(g8, 3u * g4);
  EXPECT_LT(g8, 5u * g4);
}

TEST(Divider, UsesOnlyClassicalGates) {
  const Circuit c = divider_circuit(3);
  EXPECT_TRUE(BitVm::is_classical(c));
  for (const auto& g : c.gates()) EXPECT_LE(g.controls.size(), 2u) << g.to_string();
}

TEST(BitVm, RejectsNonClassicalGate) {
  Circuit c(2);
  c.h(0);
  EXPECT_THROW(BitVm::run(c, 0), std::invalid_argument);
  EXPECT_FALSE(BitVm::is_classical(c));
}

TEST(BitVm, SwapAndControls) {
  Circuit c(3);
  c.swap(0, 2);
  EXPECT_EQ(BitVm::run(c, 0b001), 0b100u);
  EXPECT_EQ(BitVm::run(c, 0b101), 0b101u);
  Circuit t(3);
  t.toffoli(0, 1, 2);
  EXPECT_EQ(BitVm::run(t, 0b011), 0b111u);
  EXPECT_EQ(BitVm::run(t, 0b001), 0b001u);
}

TEST(BitVm, AgreesWithStateVectorOnRandomClassicalCircuits) {
  // The BitVm and the amplitude-level simulator must realize the same
  // permutation on basis states.
  Rng rng(77);
  const qubit_t n = 6;
  for (int trial = 0; trial < 5; ++trial) {
    const Circuit c = circuit::random_classical_circuit(n, 40, rng);
    for (int s = 0; s < 10; ++s) {
      const index_t input = rng.uniform_u64(dim(n));
      sim::StateVector sv(n);
      sv.set_basis(input);
      sim::apply_circuit_hpc(sv.amplitudes(), c);
      const index_t expected = BitVm::run(c, input);
      EXPECT_NEAR(std::abs(sv[expected]), 1.0, 1e-12);
    }
  }
}

TEST(Adder, SuperpositionInputsAddCorrectly) {
  // Run the adder on a uniform superposition of the `a` register and
  // verify the entangled output pairs (a, a+b0) appear with equal weight.
  const qubit_t w = 3;
  Circuit prep(2 * w + 2);
  for (qubit_t q = 0; q < w; ++q) prep.h(q);  // superpose a
  // b starts at 5.
  const index_t b0 = 5;
  for (qubit_t q = 0; q < w; ++q)
    if (bits::test(b0, q)) prep.x(w + q);
  cuccaro_add(prep, make_reg(0, w), make_reg(w, w), 2 * w, std::nullopt);
  sim::StateVector sv(2 * w + 2);
  sim::apply_circuit_hpc(sv.amplitudes(), prep);
  const double amp = 1.0 / std::sqrt(8.0);
  for (index_t a = 0; a < 8; ++a) {
    const index_t idx = a | (((a + b0) & 7) << w);
    EXPECT_NEAR(std::abs(sv[idx]), amp, 1e-12) << "a=" << a;
  }
}

}  // namespace
}  // namespace qc::revcirc
