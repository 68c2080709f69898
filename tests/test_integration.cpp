// End-to-end integration tests: emulated Shor order finding, Grover
// search with an emulated oracle, distributed emulated QFT against the
// serial circuit, and mixed emulation/simulation pipelines.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <numeric>

#include "circuit/builders.hpp"
#include "emu/emulator.hpp"
#include "emu/observables.hpp"
#include "fft/dist_fft.hpp"
#include "revcirc/arith.hpp"
#include "sim/dist_sv.hpp"
#include "sim/simulator.hpp"

namespace qc {
namespace {

using emu::Emulator;
using emu::RegRef;
using sim::StateVector;

/// Continued-fraction expansion of x/2^bits; returns the denominator of
/// the best convergent with denominator <= max_den (Shor's classical
/// post-processing).
index_t best_denominator(index_t x, unsigned bits, index_t max_den) {
  double value = static_cast<double>(x) / std::ldexp(1.0, static_cast<int>(bits));
  // Convergent recurrence h_i = a_i h_{i-1} + h_{i-2}: (p1, q1) is the
  // current convergent h_0/k_0 = 0/1, (p0, q0) the previous (1, 0).
  index_t p0 = 1, q0 = 0, p1 = 0, q1 = 1;
  for (int iter = 0; iter < 40 && value > 1e-12; ++iter) {
    const double inv = 1.0 / value;
    const index_t a = static_cast<index_t>(inv);
    const index_t p2 = a * p1 + p0, q2 = a * q1 + q0;
    if (q2 > max_den) break;
    p0 = p1;
    q0 = q1;
    p1 = p2;
    q1 = q2;
    value = inv - static_cast<double>(a);
  }
  return q1 == 0 ? 1 : q1;
}

index_t pow_mod(index_t base, index_t e, index_t mod) {
  index_t r = 1 % mod;
  base %= mod;
  while (e > 0) {
    if (e & 1) r = r * base % mod;
    base = base * base % mod;
    e >>= 1;
  }
  return r;
}

TEST(Integration, ShorOrderFindingEmulated) {
  // Order finding for a = 7 mod 15 (order 4), the quantum core of
  // factoring 15. Modular exponentiation is emulated (§3.1), the inverse
  // QFT is emulated as an FFT (§3.2), measurement statistics come from
  // the exact distribution (§3.4).
  const index_t N = 15, a = 7;
  const unsigned t_bits = 8;  // exponent register
  const qubit_t work = 4;     // log2(16) for the modular register
  const qubit_t total = t_bits + work;

  StateVector sv(total);
  Emulator emu(sv);
  // Uniform superposition over exponents; work register |1>.
  sv.set_basis(index_t{1} << t_bits);
  {
    circuit::Circuit h(total);
    for (qubit_t q = 0; q < t_bits; ++q) h.h(q);
    sim::apply_circuit_hpc(sv.amplitudes(), h);
  }
  // |e>|1> -> |e>|a^e mod N> via controlled modular multiplications:
  // for each exponent bit j, multiply by a^(2^j) mod N when e_j = 1.
  // Emulated as a single permutation.
  emu.apply_permutation([&](index_t i) {
    const index_t e = bits::field(i, 0, t_bits);
    const index_t y = bits::field(i, t_bits, work);
    if (y >= N) return i;  // outside modular domain
    const index_t y2 = y * pow_mod(a, e, N) % N;
    return bits::with_field(i, t_bits, work, y2);
  });
  // Inverse QFT on the exponent register.
  emu.inverse_qft(RegRef{0, t_bits});

  // The exponent-register distribution peaks at multiples of 2^t / r.
  const auto dist = sv.register_distribution(0, t_bits);
  index_t order_votes = 0, trials = 0;
  for (index_t x = 0; x < dist.size(); ++x) {
    if (dist[x] < 1e-4) continue;
    ++trials;
    const index_t r = best_denominator(x, t_bits, N);
    if (r > 0 && pow_mod(a, r, N) == 1 && r == 4) ++order_votes;
  }
  EXPECT_GT(trials, 0u);
  // Peaks at x = 0, 64, 128, 192. x = 64 and 192 recover the exact
  // order r = 4; x = 128 gives the divisor r = 2 (0.5 = 2/4 is not in
  // lowest terms), x = 0 gives nothing — the textbook 50% yield of a
  // single order-finding run.
  EXPECT_EQ(order_votes, 2u);
  EXPECT_EQ(best_denominator(128, t_bits, N), 2u);
  EXPECT_NEAR(dist[64], 0.25, 1e-6);
  EXPECT_NEAR(dist[128], 0.25, 1e-6);
}

TEST(Integration, GroverSearchWithEmulatedOracle) {
  // Grover search for a marked element: the oracle (a classical
  // predicate) is emulated as a phase flip; the diffusion operator is
  // run as gates. After ~pi/4 sqrt(N) iterations the marked amplitude
  // dominates.
  const qubit_t n = 8;
  const index_t marked = 173;
  StateVector sv(n);
  circuit::Circuit hadamards(n);
  for (qubit_t q = 0; q < n; ++q) hadamards.h(q);
  sim::apply_circuit_hpc(sv.amplitudes(), hadamards);

  // Diffusion: H^n X^n (C^{n-1}Z) X^n H^n.
  circuit::Circuit diffusion(n);
  for (qubit_t q = 0; q < n; ++q) diffusion.h(q);
  for (qubit_t q = 0; q < n; ++q) diffusion.x(q);
  {
    circuit::Gate cz = circuit::make_gate(circuit::GateKind::Z, n - 1);
    for (qubit_t q = 0; q + 1 < n; ++q) cz.controls.push_back(q);
    diffusion.append(cz);
  }
  for (qubit_t q = 0; q < n; ++q) diffusion.x(q);
  for (qubit_t q = 0; q < n; ++q) diffusion.h(q);

  const int iterations = static_cast<int>(std::round(
      std::numbers::pi / 4.0 * std::sqrt(static_cast<double>(dim(n)))));
  for (int it = 0; it < iterations; ++it) {
    // Emulated oracle: flip the phase of the marked basis state.
    sv[marked] = -sv[marked];
    sim::apply_circuit_hpc(sv.amplitudes(), diffusion);
  }
  const auto dist = sv.register_distribution(0, n);
  // Theoretical success probability sin^2((2k+1) asin(2^{-n/2})) at the
  // rounded iteration count k = 13 is 0.9862.
  EXPECT_GT(dist[marked], 0.98);
  EXPECT_NEAR(dist[marked], 0.9862, 5e-3);
}

TEST(Integration, DistributedEmulatedQftMatchesSerialCircuit) {
  // Distributed QFT emulation = dist_fft (natural order, unitary norm,
  // positive sign); must equal the serial gate-level QFT circuit.
  const qubit_t n = 10;
  const int ranks = 4;
  StateVector serial(n);
  serial.randomize_deterministic(321);
  sim::apply_circuit_hpc(serial.amplitudes(), circuit::qft(n));

  double diff = -1;
  cluster::Cluster cluster(ranks, 1);
  cluster.run([&](cluster::Comm& comm) {
    sim::DistStateVector dsv(comm, n);
    dsv.randomize(321);
    std::uint64_t sent = 0;
    const auto result = fft::dist_fft<double>(comm, dsv.local(), dsv.scratch(), n,
                                              fft::Sign::Positive, fft::Norm::Unitary, sent);
    if (result.data() != dsv.local().data()) dsv.swap_scratch();
    const StateVector gathered = dsv.gather_all();
    if (comm.rank() == 0) diff = gathered.max_abs_diff(serial);
  });
  EXPECT_LT(diff, 1e-11);
}

TEST(Integration, DistributedQftCircuitBothPoliciesMatchEmulation) {
  const qubit_t n = 9;
  const int ranks = 8;
  StateVector serial(n);
  serial.randomize_deterministic(99);
  Emulator semu(serial);
  semu.qft();

  cluster::Cluster cluster(ranks, 1);
  cluster.run([&](cluster::Comm& comm) {
    sim::DistStateVector a(comm, n);
    a.randomize(99);
    a.run(circuit::qft(n), sim::CommPolicy::Specialized);
    sim::DistStateVector b(comm, n);
    b.randomize(99);
    b.run(circuit::qft(n), sim::CommPolicy::Exchange);
    const StateVector ga = a.gather_all();
    const StateVector gb = b.gather_all();
    EXPECT_LT(ga.max_abs_diff(serial), 1e-11);
    EXPECT_LT(gb.max_abs_diff(serial), 1e-11);
    // And the specialized policy must have communicated strictly less.
    EXPECT_LT(a.bytes_communicated(), b.bytes_communicated());
  });
}

TEST(Integration, EmulatedArithmeticPipelineMatchesCircuits) {
  // Chain: add then multiply, emulator vs reversible circuits, on a
  // random superposition. Exercises scratch reuse across shortcut calls.
  const qubit_t m = 3;
  const qubit_t total = 3 * m + 1;
  StateVector circuit_sv(total);
  Rng rng(12);
  {
    StateVector data(3 * m);
    data.randomize(rng);
    std::copy(data.amplitudes().begin(), data.amplitudes().end(),
              circuit_sv.amplitudes().begin());
  }
  StateVector emu_sv(total);
  std::copy(circuit_sv.amplitudes().begin(), circuit_sv.amplitudes().end(),
            emu_sv.amplitudes().begin());

  circuit::Circuit chain(total);
  revcirc::cuccaro_add(chain, revcirc::make_reg(0, m), revcirc::make_reg(m, m), 3 * m);
  revcirc::multiply_accumulate(chain, revcirc::make_reg(0, m), revcirc::make_reg(m, m),
                               revcirc::make_reg(2 * m, m), 3 * m);
  sim::apply_circuit_hpc(circuit_sv.amplitudes(), chain);

  Emulator emu(emu_sv);
  emu.add({0, m}, {m, m});
  emu.multiply({0, m}, {m, m}, {2 * m, m});
  EXPECT_LT(emu_sv.max_abs_diff(circuit_sv), 1e-12);
}

TEST(Integration, QftPeriodicityAfterEmulatedFunction) {
  // f(x) = x mod 4 written to an output register creates 4-periodicity
  // in x once the output is measured; the QFT then shows peaks spaced
  // N/4 apart. Exercises apply_function + sub-register QFT + collapse.
  const qubit_t in_w = 6, out_w = 2;
  StateVector sv(in_w + out_w);
  circuit::Circuit h(in_w + out_w);
  for (qubit_t q = 0; q < in_w; ++q) h.h(q);
  sim::apply_circuit_hpc(sv.amplitudes(), h);
  Emulator emu(sv);
  emu.apply_function({0, in_w}, {in_w, out_w}, [](index_t x) { return x % 4; });
  // Collapse the output register to 1.
  sv.collapse(in_w, 1);
  sv.collapse(in_w + 1, 0);
  emu.qft(RegRef{0, in_w});
  const auto dist = sv.register_distribution(0, in_w);
  for (index_t k = 0; k < dim(in_w); ++k) {
    if (k % 16 == 0) {
      EXPECT_NEAR(dist[k], 0.25, 1e-9) << k;
    } else {
      EXPECT_NEAR(dist[k], 0.0, 1e-9) << k;
    }
  }
}

TEST(Integration, MeasurementShortcutsAgreeWithSimulatedSampling) {
  // §3.4: the exact register distribution equals the empirical histogram
  // of many samples (up to statistical error).
  const qubit_t n = 8;
  StateVector sv(n);
  sim::apply_circuit_hpc(sv.amplitudes(), circuit::tfim_trotter_step(n, 0.37));
  const auto exact = sv.register_distribution(0, 3);
  Rng rng(13);
  const auto counts = emu::sample_register_counts(sv, 0, 3, 60000, rng);
  for (index_t v = 0; v < 8; ++v) {
    const double freq =
        counts.contains(v) ? static_cast<double>(counts.at(v)) / 60000.0 : 0.0;
    EXPECT_NEAR(freq, exact[v], 0.02) << "v=" << v;
  }
}

}  // namespace
}  // namespace qc
