// Shor order finding both ways: gate-level simulation vs emulation.
//
// The simulation side executes the full Beauregard circuit — Hadamards,
// the modular-exponentiation cascade of controlled modular multipliers
// built from Draper QFT-adders, and the inverse QFT — gate by gate on
// t + 2w + 2 qubits. The emulation side (paper §3.1/§3.2) computes the
// same state with one amplitude permutation and one FFT on t + w
// qubits: no accumulator register, no comparator ancilla, no QFT
// sub-circuits. Both produce the identical exponent-register
// distribution; the wall-clock gap is the paper's whole argument.
//
// Run: ./shor_gate_level [--N 15] [--a 7] [--t 8] [--backend hpc]
//                        [--ranks 2]
// --ranks sets RunOptions.dist_ranks for --backend dist: the whole
// order-finding circuit then runs against one resident cluster session
// (chunks built in place at begin(), one gather at the end).
#include <cstdio>

#include "circuit/builders.hpp"
#include "common/cli.hpp"
#include "common/timer.hpp"
#include "engine/engine.hpp"
#include "revcirc/modular.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace qc;

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

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const index_t N = static_cast<index_t>(cli.get_int("N", 15));
  const index_t a = static_cast<index_t>(cli.get_int("a", 7));
  const revcirc::ShorLayout layout =
      revcirc::ShorLayout::make(static_cast<qubit_t>(cli.get_int("t", 8)), N);
  const qubit_t t = layout.t, w = layout.w;

  std::printf("order finding for a = %llu mod N = %llu\n",
              static_cast<unsigned long long>(a), static_cast<unsigned long long>(N));
  std::printf("gate level: %u qubits (t=%u exponent, w=%u value, w+1 accumulator,\n"
              "            1 comparator ancilla)\n",
              layout.total_qubits(), t, w);
  std::printf("emulated:   %u qubits (no work registers at all)\n\n", t + w);

  // --- gate-level simulation -------------------------------------------
  // The Beauregard circuit runs as an engine Program with one gate
  // segment, so any registered gate-level backend can execute it
  // (--backend hpc | fused | cached | dist | qhipster-like | liquid-like).
  circuit::Circuit full = revcirc::order_finding_circuit(layout, a, N);
  {
    // Inverse QFT on the exponent register to finish QPE.
    circuit::Circuit iqft(layout.total_qubits());
    iqft.compose_mapped(circuit::inverse_qft(t), layout.exponent);
    full.compose(iqft);
  }
  engine::Program gate_program(layout.total_qubits());
  gate_program.gates(full);
  engine::RunOptions gate_opts;
  gate_opts.backend = cli.get_string("backend", "hpc");
  gate_opts.dist_ranks = static_cast<int>(cli.get_int("ranks", 2));
  const engine::Result gate_result = engine::Engine().run(gate_program, gate_opts);
  const double t_gate = gate_result.total_seconds;
  std::printf("simulation: %zu gates on %u qubits ('%s')  %.4f s\n", full.size(),
              layout.total_qubits(), gate_result.backend.c_str(), t_gate);

  WallTimer timer;

  // --- emulation ---------------------------------------------------------
  sim::StateVector emu_sv(t + w);
  {
    circuit::Circuit prep(t + w);
    for (qubit_t q = 0; q < t; ++q) prep.h(q);
    prep.x(t);  // x register = |1>
    sim::apply_circuit_hpc(emu_sv.amplitudes(), prep);
  }
  emu::Emulator emulator(emu_sv);
  timer.reset();
  emulator.apply_permutation([&](index_t i) {
    const index_t e = bits::field(i, 0, t);
    const index_t y = bits::field(i, t, w);
    if (y >= N) return i;
    return bits::with_field(i, t, w, y * pow_mod(a, e, N) % N);
  });
  emulator.inverse_qft(emu::RegRef{0, t});
  const double t_emu = timer.seconds();
  std::printf("emulation:  1 permutation + 1 FFT on %u qubits  %.4f s\n", t + w, t_emu);
  std::printf("speedup: %.0fx\n\n", t_gate / t_emu);

  // --- agreement ----------------------------------------------------------
  const auto dist_gate = gate_result.state.register_distribution(0, t);
  const auto dist_emu = emu_sv.register_distribution(0, t);
  double max_diff = 0;
  for (index_t x = 0; x < dist_gate.size(); ++x)
    max_diff = std::max(max_diff, std::abs(dist_gate[x] - dist_emu[x]));
  std::printf("exponent-register distributions agree to %.2e\n", max_diff);

  std::printf("peaks (x, probability):\n");
  for (index_t x = 0; x < dist_gate.size(); ++x)
    if (dist_gate[x] > 0.02)
      std::printf("  %6llu  %.4f\n", static_cast<unsigned long long>(x), dist_gate[x]);
  std::printf("peak spacing 2^t/r reveals the order r of a mod N.\n");
  return max_diff < 1e-6 ? 0 : 1;
}
