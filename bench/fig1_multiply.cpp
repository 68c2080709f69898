// Figure 1: time per multiplication of two m-bit numbers into a third
// register, gate-level simulation (shift-and-add Cuccaro network on
// 3m+1 qubits) vs emulation (one amplitude permutation on 3m qubits).
//
// Usage: fig1_multiply [--m-sim-max M] [--m-emu-max M] [--full]
//   defaults: simulation m = 2..6, emulation m = 2..8
//   --full:   simulation m = 2..8, emulation m = 2..9 (needs ~9 GB)
#include <cstdio>

#include "bench_util.hpp"
#include "circuit/decompose.hpp"
#include "common/rng.hpp"
#include "emu/emulator.hpp"
#include "revcirc/arith.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace qc;

/// Paper's Fig. 1 speedup inset, eyeballed from the log plot.
double paper_speedup(qubit_t m) {
  switch (m) {
    case 2: return 90;
    case 3: return 140;
    case 4: return 190;
    case 5: return 240;
    case 6: return 290;
    case 7: return 340;
    case 8: return 400;
    case 9: return 480;
    default: return -1;
  }
}

double time_simulation(qubit_t m, bool lower) {
  // The paper's simulator executes one- and two-qubit elementary gates
  // (§2); lowering the Toffolis to the 15-gate Clifford+T network is the
  // faithful baseline. --native-toffoli keeps 3-qubit gates (an
  // advantage a real gate-level simulator does not get).
  circuit::Circuit c = revcirc::multiplier_circuit(m);
  if (lower) c = circuit::lower_to_clifford_t(c);
  sim::StateVector sv(c.qubits());
  Rng rng(m);
  // Random data registers, work qubit |0>: zero the ancilla's half.
  {
    sim::StateVector data(3 * m);
    data.randomize(rng);
    std::copy(data.amplitudes().begin(), data.amplitudes().end(), sv.amplitudes().begin());
  }
  return time_per_rep([&] { sim::apply_circuit_hpc(sv.amplitudes(), c); }, /*min_seconds=*/0.3,
                      /*max_reps=*/20);
}

double time_emulation(qubit_t m) {
  sim::StateVector sv(3 * m);
  Rng rng(m + 100);
  sv.randomize(rng);
  emu::Emulator emulator(sv);
  const emu::RegRef a{0, m}, b{m, m}, c{static_cast<qubit_t>(2 * m), m};
  emulator.multiply(a, b, c);  // warm-up sizes the scratch buffer
  return time_per_rep([&] { emulator.multiply(a, b, c); }, 0.3, 1 << 12);
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const bool full = cli.has("full");
  const bool lower = !cli.has("native-toffoli");
  const long m_sim_max = cli.get_int("m-sim-max", full ? 7 : 6);
  const long m_emu_max = cli.get_int("m-emu-max", full ? 9 : 8);

  bench::print_header("fig1_multiply",
                      "Fig. 1 — multiplication: simulation vs emulation");
  std::printf("simulation: shift-and-add network on 3m+1 qubits, %s;\n"
              "emulation: one permutation on 3m qubits\n\n",
              lower ? "lowered to 1-2 qubit Clifford+T gates"
                    : "with native Toffolis (--native-toffoli)");

  Table table({"m", "qubits(sim)", "gates(sim)", "T_sim [s]", "T_emu [s]", "speedup",
               "paper~"});
  for (qubit_t m = 2; m <= static_cast<qubit_t>(m_emu_max); ++m) {
    const bool have_sim = m <= static_cast<qubit_t>(m_sim_max);
    const std::size_t gates =
        have_sim ? (lower ? circuit::lower_to_clifford_t(revcirc::multiplier_circuit(m))
                          : revcirc::multiplier_circuit(m))
                       .size()
                 : 0;
    const double t_emu = time_emulation(m);
    const double t_sim = have_sim ? time_simulation(m, lower) : -1;
    table.add_row({std::to_string(m), std::to_string(3 * m + 1),
                   have_sim ? std::to_string(gates) : "-",
                   have_sim ? sci(t_sim) : "skipped",
                   sci(t_emu),
                   have_sim ? fixed(t_sim / t_emu, 1) + "x" : "-",
                   bench::anchor(paper_speedup(m))});
  }
  table.print("time per multiplication (m-bit operands)");
  std::printf("\npaper: speedup >100x, growing with m (Fig. 1 inset). The gap\n"
              "comes from replacing ~3m^2 gate sweeps (plus the carry ancilla\n"
              "qubit doubling the state) with one amplitude permutation.\n");
  return 0;
}
