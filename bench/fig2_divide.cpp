// Figure 2: time per integer division, gate-level simulation (restoring
// divider on 4m+4 qubits — the "extra work qubits for the overflow
// test" the paper blames for the larger gap) vs emulation (one partial
// amplitude map on 3m qubits).
//
// Usage: fig2_divide [--m-sim-max M] [--m-emu-max M] [--full]
//   defaults: simulation m = 2..4, emulation m = 2..8
//   --full:   simulation m = 2..6, emulation m = 2..9
#include <cstdio>

#include "bench_util.hpp"
#include "circuit/decompose.hpp"
#include "common/rng.hpp"
#include "emu/emulator.hpp"
#include "revcirc/arith.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace qc;

/// Paper's Fig. 2 speedup inset (log scale, 100 to 10000).
double paper_speedup(qubit_t m) {
  switch (m) {
    case 2: return 100;
    case 3: return 300;
    case 4: return 900;
    case 5: return 2000;
    case 6: return 5000;
    case 7: return 10000;
    default: return -1;
  }
}

double time_simulation(qubit_t m, bool lower) {
  circuit::Circuit c = revcirc::divider_circuit(m);
  if (lower) c = circuit::lower_to_clifford_t(c);
  sim::StateVector sv(c.qubits());
  // Superpose dividend and divisor registers; all work space |0>.
  circuit::Circuit prep(c.qubits());
  for (qubit_t q = 0; q < m; ++q) prep.h(q);
  for (qubit_t q = 0; q < m; ++q) prep.h(2 * m + 1 + q);
  sim::apply_circuit_hpc(sv.amplitudes(), prep);
  // One-shot timing: the divider is not idempotent on its own output, so
  // re-prepare per repetition (preparation excluded from the clock).
  double total = 0;
  int reps = 0;
  do {
    sv.set_basis(0);
    sim::apply_circuit_hpc(sv.amplitudes(), prep);
    WallTimer t;
    sim::apply_circuit_hpc(sv.amplitudes(), c);
    total += t.seconds();
    ++reps;
  } while (total < 0.3 && reps < 20);
  return total / reps;
}

double time_emulation(qubit_t m) {
  sim::StateVector sv(3 * m);
  emu::Emulator emulator(sv);
  const emu::RegRef a{0, m}, b{m, m}, c{static_cast<qubit_t>(2 * m), m};
  circuit::Circuit prep(3 * m);
  for (qubit_t q = 0; q < 2 * m; ++q) prep.h(q);  // superpose a and b, c = 0
  double total = 0;
  int reps = 0;
  do {
    sv.set_basis(0);
    sim::apply_circuit_hpc(sv.amplitudes(), prep);
    WallTimer t;
    emulator.divide(a, b, c);
    total += t.seconds();
    ++reps;
  } while (total < 0.3 && reps < 1 << 12);
  return total / reps;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const bool full = cli.has("full");
  const bool lower = !cli.has("native-toffoli");
  const long m_sim_max = cli.get_int("m-sim-max", full ? 5 : 4);
  const long m_emu_max = cli.get_int("m-emu-max", full ? 9 : 8);

  bench::print_header("fig2_divide", "Fig. 2 — division: simulation vs emulation");
  std::printf("simulation: restoring divider on 4m+4 qubits (overflow-test work\n"
              "qubits), %s;\nemulation: one partial map on 3m qubits\n\n",
              lower ? "lowered to 1-2 qubit Clifford+T gates"
                    : "with native Toffolis (--native-toffoli)");

  Table table({"m", "qubits(sim)", "qubits(emu)", "T_sim [s]", "T_emu [s]", "speedup",
               "paper~"});
  for (qubit_t m = 2; m <= static_cast<qubit_t>(m_emu_max); ++m) {
    const bool have_sim = m <= static_cast<qubit_t>(m_sim_max);
    const double t_emu = time_emulation(m);
    const double t_sim = have_sim ? time_simulation(m, lower) : -1;
    table.add_row({std::to_string(m), std::to_string(4 * m + 4), std::to_string(3 * m),
                   have_sim ? sci(t_sim) : "skipped", sci(t_emu),
                   have_sim ? fixed(t_sim / t_emu, 1) + "x" : "-",
                   bench::anchor(paper_speedup(m))});
  }
  table.print("time per division (m-bit operands)");
  std::printf("\npaper: speedup far greater than multiplication (up to ~10^4),\n"
              "because the m+3 overflow/work qubits multiply the simulated state\n"
              "by 2^{m+3} while the emulator never materializes them. The paper\n"
              "stops simulated division at m = 7 for memory; this box stops at\n"
              "m = %ld (4m+4 qubits).\n", m_sim_max);
  return 0;
}
