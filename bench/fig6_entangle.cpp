// Figure 6: single-node entangling operation (H on qubit 0, then a CNOT
// chain conditioned on it) across the three simulators: ours ("hpc") and
// the "qhipster-like" / "liquid-like" stand-ins.
//
// Usage: fig6_entangle [--min-qubits N] [--max-qubits N] [--full]
//   defaults: n = 15..22; --full: 15..24
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "circuit/builders.hpp"
#include "engine/backend.hpp"

namespace {

using namespace qc;

double time_entangle(const std::string& backend, qubit_t n) {
  const auto simulator = engine::make_backend(backend);
  simulator->begin(n, 0);
  const circuit::Circuit c = circuit::entangle(n);
  simulator->run_gates(c);  // warm-up
  // Repeat until >= 0.3 s: a single entangle pass is microseconds at
  // small n, far below OpenMP fork/join noise.
  return time_per_rep([&] { simulator->run_gates(c); }, 0.3, 1000);
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const bool full = cli.has("full");
  const long n_min = cli.get_int("min-qubits", 15);
  const long n_max = cli.get_int("max-qubits", full ? 24 : 22);

  bench::print_header("fig6_entangle",
                      "Fig. 6 — entangling operation: ours vs qHiPSTER vs LIQUi|>");

  Table table({"qubits", "T_ours [s]", "T_qhip [s]", "T_liquid [s]", "vs qhip",
               "vs liquid", "paper(qhip/liquid)~"});
  for (qubit_t n = static_cast<qubit_t>(n_min); n <= static_cast<qubit_t>(n_max); ++n) {
    const double t_ours = time_entangle("hpc", n);
    const double t_qhip = time_entangle("qhipster-like", n);
    const double t_liquid = time_entangle("liquid-like", n);
    table.add_row({std::to_string(n), sci(t_ours), sci(t_qhip), sci(t_liquid),
                   fixed(t_qhip / t_ours, 2) + "x", fixed(t_liquid / t_ours, 1) + "x",
                   "~2x / ~6x"});
  }
  table.print("time per entangling operation (H + CNOT chain)");
  std::printf("\npaper: ~2x over qHiPSTER and ~6x over LIQUi|> (Fig. 6). Mechanism\n"
              "here: the CNOT chain is control-folded (half the pairs, zero\n"
              "flops) instead of a full masked 2x2 sweep per gate.\n");
  return 0;
}
