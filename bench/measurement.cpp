// §3.4 measurement emulation: the paper argues (without a figure) that
// computing expectation values from the full amplitude distribution in
// one pass replaces the many circuit repetitions a quantum computer (or
// a per-shot simulator) needs. This bench quantifies the claim: exact
// one-pass expectation vs shot-sampled estimates at increasing shot
// counts, with the statistical error alongside.
//
// Usage: measurement [--qubits N] [--full]
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "circuit/builders.hpp"
#include "common/rng.hpp"
#include "emu/observables.hpp"
#include "sim/simulator.hpp"

int main(int argc, char** argv) {
  using namespace qc;
  const Cli cli(argc, argv);
  const qubit_t n = static_cast<qubit_t>(cli.get_int("qubits", cli.has("full") ? 24 : 20));

  bench::print_header("measurement",
                      "§3.4 — measurement statistics: exact one-pass vs sampling");

  sim::StateVector sv(n);
  sim::apply_circuit_hpc(sv.amplitudes(), circuit::tfim_trotter_step(n, 0.3));
  const index_t mask = bits::low_mask(n / 2);  // Z-string on the low half

  const double t_exact = time_once([&] {
    volatile double sink = emu::expectation_z_string(sv, mask);
    (void)sink;
  });
  const double exact = emu::expectation_z_string(sv, mask);

  Table table({"shots", "estimate", "abs error", "T_sample [s]", "T_exact [s]", "ratio"});
  Rng rng(1);
  for (const std::size_t shots : {100ul, 1000ul, 10000ul, 100000ul, 1000000ul}) {
    double est = 0;
    const double t_sample =
        time_once([&] { est = emu::sampled_z_string(sv, mask, shots, rng); });
    table.add_row({std::to_string(shots), fixed(est, 5), sci(std::abs(est - exact)),
                   sci(t_sample), sci(t_exact), fixed(t_sample / t_exact, 1) + "x"});
  }
  table.print("<Z-string> on " + std::to_string(n) + " qubits (exact = " +
              fixed(exact, 6) + ")");
  std::printf("\npaper: \"the time savings of emulation compared to simulation are\n"
              "just the number of repetitions of the circuit\" — here the exact\n"
              "pass costs one distribution sweep while the sampled error shrinks\n"
              "only as 1/sqrt(shots). A hardware run would additionally pay the\n"
              "full circuit per shot.\n");
  return 0;
}
