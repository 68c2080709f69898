// Figure 3: weak-scaling QFT — gate-level simulation vs emulation as a
// distributed FFT. The paper runs 28..36 qubits on 1..256 Stampede
// nodes; this box runs the same algorithms over in-process ranks at a
// reduced per-rank size (measured series), and evaluates the paper's own
// performance models Eq. 5 / Eq. 6 at paper scale (modeled series).
//
// Both measured series go through Engine::run on the "dist" backend:
// the emulated one runs Program(n).qft(), which dist executes as the
// in-place distributed FFT; the simulated one runs the same program
// passed through engine::lower() first, i.e. the O(n^2) gate cascade
// under the distributed scheduler. Each time is the QFT op's row of the
// engine trace (the chunks' setup and gather excluded), after one
// warm-up run.
//
// Usage: fig3_qft_weak [--local-qubits L] [--max-ranks P] [--full]
//   defaults: L = 20 qubits/rank, P up to 8
//   --full:   L = 22, P up to 16
#include <cstdio>

#include "bench_util.hpp"
#include "engine/engine.hpp"
#include "models/perf_model.hpp"

namespace {

using namespace qc;

struct Row {
  qubit_t n;
  int ranks;
  double t_sim;
  double t_emu;
};

/// Seconds the program's one unitary op took on `ranks` dist ranks,
/// from the second of two runs.
double op_seconds(const engine::Program& p, int ranks) {
  engine::RunOptions opts;
  opts.backend = "dist";
  opts.dist_ranks = ranks;
  const engine::Engine eng;
  (void)eng.run(p, opts);
  return eng.run(p, opts).trace.front().seconds;
}

Row run_point(qubit_t local_qubits, int ranks) {
  const qubit_t n = local_qubits + bits::log2_floor(static_cast<index_t>(ranks));
  engine::Program qft(n);
  qft.qft();
  return {n, ranks, op_seconds(engine::lower(qft), ranks), op_seconds(qft, ranks)};
}

/// Paper's Fig. 3 speedups, eyeballed: 15x on one node, dip to ~11x at
/// 2-4 nodes, 6-15x overall.
double paper_speedup(int ranks) {
  switch (ranks) {
    case 1: return 15;
    case 2: return 11;
    case 4: return 11;
    case 8: return 9;
    case 16: return 8;
    default: return -1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const bool full = cli.has("full");
  const long local_qubits = cli.get_int("local-qubits", full ? 22 : 20);
  const long max_ranks = cli.get_int("max-ranks", full ? 16 : 8);

  bench::print_header("fig3_qft_weak",
                      "Fig. 3 — QFT weak scaling: simulation vs emulation (FFT)");
  std::printf("measured: %ld qubits per rank, ranks = 1..%ld (in-process message-\n"
              "passing substrate: rank threads on this host stand in for\n"
              "Stampede's MPI nodes)\n\n",
              local_qubits, max_ranks);

  Table measured({"qubits", "ranks", "T_sim [s]", "T_emu(FFT) [s]", "speedup", "paper~"});
  for (int p = 1; p <= max_ranks; p *= 2) {
    const Row r = run_point(static_cast<qubit_t>(local_qubits), p);
    measured.add_row({std::to_string(r.n), std::to_string(r.ranks), sci(r.t_sim),
                      sci(r.t_emu), fixed(r.t_sim / r.t_emu, 1) + "x",
                      paper_speedup(p) > 0 ? fixed(paper_speedup(p), 0) + "x" : "n/a"});
  }
  measured.print("measured (scaled-down) weak scaling");

  // Paper-scale series from the paper's own models (Eqs. 5 and 6).
  const auto series = models::fig3_series(28, 36, models::MachineParams::stampede());
  Table modeled({"qubits", "nodes", "T_QFT Eq.6 [s]", "T_FFT Eq.5 [s]", "speedup"});
  for (const auto& p : series)
    modeled.add_row({std::to_string(p.qubits), std::to_string(p.nodes), sci(p.t_simulate),
                     sci(p.t_emulate), fixed(p.speedup(), 1) + "x"});
  std::printf("\n");
  modeled.print("modeled at paper scale (Stampede parameters, Eqs. 5/6)");
  std::printf("\npaper: 15x on one node (predicted n*FLOPS/B_mem = 14), dipping to\n"
              "~11x at 2-4 nodes where FFT's 3 all-to-alls out-communicate QFT's\n"
              "log2(P) exchanges; 6-15x overall.\n");
  return 0;
}
