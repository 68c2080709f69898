// Fusion-width ablation: sweep the fused-block width k on a random
// dense circuit and compare against the unfused hpc baseline.
//
// What it shows: gate application is memory bound, so collapsing g gates
// into one k-qubit block trades g full state-vector passes for one pass
// plus 2^k flops per amplitude. Small k (2-5) wins; large k turns the
// sweep compute bound and gives the gains back — the same trade-off the
// paper quantifies for diagonal-run fusion in its ablation.
//
// Usage: ablation_fusion [--qubits 20] [--gates 400] [--max-width 6]
//                        [--seed 1] [--raw] [--full]
//   --raw:  disable the pass's cost gate (fuse every run to exactly k
//           qubits) — shows the unguarded trade-off curve
//   --full: 24 qubits, 600 gates
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "circuit/builders.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "fuse/fusion.hpp"
#include "sched/cached_simulator.hpp"
#include "sim/simulator.hpp"

int main(int argc, char** argv) {
  using namespace qc;
  const Cli cli(argc, argv);
  const bool full = cli.has("full");
  const auto n = static_cast<qubit_t>(
      std::clamp(cli.get_int("qubits", full ? 24 : 20), 2L, 30L));
  const auto gates = static_cast<std::size_t>(
      std::max(cli.get_int("gates", full ? 600 : 400), 1L));
  const auto max_k = std::min(static_cast<qubit_t>(cli.get_int("max-width", 6)),
                              sim::kernels::kMaxFusedWidth);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const bool raw = cli.has("raw");

  bench::print_header("ablation_fusion",
                      "gate-fusion width sweep (k-qubit blocks vs per-gate sweeps)");
  std::printf("workload: random dense circuit, %u qubits, %zu gates, %d threads\n\n",
              n, gates, max_threads());

  Rng rng(seed);
  const circuit::Circuit c = circuit::random_dense_circuit(n, gates, rng);

  sim::StateVector sv(n);
  Rng state_rng(seed + 1);
  sv.randomize(state_rng);

  // Unfused baseline: every gate is one specialized sweep.
  const double t_hpc =
      bench::timed([&] { sim::apply_circuit_hpc(sv.amplitudes(), c); }, /*warmup=*/true);
  std::printf("hpc baseline (unfused): %s s/run, %s s/gate\n\n", sci(t_hpc).c_str(),
              sci(t_hpc / static_cast<double>(gates)).c_str());

  Table table({"k", "blocks", "gates-fused", "passes", "T [s]", "T/gate [s]", "vs hpc",
               "T cached [s]", "cached vs hpc"});
  for (qubit_t k = 1; k <= max_k; ++k) {
    fuse::FusionOptions fusion;
    fusion.max_width = k;
    fusion.cost_gate = !raw;
    const fuse::FusedCircuit plan = fuse::fuse_circuit(c, fusion);
    const sched::BlockedPlan fplan = sched::global_plan(plan);
    const std::size_t passes = fplan.passes();
    const double t = bench::timed(
        [&] { sched::execute_blocked<double>(sv.amplitudes(), fplan); }, /*warmup=*/true);
    // Same fusion width through the cache-blocked executor (auto chunk).
    sched::ScheduleOptions blocking;
    blocking.max_block_width = k;  // honest axis: no in-cache re-narrowing
    const sched::BlockedPlan bplan = sched::plan(c, fusion, blocking);
    const double tc = bench::timed(
        [&] { sched::execute_blocked<double>(sv.amplitudes(), bplan); }, /*warmup=*/true);
    table.add_row({std::to_string(k), std::to_string(plan.blocks()),
                   std::to_string(plan.fused_gates()), std::to_string(passes), sci(t),
                   sci(t / static_cast<double>(gates)), fixed(t_hpc / t, 2) + "x", sci(tc),
                   fixed(t_hpc / tc, 2) + "x"});
  }
  table.print("fusion width sweep (plan built once, execution timed)");
  std::printf("\nreading: 'passes' is the number of state-vector sweeps after fusion\n"
              "(vs %zu unfused). Speedup tracks the pass reduction until the dense\n"
              "2^k x 2^k per-block mat-vec turns the sweep compute bound. The\n"
              "cached columns run the same plan through the cache-blocked sweep\n"
              "executor (bench_ablation_blocking sweeps its chunk width).\n",
              gates);
  return 0;
}
