// Cache-blocking ablation: sweep chunk width x fusion width on a
// low-qubit-dense random circuit and compare the "cached" backend
// against the unblocked "fused" and "hpc" paths.
//
// What it shows: after fusion, the fused executor still pays one full
// DRAM pass per block; at 20+ qubits the state no longer fits any
// cache, so every pass streams the whole vector through the memory bus.
// The cached backend applies a whole *sweep* of blocks to each
// cache-resident 2^L-amplitude chunk, paying one DRAM pass per sweep —
// the paper's §4 "touch the state as few times as possible" taken to
// its cache-level conclusion. When the workload is dense on low qubits
// (all ops chunk-local), the whole circuit collapses to a handful of
// passes and the win is purest; that is the acceptance workload here.
//
// Usage: ablation_blocking [--qubits 22] [--gates 400] [--active 16]
//                          [--fusion-width 5] [--fusion-sweep] [--seed 1]
//                          [--no-hpc] [--json FILE] [--full]
//   --active:       gates act on qubits [0, active) of the wider register
//   --fusion-sweep: cross the chunk sweep with fusion widths k = 2..6
//                   (default: the single --fusion-width)
//   --json:         write machine-readable per-backend timings
//   --full:         26 qubits, 600 gates
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "circuit/builders.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "fuse/fusion.hpp"
#include "sched/cached_simulator.hpp"
#include "sim/simulator.hpp"

namespace {

using qc::qubit_t;

struct Result {
  std::string backend;
  qubit_t fusion_width = 0;  // 0 = n/a
  qubit_t chunk_width = 0;   // 0 = n/a
  std::size_t passes = 0;
  double seconds = 0;
};

void write_json(const std::string& path, qubit_t n, std::size_t gates, qubit_t active,
                const std::vector<Result>& results, double t_fused, double t_best_cached) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"ablation_blocking\",\n  \"qubits\": %u,\n"
               "  \"gates\": %zu,\n  \"active_qubits\": %u,\n  \"threads\": %d,\n"
               "  \"results\": [\n",
               n, gates, active, qc::max_threads());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(f, "    {\"backend\": \"%s\"", r.backend.c_str());
    if (r.fusion_width) std::fprintf(f, ", \"fusion_width\": %u", r.fusion_width);
    if (r.chunk_width) std::fprintf(f, ", \"chunk_width\": %u", r.chunk_width);
    if (r.passes) std::fprintf(f, ", \"passes\": %zu", r.passes);
    std::fprintf(f, ", \"seconds\": %.6e}%s\n", r.seconds,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"best_fused_seconds\": %.6e,\n  \"best_cached_seconds\": %.6e,\n",
               t_fused, t_best_cached);
  std::fprintf(f, "  \"speedup_cached_vs_fused\": %.3f\n}\n",
               t_best_cached > 0 ? t_fused / t_best_cached : 0.0);
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qc;
  const Cli cli(argc, argv);
  const bool full = cli.has("full");
  const auto n = static_cast<qubit_t>(
      std::clamp(cli.get_int("qubits", full ? 26 : 22), 4L, 30L));
  const auto gates = static_cast<std::size_t>(
      std::max(cli.get_int("gates", full ? 600 : 400), 1L));
  const auto active = static_cast<qubit_t>(
      std::clamp(cli.get_int("active", std::min<long>(n, 16)), 2L, static_cast<long>(n)));
  const auto fusion_k = static_cast<qubit_t>(
      std::clamp(cli.get_int("fusion-width", 5), 1L,
                 static_cast<long>(sim::kernels::kMaxFusedWidth)));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const bool with_hpc = !cli.has("no-hpc");
  const std::string json_path = cli.get_string("json", "");

  bench::print_header("ablation_blocking",
                      "cache-blocked sweep execution (chunk width x fusion width)");
  std::printf("workload: random dense circuit on qubits [0,%u) of %u, %zu gates, %d threads\n\n",
              active, n, gates, max_threads());

  Rng rng(seed);
  const circuit::Circuit c = circuit::random_dense_circuit(active, gates, rng).widened(n);

  sim::StateVector sv(n);
  Rng state_rng(seed + 1);
  sv.randomize(state_rng);

  std::vector<Result> results;

  double t_hpc = 0;
  if (with_hpc) {
    t_hpc = bench::timed([&] { sim::apply_circuit_hpc(sv.amplitudes(), c); }, /*warmup=*/true);
    std::printf("hpc baseline (unfused): %s s/run (%zu passes)\n", sci(t_hpc).c_str(), gates);
    results.push_back({"hpc", 0, 0, gates, t_hpc});
  }

  std::vector<qubit_t> fusion_widths{fusion_k};
  if (cli.has("fusion-sweep")) fusion_widths = {2, 3, 4, 5, 6};

  Table table({"k", "chunk 2^L", "sweeps", "ops-in-sweeps", "passes", "T [s]", "vs fused",
               with_hpc ? "vs hpc" : ""});
  double t_best_cached = 0;
  double t_best_fused = 0;  // best fused baseline across the swept widths
  std::size_t fused_passes_ref = 0;
  for (const qubit_t k : fusion_widths) {
    // Fused baseline at this width: one full DRAM pass per fused block.
    fuse::FusionOptions fusion;
    fusion.max_width = k;
    const sched::BlockedPlan fplan = sched::global_plan(fuse::fuse_circuit(c, fusion));
    const double t_fused = bench::timed(
        [&] { sched::execute_blocked<double>(sv.amplitudes(), fplan); }, /*warmup=*/true);
    std::printf("fused baseline (k=%u):  %s s/run (%zu passes)\n", k, sci(t_fused).c_str(),
                fplan.passes());
    results.push_back({"fused", k, 0, fplan.passes(), t_fused});
    if (t_best_fused == 0 || t_fused < t_best_fused) {
      t_best_fused = t_fused;
      fused_passes_ref = fplan.passes();
    }

    const qubit_t lo = static_cast<qubit_t>(std::max(10, static_cast<int>(k)));
    for (qubit_t chunk = lo; chunk <= std::min<qubit_t>(n, 18); chunk += 2) {
      sched::ScheduleOptions blocking;
      blocking.max_block_width = k;  // honest axis: no in-cache re-narrowing
      blocking.chunk_width = chunk;
      const sched::BlockedPlan plan = sched::plan(c, fusion, blocking);
      const double t = bench::timed(
          [&] { sched::execute_blocked<double>(sv.amplitudes(), plan); }, /*warmup=*/true);
      if (t_best_cached == 0 || t < t_best_cached) t_best_cached = t;
      table.add_row({std::to_string(k), std::to_string(chunk), std::to_string(plan.sweeps()),
                     std::to_string(plan.chunk_ops()), std::to_string(plan.passes()), sci(t),
                     fixed(t_fused / t, 2) + "x",
                     with_hpc ? fixed(t_hpc / t, 2) + "x" : ""});
      results.push_back({"cached", k, chunk, plan.passes(), t});
    }
  }
  std::printf("\n");
  table.print("chunk-width x fusion-width sweep (plans built once, execution timed)");

  std::printf("\nreading: 'passes' counts full state-vector traversals (sweeps +\n"
              "globals). The fused path pays %zu; blocking collapses all\n"
              "chunk-local ops of a sweep into one pass, so the speedup tracks the\n"
              "pass reduction until chunks outgrow the cache.\n",
              fused_passes_ref);
  std::printf("\nbest cached vs best fused: %.2fx\n",
              t_best_cached > 0 ? t_best_fused / t_best_cached : 0.0);

  if (!json_path.empty())
    write_json(json_path, n, gates, active, results, t_best_fused, t_best_cached);
  return 0;
}
