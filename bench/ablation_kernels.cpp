// bench_ablation_kernels — precision x ISA ablation of the dispatched
// microkernels (PR 10's acceptance bench).
//
// Sweeps every available SIMD tier (scalar / avx2 / avx512, forced via
// kernels::force_isa) against both amplitude precisions (fp64 / fp32)
// over the three dispatched kernel families — dense 2x2 (apply_folded),
// dense 4x4 (apply_multi) and the run-scaled diagonal — plus one fused
// QFT sweep end to end (execute_blocked over a prebuilt all-Global plan,
// the "fused" backend's executor). Each cell reports best-of-reps
// seconds and the effective memory bandwidth.
//
// Headline scalars (top-level JSON numerics, picked up by
// tools/append_trajectory.py into BENCH_TRAJECTORY.md). Both are taken
// from the dense 2x2 sweep — the paper's core kernel and the cell the
// acceptance gate reads; the fused QFT row is diagonal-dominated (231
// controlled phases vs 22 H at n=22) so it understates dense-kernel
// precision gains:
//   fp32_vs_fp64_speedup   — dense2, auto-dispatched ISA: t64 / t32.
//   dispatch_vs_native_ratio — dense2 at fp64: auto-dispatched
//       hand-vectorized kernels vs the scalar reference loops, which
//       the default QC_NATIVE=ON build compiles with -march=native —
//       i.e. runtime dispatch vs what native compilation achieves
//       (<= 1.05 means within 5%).
//
// Run: ./bench_ablation_kernels [--qubits 22] [--reps 3] [--json FILE]
#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <numbers>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "circuit/builders.hpp"
#include "common/rng.hpp"
#include "fuse/fusion.hpp"
#include "sched/cached_simulator.hpp"
#include "sim/kernels.hpp"
#include "sim/kernels_dispatch.hpp"
#include "sim/state_vector.hpp"

namespace {

using namespace qc;
using sim::kernels::SimdIsa;

struct Cell {
  std::string kernel;
  std::string isa;
  int fp_bits = 64;
  double seconds = 0;
  double gb_per_s = 0;
};

/// Best-of-reps wall time of `f`, one warm-up run first (first touch).
template <typename F>
double best_of(int reps, F&& f) {
  f();
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    f();
    best = std::min(best, t.seconds());
  }
  return best;
}

/// One precision's sweep of the four kernel workloads under the
/// currently forced ISA. `bytes_*` count the amplitudes each pass
/// streams (read + write) so the bandwidth column is comparable across
/// precisions — fp32 moving half the bytes at equal amplitude count
/// shows up as time, not as an inflated GB/s.
template <typename T>
void run_cells(qubit_t n, int reps, const sched::BlockedPlan& plan, const char* isa,
               std::vector<Cell>& out) {
  using C = basic_complex_t<T>;
  sim::BasicStateVector<T> sv(n);
  sv.randomize_deterministic(42);
  const auto a = sv.amplitudes();
  const double pass_bytes = 2.0 * static_cast<double>(sizeof(C)) * static_cast<double>(dim(n));
  const int bits = static_cast<int>(8 * sizeof(T));

  const sim::kernels::U2 h{1 / std::numbers::sqrt2, 1 / std::numbers::sqrt2,
                           1 / std::numbers::sqrt2, -1 / std::numbers::sqrt2};
  const auto hu = sim::kernels::u2_cast<T>(h);
  double s = best_of(reps, [&] { sim::kernels::apply_folded<T>(a, n, 5, 0, hu); });
  out.push_back({"dense2", isa, bits, s, pass_bytes / s / 1e9});

  // Dense 4x4: one fused 2-qubit block (H ox H), targets low so the
  // gather runs are long — the dispatched dense4 microkernel's case.
  const std::vector<qubit_t> targets{3, 4};
  std::vector<C> u(16);
  const complex_t hm[4] = {h.m00, h.m01, h.m10, h.m11};  // H ox H, row-major
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
      u[static_cast<std::size_t>(4 * i + j)] =
          static_cast<C>(hm[2 * (i >> 1) + (j >> 1)] * hm[2 * (i & 1) + (j & 1)]);
  s = best_of(reps, [&] {
    sim::kernels::apply_multi<T>(a, n, {targets.data(), targets.size()},
                                 {u.data(), u.size()});
  });
  out.push_back({"dense4", isa, bits, s, pass_bytes / s / 1e9});

  const auto d1 = static_cast<C>(std::polar(1.0, 0.3));
  s = best_of(reps,
              [&] { sim::kernels::apply_diagonal<T>(a, n, 5, C{T{1}}, d1, index_t{1} << 9); });
  out.push_back({"diag", isa, bits, s, pass_bytes / s / 1e9});

  s = best_of(reps, [&] { sched::execute_blocked<T>(a, plan); });
  out.push_back({"fused_qft", isa, bits, s, 0});
}

std::vector<SimdIsa> available_isas() {
  std::vector<SimdIsa> out;
  for (const SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kAvx2, SimdIsa::kAvx512})
    if (sim::kernels::isa_available(isa)) out.push_back(isa);
  return out;
}

double cell_seconds(const std::vector<Cell>& cells, const std::string& kernel,
                    const std::string& isa, int fp_bits) {
  for (const Cell& c : cells)
    if (c.kernel == kernel && c.isa == isa && c.fp_bits == fp_bits) return c.seconds;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const qubit_t n = static_cast<qubit_t>(cli.get_int("qubits", 22));
  const int reps = static_cast<int>(cli.get_int("reps", 3));
  const std::string json_path = cli.get_string("json", "");

  const circuit::Circuit qft = circuit::qft(n);
  const sched::BlockedPlan plan = sched::global_plan(fuse::fuse_circuit(qft));

  const SimdIsa dispatched = sim::kernels::active_isa();
  std::vector<Cell> cells;
  for (const SimdIsa isa : available_isas()) {
    const SimdIsa prev = sim::kernels::force_isa(isa);
    const char* name = sim::kernels::isa_name(isa);
    run_cells<double>(n, reps, plan, name, cells);
    run_cells<float>(n, reps, plan, name, cells);
    sim::kernels::force_isa(prev);
  }

  const char* disp = sim::kernels::isa_name(dispatched);
  const double t64 = cell_seconds(cells, "dense2", disp, 64);
  const double t32 = cell_seconds(cells, "dense2", disp, 32);
  const double t64_scalar = cell_seconds(cells, "dense2", "scalar", 64);
  const double fp32_speedup = t32 > 0 ? t64 / t32 : 0;
  const double dispatch_vs_native = t64_scalar > 0 ? t64 / t64_scalar : 0;

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::printf("cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"bench_ablation_kernels\",\n");
    std::fprintf(f, "  \"qubits\": %u,\n  \"reps\": %d,\n  \"dispatched_isa\": \"%s\",\n", n,
                 reps, disp);
    std::fprintf(f, "  \"fp32_vs_fp64_speedup\": %.3f,\n", fp32_speedup);
    std::fprintf(f, "  \"dispatch_vs_native_ratio\": %.3f,\n", dispatch_vs_native);
    std::fprintf(f, "  \"cells\": [\n");
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      std::fprintf(f,
                   "    {\"kernel\": \"%s\", \"isa\": \"%s\", \"fp_bits\": %d, "
                   "\"seconds\": %.6f, \"gb_per_s\": %.2f}%s\n",
                   c.kernel.c_str(), c.isa.c_str(), c.fp_bits, c.seconds, c.gb_per_s,
                   i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  }

  bench::print_header("bench_ablation_kernels",
                      "precision x ISA kernel ablation (PR 10 dispatch + fp32)");
  Table table({"kernel", "isa", "fp", "best [s]", "GB/s"});
  for (const Cell& c : cells)
    table.add_row({c.kernel, c.isa, std::to_string(c.fp_bits), sci(c.seconds),
                   c.gb_per_s > 0 ? fixed(c.gb_per_s, 2) : "-"});
  table.print("kernel cells (best of " + std::to_string(reps) + ")");
  std::printf("\ndispatched isa:            %s\n", disp);
  std::printf("fp32 vs fp64 speedup:      %.2fx (dense 2x2 sweep, %u qubits)\n", fp32_speedup,
              n);
  std::printf("dispatch vs native ratio:  %.2fx (fp64 dense 2x2, dispatched vs scalar "
              "reference at build arch)\n",
              dispatch_vs_native);
  return 0;
}
