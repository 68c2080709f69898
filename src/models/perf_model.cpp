#include "models/perf_model.hpp"

#include <cmath>
#include <stdexcept>

#include "common/bits.hpp"

namespace qc::models {

MachineParams MachineParams::local(double fft_gflops, double b_mem_gbs, double b_net_gbs) {
  MachineParams m;
  m.fft_gflops = fft_gflops;
  m.b_mem_gbs = b_mem_gbs;
  m.b_net_gbs = b_net_gbs;
  return m;
}

double t_fft_seconds(qubit_t n, int nodes, const MachineParams& m) {
  const double size = std::ldexp(1.0, static_cast<int>(n));
  const double flops_agg = m.fft_gflops * 1e9 * nodes;
  const double compute = 5.0 * size * static_cast<double>(n) / flops_agg;
  // Single node: the three all-to-all transposes are local permutations
  // folded into the compute term; charge network only when distributed.
  if (nodes <= 1) return compute;
  const double bnet_agg = m.b_net_gbs * 1e9 * nodes;
  return compute + 3.0 * 16.0 * size / bnet_agg;
}

double t_qft_seconds(qubit_t n, int nodes, const MachineParams& m) {
  const double size = std::ldexp(1.0, static_cast<int>(n));
  const double bmem_agg = m.b_mem_gbs * 1e9 * nodes;
  const double compute = 4.0 * size * static_cast<double>(n) * static_cast<double>(n) / bmem_agg;
  if (nodes <= 1) return compute;
  const double bnet_agg = m.b_net_gbs * 1e9 * nodes;
  return compute + std::log2(static_cast<double>(nodes)) * 16.0 * size / bnet_agg;
}

std::vector<WeakScalingPoint> fig3_series(qubit_t n_min, qubit_t n_max,
                                          const MachineParams& m) {
  if (n_max < n_min) throw std::invalid_argument("fig3_series: bad range");
  std::vector<WeakScalingPoint> series;
  for (qubit_t n = n_min; n <= n_max; ++n) {
    WeakScalingPoint p;
    p.qubits = n;
    p.nodes = static_cast<int>(bits::bit(n - n_min));
    p.t_simulate = t_qft_seconds(n, p.nodes, m);
    p.t_emulate = t_fft_seconds(n, p.nodes, m);
    series.push_back(p);
  }
  return series;
}

double qpe_simulate_seconds(const QpeCosts& c, unsigned bits) {
  return (std::ldexp(1.0, static_cast<int>(bits)) - 1.0) * c.t_apply_u;
}

double qpe_repeated_squaring_seconds(const QpeCosts& c, unsigned bits) {
  return c.t_construct + static_cast<double>(bits) * c.t_gemm;
}

double qpe_eigendecomposition_seconds(const QpeCosts& c, unsigned bits) {
  (void)bits;  // the one-time diagonalization covers any precision
  return c.t_construct + c.t_eig;
}

namespace {

template <typename F>
unsigned first_crossover(const QpeCosts& c, unsigned max_bits, F&& emu_cost) {
  for (unsigned b = 1; b <= max_bits; ++b)
    if (qpe_simulate_seconds(c, b) >= emu_cost(b)) return b;
  return max_bits + 1;
}

}  // namespace

unsigned crossover_bits_repeated_squaring(const QpeCosts& c, unsigned max_bits) {
  return first_crossover(c, max_bits,
                         [&](unsigned b) { return qpe_repeated_squaring_seconds(c, b); });
}

unsigned crossover_bits_eigendecomposition(const QpeCosts& c, unsigned max_bits) {
  return first_crossover(c, max_bits,
                         [&](unsigned b) { return qpe_eigendecomposition_seconds(c, b); });
}

double asymptotic_crossover_gemm(qubit_t n) { return 2.0 * static_cast<double>(n); }

double asymptotic_crossover_strassen(qubit_t n) {
  return (std::log2(7.0) - 1.0) * static_cast<double>(n);
}

double asymptotic_crossover_eig_coherent(qubit_t n) { return static_cast<double>(n); }

double t_state_pass_seconds(qubit_t n, const MachineParams& m, std::size_t amp_bytes) {
  const double size = std::ldexp(1.0, static_cast<int>(n));
  return 2.0 * static_cast<double>(amp_bytes) * size / (m.b_mem_gbs * 1e9);
}

double t_blocked_execution_seconds(qubit_t n, std::size_t passes, const MachineParams& m,
                                   std::size_t amp_bytes) {
  return static_cast<double>(passes) * t_state_pass_seconds(n, m, amp_bytes);
}

bool remap_profitable(std::size_t saved) {
  constexpr std::size_t kExchangePassCost = 2;
  return saved > kExchangePassCost;
}

double t_chunk_exchange_seconds(qubit_t local_qubits, const MachineParams& m,
                                std::size_t amp_bytes) {
  const double chunk = std::ldexp(1.0, static_cast<int>(local_qubits));
  return static_cast<double>(amp_bytes) * chunk / (m.b_net_gbs * 1e9);
}

std::uint64_t staging_bytes(qubit_t n, std::size_t amp_bytes) {
  return static_cast<std::uint64_t>(amp_bytes) << n;
}

double t_host_staging_seconds(qubit_t n, const MachineParams& m, std::size_t amp_bytes) {
  const double traffic = 2.0 * static_cast<double>(staging_bytes(n, amp_bytes));  // read + write
  return traffic / (m.b_mem_gbs * 1e9);
}

double t_checkpoint_seconds(qubit_t n, const MachineParams& m, std::size_t amp_bytes) {
  return t_host_staging_seconds(n, m, amp_bytes);
}

bool checkpoint_due(double replay_seconds, qubit_t n, const MachineParams& m,
                    double overhead_factor) {
  return replay_seconds > overhead_factor * t_checkpoint_seconds(n, m);
}

}  // namespace qc::models
