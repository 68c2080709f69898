#include "emu/qpe.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "circuit/builders.hpp"
#include "common/timer.hpp"
#include "fft/fft.hpp"
#include "sim/simulator.hpp"

namespace qc::emu {

using linalg::Matrix;

namespace {

/// Runs `c` gate by gate through the "hpc" kernels (the circuit is sized
/// to the state at every call site).
void run_hpc(sim::StateVector& sv, const circuit::Circuit& c) {
  for (const circuit::Gate& g : c.gates())
    sim::apply_gate_hpc<double>(sv.amplitudes(), sv.qubits(), g);
}

}  // namespace

Matrix build_unitary(const circuit::Circuit& c) {
  const qubit_t n = c.qubits();
  const index_t size = dim(n);
  // Column j = circuit applied to |j>. Write columns as contiguous rows
  // of U^T first (a strided column write costs a cache miss per
  // element), then blocked-transpose into U. Outer parallelism over
  // columns; the per-column kernels stay serial (nested OpenMP regions
  // do not spawn extra teams by default).
  Matrix ut(size, size);
#pragma omp parallel
  {
    sim::StateVector col(n);
#pragma omp for schedule(dynamic, 8)
    for (index_t j = 0; j < size; ++j) {
      col.set_basis(j);
      run_hpc(col, c);
      complex_t* row = &ut(j, 0);
      std::copy(col.amplitudes().begin(), col.amplitudes().end(), row);
    }
  }
  Matrix u(size, size);
  constexpr index_t kBlock = 32;  // 32x32 complex tiles fit L1
#pragma omp parallel for collapse(2) schedule(static) if (size >= 256)
  for (index_t i0 = 0; i0 < size; i0 += kBlock) {
    for (index_t j0 = 0; j0 < size; j0 += kBlock) {
      const index_t i1 = std::min(i0 + kBlock, size);
      const index_t j1 = std::min(j0 + kBlock, size);
      for (index_t i = i0; i < i1; ++i)
        for (index_t j = j0; j < j1; ++j) u(i, j) = ut(j, i);
    }
  }
  return u;
}

double qpe_outcome_probability(double theta, index_t m, unsigned bits) {
  const index_t size = index_t{1} << bits;
  const double delta = theta - 2.0 * std::numbers::pi * static_cast<double>(m) /
                                   static_cast<double>(size);
  // Wrap to (-pi, pi] to keep sin(delta/2) well conditioned.
  const double wrapped = std::remainder(delta, 2.0 * std::numbers::pi);
  const double half = 0.5 * wrapped;
  if (std::abs(half) < 1e-12) return 1.0;
  const double num = std::sin(static_cast<double>(size) * half);
  const double den = static_cast<double>(size) * std::sin(half);
  return (num * num) / (den * den);
}

namespace {

void finalize(QpeResult& r) {
  const auto it = std::max_element(r.distribution.begin(), r.distribution.end());
  r.most_likely = static_cast<index_t>(it - r.distribution.begin());
  r.phase_estimate = 2.0 * std::numbers::pi * static_cast<double>(r.most_likely) /
                     static_cast<double>(r.distribution.size());
}

QpeResult qpe_simulate(const circuit::Circuit& u_circuit, const sim::StateVector& input,
                       const QpeOptions& opt) {
  QpeResult res;
  res.strategy_used = "simulate-circuit";
  const qubit_t n = u_circuit.qubits();
  const unsigned b = opt.bits;
  const qubit_t total = n + static_cast<qubit_t>(b);
  WallTimer timer;

  // Joint register: system on qubits [0, n), ancillas on [n, n+b).
  sim::StateVector joint(total);
  {
    auto dst = joint.amplitudes();
    std::fill(dst.begin(), dst.end(), complex_t{});
    std::copy(input.amplitudes().begin(), input.amplitudes().end(), dst.begin());
  }
  circuit::Circuit hadamards(total);
  for (unsigned j = 0; j < b; ++j) hadamards.h(n + j);
  run_hpc(joint, hadamards);

  // Controlled U^(2^j): the controlled circuit applied 2^j times —
  // exactly the paper's accounting of 2^b - 1 total applications.
  const circuit::Circuit widened = u_circuit.widened(total);
  for (unsigned j = 0; j < b; ++j) {
    const circuit::Circuit controlled = widened.controlled(n + j);
    const index_t reps = index_t{1} << j;
    for (index_t r = 0; r < reps; ++r) run_hpc(joint, controlled);
  }

  // Inverse QFT on the ancilla block, then read the ancilla marginal.
  circuit::Circuit iqft(total);
  std::vector<qubit_t> map(b);
  for (unsigned j = 0; j < b; ++j) map[j] = n + j;
  iqft.compose_mapped(circuit::inverse_qft(static_cast<qubit_t>(b)), map);
  run_hpc(joint, iqft);

  res.seconds_simulate = timer.seconds();
  res.distribution = joint.register_distribution(n, static_cast<qubit_t>(b));
  finalize(res);
  return res;
}

QpeResult qpe_repeated_squaring(const circuit::Circuit& u_circuit,
                                const sim::StateVector& input, const QpeOptions& opt) {
  QpeResult res;
  res.strategy_used = opt.use_strassen ? "repeated-squaring(strassen)" : "repeated-squaring";
  const unsigned b = opt.bits;
  const index_t anc_size = index_t{1} << b;
  WallTimer timer;

  Matrix u = build_unitary(u_circuit);
  res.seconds_construct = timer.seconds();

  // Phase kickback per ancilla bit: lambda_j = <u|U^{2^j}|u>. The matrix
  // is squared b-1 times; each power costs one GEMM (the Table 2
  // T_zgemm row times b).
  timer.reset();
  const auto amps = input.amplitudes();
  std::vector<complex_t> lambdas(b);
  std::vector<complex_t> work(amps.size());
  for (unsigned j = 0; j < b; ++j) {
    u.matvec(amps, work);
    complex_t dot{};
    for (index_t i = 0; i < amps.size(); ++i) dot += std::conj(amps[i]) * work[i];
    lambdas[j] = dot;
    if (j + 1 < b) u = opt.use_strassen ? linalg::strassen(u, u) : linalg::gemm(u, u);
  }
  res.seconds_power = timer.seconds();

  // Ancilla state after kickback: amplitude of |e> is
  // 2^{-b/2} prod_{j: e_j = 1} lambda_j; inverse QFT yields the outcome
  // amplitudes (one 2^b-point FFT — microscopic next to the squarings).
  aligned_vector<complex_t> anc(anc_size);
  const double norm = 1.0 / std::sqrt(static_cast<double>(anc_size));
#pragma omp parallel for if (anc_size >= 4096)
  for (index_t e = 0; e < anc_size; ++e) {
    complex_t amp{norm, 0.0};
    for (unsigned j = 0; j < b; ++j)
      if (bits::test(e, j)) amp *= lambdas[j];
    anc[e] = amp;
  }
  fft::fft_inplace({anc.data(), anc.size()}, fft::Sign::Negative, fft::Norm::Unitary);
  res.distribution.resize(anc_size);
  for (index_t m = 0; m < anc_size; ++m) res.distribution[m] = std::norm(anc[m]);
  finalize(res);
  return res;
}

QpeResult qpe_eigendecomposition(const circuit::Circuit& u_circuit,
                                 const sim::StateVector& input, const QpeOptions& opt) {
  QpeResult res;
  res.strategy_used = "eigendecomposition";
  const unsigned b = opt.bits;
  const index_t anc_size = index_t{1} << b;
  const index_t size = input.size();
  WallTimer timer;

  Matrix u = build_unitary(u_circuit);
  res.seconds_construct = timer.seconds();

  timer.reset();
  const linalg::EigResult eig = linalg::eig(u, /*compute_vectors=*/true);
  res.seconds_eig = timer.seconds();

  // Project the input onto each eigenvector (unitary U => orthonormal
  // eigenbasis) and mix the exact outcome kernels.
  const auto amps = input.amplitudes();
  res.distribution.assign(anc_size, 0.0);
#pragma omp parallel
  {
    std::vector<double> local(anc_size, 0.0);
#pragma omp for schedule(static)
    for (index_t k = 0; k < size; ++k) {
      complex_t c{};
      for (index_t i = 0; i < size; ++i) c += std::conj(eig.vectors(i, k)) * amps[i];
      const double weight = std::norm(c);
      if (weight < 1e-14) continue;
      const double theta = std::arg(eig.values[k]);
      for (index_t m = 0; m < anc_size; ++m)
        local[m] += weight * qpe_outcome_probability(theta, m, b);
    }
#pragma omp critical
    for (index_t m = 0; m < anc_size; ++m) res.distribution[m] += local[m];
  }
  finalize(res);
  return res;
}

}  // namespace

IterativeQpeResult iterative_phase_estimation(const circuit::Circuit& u_circuit,
                                              const sim::StateVector& input, unsigned bits,
                                              Rng& rng) {
  if (u_circuit.qubits() != input.qubits())
    throw std::invalid_argument("iterative_phase_estimation: qubit mismatch");
  if (bits == 0 || bits > 62)
    throw std::invalid_argument("iterative_phase_estimation: bits out of range");
  IterativeQpeResult res;
  const qubit_t n = input.qubits();
  const qubit_t anc = n;  // single recycled ancilla on top
  WallTimer timer;

  sim::StateVector joint(n + 1);
  {
    auto dst = joint.amplitudes();
    std::fill(dst.begin(), dst.end(), complex_t{});
    std::copy(input.amplitudes().begin(), input.amplitudes().end(), dst.begin());
  }
  const circuit::Circuit controlled = u_circuit.widened(n + 1).controlled(anc);

  // Round r applies controlled-U^(2^{b-1-r}): the ancilla picks up the
  // phase e^{2 pi i (0.m_r m_{r-1} ... m_0)}, so it measures bit m_r
  // once the feedback rotation removes the already-known lower bits
  // m_0 .. m_{r-1} (Kitaev's semiclassical trick).
  index_t phase_bits = 0;
  for (unsigned r = 0; r < bits; ++r) {
    const unsigned j = bits - 1 - r;  // power of U this round
    circuit::Circuit open(n + 1);
    open.h(anc);
    double correction = 0;
    for (unsigned k = 0; k < r; ++k)
      if (bits::test(phase_bits, k))
        correction -= 2.0 * std::numbers::pi /
                      static_cast<double>(index_t{1} << (r - k + 1));
    if (correction != 0.0) open.phase(anc, correction);
    run_hpc(joint, open);

    const index_t reps = index_t{1} << j;
    for (index_t rep = 0; rep < reps; ++rep) run_hpc(joint, controlled);

    circuit::Circuit close(n + 1);
    close.h(anc);
    run_hpc(joint, close);
    const int bit = joint.measure_and_collapse(anc, rng);
    if (bit) {
      phase_bits = bits::set(phase_bits, r);
      // Reset the recycled ancilla to |0> for the next round.
      circuit::Circuit reset(n + 1);
      reset.x(anc);
      run_hpc(joint, reset);
    }
  }
  res.outcome = phase_bits;
  res.phase_estimate = 2.0 * std::numbers::pi * static_cast<double>(phase_bits) /
                       static_cast<double>(index_t{1} << bits);
  res.seconds_simulate = timer.seconds();
  return res;
}

models::QpeCosts measure_qpe_costs(const circuit::Circuit& u_circuit) {
  models::QpeCosts costs;
  const qubit_t n = u_circuit.qubits();
  {
    sim::StateVector sv(n);
    Rng rng(n);
    sv.randomize(rng);
    costs.t_apply_u = time_per_rep([&] { run_hpc(sv, u_circuit); }, 0.2, 200);
  }
  Matrix u(1, 1);
  costs.t_construct = time_once([&] { u = build_unitary(u_circuit); });
  costs.t_gemm = time_once([&] {
    const Matrix sq = linalg::gemm(u, u);
    (void)sq;
  });
  costs.t_eig = time_once([&] {
    const auto e = linalg::eig(u);
    (void)e;
  });
  return costs;
}

models::QpeCosts scale_qpe_costs(const models::QpeCosts& costs, qubit_t n_from,
                                 qubit_t n_to, std::size_t g_from, std::size_t g_to) {
  if (n_to < n_from) throw std::invalid_argument("scale_qpe_costs: cannot scale down");
  const double size_ratio = std::ldexp(1.0, static_cast<int>(n_to - n_from));
  const double g_ratio = static_cast<double>(g_to) / static_cast<double>(g_from);
  models::QpeCosts r;
  r.t_apply_u = costs.t_apply_u * size_ratio * g_ratio;
  r.t_construct = costs.t_construct * size_ratio * size_ratio * g_ratio;
  r.t_gemm = costs.t_gemm * size_ratio * size_ratio * size_ratio;
  r.t_eig = costs.t_eig * size_ratio * size_ratio * size_ratio;
  return r;
}

QpeStrategy choose_qpe_strategy(const models::QpeCosts& costs, unsigned bits) {
  const double t_sim = models::qpe_simulate_seconds(costs, bits);
  const double t_rs = models::qpe_repeated_squaring_seconds(costs, bits);
  const double t_eig = models::qpe_eigendecomposition_seconds(costs, bits);
  if (t_sim <= t_rs && t_sim <= t_eig) return QpeStrategy::SimulateCircuit;
  if (t_rs <= t_eig) return QpeStrategy::RepeatedSquaring;
  return QpeStrategy::Eigendecomposition;
}

QpeResult phase_estimation(const circuit::Circuit& u_circuit, const sim::StateVector& input,
                           const QpeOptions& options) {
  if (u_circuit.qubits() != input.qubits())
    throw std::invalid_argument("phase_estimation: circuit/state qubit mismatch");
  if (options.bits == 0 || options.bits > 30)
    throw std::invalid_argument("phase_estimation: bits out of range");
  switch (options.strategy) {
    case QpeStrategy::SimulateCircuit:
      return qpe_simulate(u_circuit, input, options);
    case QpeStrategy::RepeatedSquaring:
      return qpe_repeated_squaring(u_circuit, input, options);
    case QpeStrategy::Eigendecomposition:
      return qpe_eigendecomposition(u_circuit, input, options);
  }
  throw std::logic_error("phase_estimation: unknown strategy");
}

}  // namespace qc::emu
