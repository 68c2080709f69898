// Analytic performance models from the paper's §3.2 / §3.3.
//
// The paper models distributed FFT (emulated QFT) and gate-level QFT
// simulation on a cluster:
//
//   Eq. 5:  T_FFT(n) = 5 N n / (Eff_FFT * FLOPS_peak) + 3 * 16 N / B_net
//   Eq. 6:  T_QFT(n) = 4 N n^2 / B_mem + log2(P) * 16 N / B_net
//
// with N = 2^n, all bandwidth/flops quantities *aggregate* over the
// P-node partition. These models generate the paper-scale (28-36 qubit,
// up to 256 node) weak-scaling series for Figs. 3 & 4 that exceed this
// machine's memory, clearly labelled "modeled" next to the measured
// scaled-down runs. The same module provides the §3.3 QPE cost models
// and the crossover-precision solvers behind Table 2's lower panel.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace qc::models {

/// Single-node machine characteristics. Aggregate quantities scale
/// linearly with node count in the weak-scaling models.
struct MachineParams {
  double fft_gflops = 20.0;   ///< Achieved node-local FFT rate (Eff*peak), GF/s.
  double b_mem_gbs = 40.0;    ///< Memory bandwidth per node, GB/s.
  double b_net_gbs = 7.0;     ///< Injection bandwidth per node, GB/s (FDR 56 Gb/s).
  double mem_per_node_gb = 32.0;

  /// The Stampede node of the paper's §4.1 (values quoted in §4.3).
  static MachineParams stampede() { return MachineParams{}; }

  /// Parameters calibrated from this machine's measured rates (used to
  /// sanity-check the models against local measurements).
  static MachineParams local(double fft_gflops, double b_mem_gbs, double b_net_gbs);
};

/// Eq. 5: seconds for a distributed FFT of 2^n points on `nodes` nodes.
double t_fft_seconds(qubit_t n, int nodes, const MachineParams& m);

/// Eq. 6: seconds for a gate-level distributed QFT of n qubits.
double t_qft_seconds(qubit_t n, int nodes, const MachineParams& m);

/// One weak-scaling row of Fig. 3: qubits, nodes, both times, speedup.
struct WeakScalingPoint {
  qubit_t qubits = 0;
  int nodes = 1;
  double t_simulate = 0;
  double t_emulate = 0;
  [[nodiscard]] double speedup() const { return t_simulate / t_emulate; }
};

/// The paper's Fig. 3 series: local_qubits per node, scaling n over
/// [n_min, n_max] with nodes = 2^(n - n_min).
std::vector<WeakScalingPoint> fig3_series(qubit_t n_min, qubit_t n_max,
                                          const MachineParams& m);

// --- §3.3 QPE cost models ----------------------------------------------

/// Costs of one n-qubit QPE to b bits, expressed through measured
/// primitive times (the paper's Table 2 columns).
struct QpeCosts {
  double t_apply_u = 0;     ///< One gate-level application of U (2^n state).
  double t_construct = 0;   ///< Dense-U construction.
  double t_gemm = 0;        ///< One dense-U squaring.
  double t_eig = 0;         ///< One eigendecomposition.
};

/// Total simulation time: U applied 2^b - 1 times.
double qpe_simulate_seconds(const QpeCosts& c, unsigned bits);

/// Total repeated-squaring emulation time: construct + b squarings.
double qpe_repeated_squaring_seconds(const QpeCosts& c, unsigned bits);

/// Total eigendecomposition emulation time: construct + one eig.
double qpe_eigendecomposition_seconds(const QpeCosts& c, unsigned bits);

/// Smallest b (bits of precision) at which an emulation strategy beats
/// simulation — the paper's Table 2 lower panel. Returns 0 if emulation
/// already wins at b = 1; `max_bits` caps the search.
unsigned crossover_bits_repeated_squaring(const QpeCosts& c, unsigned max_bits = 64);
unsigned crossover_bits_eigendecomposition(const QpeCosts& c, unsigned max_bits = 64);

/// Asymptotic crossover rules quoted in §3.3 (b >= 2n for GEMM,
/// b > (log2 7 - 1) n ~ 1.8n for Strassen, b > n for coherent QPE with
/// eigendecomposition) — used by the Auto strategy heuristic.
double asymptotic_crossover_gemm(qubit_t n);
double asymptotic_crossover_strassen(qubit_t n);
double asymptotic_crossover_eig_coherent(qubit_t n);

// --- §4 locality cost model (sched/schedule, cache level) --------------
//
// The §3.2/§4 bandwidth argument at the cache level: every op executed
// un-blocked pays one full read+write memory pass over the state vector
// (the 4N·16/B_mem term of Eq. 6 with the gate count set to 1), while a
// cache-blocked *sweep* pays a single pass for all of its chunk-local
// ops together. An op on a qubit above the chunk runs as one such
// un-blocked pass; the cache level never relocates qubits.

/// Seconds for one full read+write memory pass over a 2^n state vector
/// (2 * amp_bytes of DRAM traffic per amplitude; 32 at fp64, 16 at
/// fp32) — the unit cost the cache-blocked scheduler trades in.
double t_state_pass_seconds(qubit_t n, const MachineParams& m,
                            std::size_t amp_bytes = sizeof(complex_t));

/// Predicted seconds for a blocked execution: `passes` full-vector
/// passes (sweeps + un-blocked ops), bandwidth-bound.
double t_blocked_execution_seconds(qubit_t n, std::size_t passes, const MachineParams& m,
                                   std::size_t amp_bytes = sizeof(complex_t));

// --- Eq. 6 communication term (distributed scheduler, sched/dist) ------
//
// Eq. 6 charges every gate on a distributed ("global") qubit one
// pairwise exchange of the rank's whole local chunk: 16 bytes per local
// amplitude across the network, the 16N/B_net term. A global<->local
// qubit exchange pass (one all-to-all chunk permutation) moves the same
// ~16 bytes per amplitude ONCE and then lets an entire run of
// global-qubit gates execute rank-locally (sched/locality).

/// Seconds for one pairwise exchange of a rank's full 2^local_qubits
/// chunk (the 16N/B_net term of Eq. 6, N = the chunk's amplitudes).
/// amp_bytes generalizes the paper's 16-byte fp64 amplitude: an fp32
/// state moves 8 bytes per amplitude, halving the exchange term.
double t_chunk_exchange_seconds(qubit_t local_qubits, const MachineParams& m,
                                std::size_t amp_bytes = sizeof(complex_t));

/// The rank-level remap decision rule: an exchange pass costs ~2 chunk
/// exchanges — the permutation now plus its share of the eventual
/// restore — and pays off when the per-gate exchanges it `saved`
/// strictly exceed that, so 3 avoided exchanges is the first count
/// that pays.
bool remap_profitable(std::size_t saved);

// --- ranks->host staging term (resident sessions, engine/backend) -----
//
// The dist backend builds its chunks in place at begin() and stages the
// state into a host vector once, at take_state() (the gather). One
// staging copies every amplitude once — 16 bytes each at fp64 — through
// host memory; the trace's "[finalize]" row reports those bytes and the
// gather span carries this term as its prediction.

/// Bytes one host<->ranks staging of a 2^n state moves (amp_bytes per
/// amplitude: each stored complex copied exactly once; 16 at fp64, 8
/// at fp32).
std::uint64_t staging_bytes(qubit_t n, std::size_t amp_bytes = sizeof(complex_t));

/// Seconds for one staging of a 2^n state. The copy is host-local, so it
/// is charged to memory bandwidth (read + write: 2 * amp_bytes of
/// traffic per amplitude), not the network.
double t_host_staging_seconds(qubit_t n, const MachineParams& m,
                              std::size_t amp_bytes = sizeof(complex_t));

// --- checkpoint policy (failure domain, engine/backend) ----------------
//
// A segment-boundary checkpoint copies every rank's chunk into host
// buffers — one staging's worth of memory traffic — and caps what a
// retryable fault costs at "replay the segments since the checkpoint".
// The auto policy trades those two quantities: checkpoint when the
// predicted replay cost of the uncheckpointed segment log has grown
// past a small multiple of the checkpoint's own cost. With cheap
// segments the log runs long (faults are cheap to replay anyway); with
// expensive segments checkpoints come often (each fault would replay a
// lot).

/// Seconds one checkpoint costs: a host staging of the full 2^n state
/// (every rank's chunk copied once through host memory).
double t_checkpoint_seconds(qubit_t n, const MachineParams& m,
                            std::size_t amp_bytes = sizeof(complex_t));

/// Auto checkpoint decision: true when `replay_seconds` — the predicted
/// cost of re-running everything since the last checkpoint — exceeds
/// `overhead_factor` checkpoints of a 2^n state.
bool checkpoint_due(double replay_seconds, qubit_t n, const MachineParams& m,
                    double overhead_factor = 4.0);

}  // namespace qc::models
