// Distributed state vector over the cluster substrate.
//
// The wave function of n qubits is split over P = 2^k ranks; rank r owns
// the contiguous chunk of 2^{n-k} amplitudes whose top k bits equal r —
// i.e. the top k qubits are "global" (distributed), the rest local.
// Gates on local qubits never communicate. Gates on global qubits
// normally require exchanging the local chunk with a partner rank
// (the 16N/Bnet term of the paper's Eq. 6); the Specialized policy
// ("our simulator") skips that exchange for diagonal gates and for
// unsatisfied global controls — the structural advantage the paper
// credits for Fig. 4's growing lead over qHiPSTER.
//
// Every rank data motion here (the per-gate exchange, the rank-level
// swap round) runs on Comm's expose/fence/pull: each rank exposes its
// chunk, pulls what it receives from its peers' chunks into its own
// scratch — combining or gathering on the way — and adopts the scratch
// as its chunk after the second fence. No chunk changes before that
// swap, so a motion that aborts leaves every chunk as it was.
//
// Templated on the amplitude scalar T: under fp32 every chunk exchange
// moves sizeof(std::complex<float>) = 8 bytes per amplitude — exactly
// half the wire traffic of fp64 on the same plan (the engine's byte
// accounting and the obs model report tie this out).
#pragma once

#include <array>
#include <span>
#include <vector>

#include "circuit/circuit.hpp"
#include "cluster/cluster.hpp"
#include "sim/kernels.hpp"
#include "sim/state_vector.hpp"

namespace qc::sim {

/// Communication policy for global-qubit gates.
enum class CommPolicy {
  Specialized,  ///< Ours: diagonal global gates apply locally; global
                ///< controls filter ranks; exchange only when unavoidable.
  Exchange,     ///< qHiPSTER-like: every global-target gate performs the
                ///< pairwise chunk exchange, diagonal or not.
};

template <typename T>
class BasicDistStateVector {
 public:
  using value_type = basic_complex_t<T>;

  /// Collective: every rank of `comm` constructs its share of an n-qubit
  /// |0...0>. comm.size() must be a power of two, <= 2^n.
  BasicDistStateVector(cluster::Comm& comm, qubit_t n_qubits);

  [[nodiscard]] qubit_t qubits() const noexcept { return n_; }
  [[nodiscard]] qubit_t local_qubits() const noexcept { return nl_; }
  [[nodiscard]] qubit_t global_qubits() const noexcept { return n_ - nl_; }
  [[nodiscard]] std::span<value_type> local() noexcept { return {local_.data(), local_.size()}; }
  [[nodiscard]] std::span<const value_type> local() const noexcept {
    return {local_.data(), local_.size()};
  }
  [[nodiscard]] cluster::Comm& comm() const noexcept { return *comm_; }

  /// Collective: resets to basis state |i> (global index).
  void set_basis(index_t i);

  /// Collective: deterministic random state (same result for any P,
  /// given the same seed and n — tested against the serial StateVector).
  void randomize(std::uint64_t seed);

  /// Collective reductions.
  [[nodiscard]] double norm_sq() const;
  [[nodiscard]] double max_abs_diff(const BasicDistStateVector& other) const;
  [[nodiscard]] double probability_of_one(qubit_t q) const;

  /// Collective: applies one gate under the given policy.
  void apply_gate(const circuit::Gate& g, CommPolicy policy);

  /// Collective: applies a circuit gate by gate.
  void run(const circuit::Circuit& c, CommPolicy policy);

  /// Collective: applies a set of disjoint qubit transpositions in one
  /// pass — the cluster-level analogue of kernels::apply_qubit_swaps.
  /// Pairs with both qubits local permute each chunk in place with zero
  /// communication; pairs that cross the local/global boundary (and
  /// global-global pairs) are realized as ONE chunk permutation: the
  /// chunk splits into 2^k sub-blocks keyed by the k exchanged local
  /// bits, and each rank pulls every sub-block it receives from its
  /// source rank straight into its final slot (sizeof(value_type)
  /// bytes/amplitude over the wire, the Eq. 6 exchange term paid once
  /// for the whole swap set).
  /// This is the global<->local exchange pass the distributed scheduler
  /// amortizes across a sweep of global-qubit gates.
  void apply_qubit_swaps(std::span<const std::array<qubit_t, 2>> pairs);

  // --- collective measurement surface (paper §3.4 at cluster scale) ----

  /// Collective: marginal distribution of the `width`-bit register at
  /// `offset` (which may straddle the local/global boundary). Every rank
  /// returns the identical full 2^width vector.
  [[nodiscard]] std::vector<double> register_distribution(qubit_t offset, qubit_t width) const;

  /// Collective: marginal distribution over an *arbitrary* set of
  /// physical qubit positions — bit j of each outcome index reads
  /// physical qubit `qubits[j]`. This is how a caller holding a live
  /// logical->physical permutation (the resident dist backend) measures
  /// a logical register without first restoring physical qubit order.
  [[nodiscard]] std::vector<double> register_distribution(
      std::span<const qubit_t> qubits) const;

  /// Collective: collapses qubit q to `outcome` (0/1) and renormalizes.
  /// Throws if the outcome has probability ~0 (on every rank alike).
  void collapse(qubit_t q, int outcome);

  /// Collective: gathers the full state on every rank (test helper;
  /// only sensible for small n).
  [[nodiscard]] BasicStateVector<T> gather_all() const;

  /// Bytes exchanged by this rank since construction (for the
  /// communication-volume assertions and the Fig. 4 analysis). Counts
  /// sizeof(value_type) per amplitude, so fp32 runs report half the
  /// fp64 volume on the same plan.
  [[nodiscard]] std::uint64_t bytes_communicated() const noexcept { return bytes_comm_; }

  /// The counter behind bytes_communicated(), for collective passes that
  /// run outside this class (emu::BasicDistEmulator's transposes and
  /// routing): each adds the bytes it sent once its exchange completed.
  [[nodiscard]] std::uint64_t& bytes_counter() noexcept { return bytes_comm_; }

  /// This rank's chunk-sized scratch: the motions here and
  /// emu::BasicDistEmulator's FFT and routing pull into it. Allocated
  /// with the chunk, and again on first use after release_scratch().
  /// Its contents are undefined between calls.
  [[nodiscard]] std::span<value_type> scratch();

  /// Adopts the scratch as the chunk and the chunk as the scratch, in
  /// O(1): how a pulled motion lands, after its second fence.
  void swap_scratch() noexcept { local_.swap(scratch_); }

  /// One amplitude addressed to a global basis index: what a routed
  /// permutation sends (emu::BasicDistEmulator).
  struct Parcel {
    index_t index;
    value_type amplitude;
  };

  /// Parcels this rank may expose beside its chunk. Owned by the state,
  /// not by a job: when this rank's job aborts, a peer may still read
  /// what it exposed until that peer reaches its next fence.
  [[nodiscard]] uninit_aligned_vector<Parcel>& outbox() noexcept { return outbox_; }

  /// Frees the scratch and the outbox, e.g. before a gather that needs
  /// only the chunk.
  void release_scratch() noexcept {
    aligned_vector<value_type>().swap(scratch_);
    uninit_aligned_vector<Parcel>().swap(outbox_);
  }

 private:
  /// `participate` is false on a rank whose global controls leave its
  /// chunk alone: it joins the fences and nothing else.
  void exchange_and_combine(qubit_t rank_bit, const kernels::U2T<T>& u, index_t local_cmask,
                            bool participate);

  cluster::Comm* comm_;
  qubit_t n_;
  qubit_t nl_;
  aligned_vector<value_type> local_;
  aligned_vector<value_type> scratch_;
  uninit_aligned_vector<Parcel> outbox_;
  std::uint64_t bytes_comm_ = 0;
};

/// Double-precision alias — the default across the non-templated API.
using DistStateVector = BasicDistStateVector<double>;

}  // namespace qc::sim
