// The n-qubit wave function: 2^n complex amplitudes (paper §2, Eq. 1).
//
// BasicStateVector<T> owns the aligned amplitude array and provides the
// state-level operations every simulator and the emulator share:
// initialization, normalization, probabilities, measurement (sampling and
// collapse), overlap, and register readout. T is the real amplitude
// scalar (double by default; float halves the memory footprint and the
// bytes every kernel sweep moves — one extra qubit per node at equal
// memory). Reductions (norms, probabilities, distributions) accumulate
// in double for either precision. Gate application lives in kernels.hpp
// and simulator.hpp; classical-function shortcuts in qc::emu.
#pragma once

#include <span>
#include <stdexcept>
#include <vector>

#include "common/aligned.hpp"
#include "common/bits.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace qc::sim {

template <typename T>
class BasicStateVector {
 public:
  using value_type = basic_complex_t<T>;

  /// The basis state |basis> on n qubits (|0...0> by default), written
  /// in one pass. Allocates 2^n amplitudes (sizeof(value_type) bytes
  /// each: 16 at fp64, 8 at fp32). Throws std::invalid_argument when
  /// basis >= 2^n.
  explicit BasicStateVector(qubit_t n_qubits, index_t basis = 0);

  [[nodiscard]] qubit_t qubits() const noexcept { return n_; }
  [[nodiscard]] index_t size() const noexcept { return dim(n_); }

  [[nodiscard]] std::span<value_type> amplitudes() noexcept {
    return {data_.data(), data_.size()};
  }
  [[nodiscard]] std::span<const value_type> amplitudes() const noexcept {
    return {data_.data(), data_.size()};
  }
  value_type& operator[](index_t i) noexcept { return data_[i]; }
  const value_type& operator[](index_t i) const noexcept { return data_[i]; }

  /// Resets to the computational basis state |i>.
  void set_basis(index_t i);

  /// Fills with i.i.d. complex Gaussians and normalizes — a random state
  /// (deterministic from rng), used as generic test/bench input.
  void randomize(Rng& rng);

  /// Partition-independent random state: same result as a
  /// DistStateVector randomized with the same seed on any rank count —
  /// and, because draws are generated in double and narrowed, the same
  /// state (up to rounding) at either precision.
  void randomize_deterministic(std::uint64_t seed);

  /// Sum of |amplitude|^2 (should be 1 for a valid state).
  [[nodiscard]] double norm_sq() const;

  /// Rescales so norm_sq() == 1. Throws if the state is all-zero.
  void normalize();

  /// |<this|other>|.
  [[nodiscard]] double overlap_abs(const BasicStateVector& other) const;

  /// max_i |this_i - other_i| — the equality metric in tests.
  [[nodiscard]] double max_abs_diff(const BasicStateVector& other) const;

  /// Probability of measuring qubit q as 1.
  [[nodiscard]] double probability_of_one(qubit_t q) const;

  /// Probability distribution over the `width`-bit register starting at
  /// qubit `offset` (marginal over all other qubits) — the emulator's
  /// "full distribution in one step" measurement shortcut (§3.4).
  [[nodiscard]] std::vector<double> register_distribution(qubit_t offset, qubit_t width) const;

  /// Samples a full-register measurement outcome (does not collapse).
  [[nodiscard]] index_t sample(Rng& rng) const;

  /// Measures qubit q: samples an outcome, collapses and renormalizes.
  int measure_and_collapse(qubit_t q, Rng& rng);

  /// Collapses qubit q to `outcome` (0/1) and renormalizes. Throws if the
  /// outcome has probability ~0.
  void collapse(qubit_t q, int outcome);

  /// Precision-converting copy (fp64 <-> fp32): how an fp32 backend
  /// hands back its final state, and "auto" widens the state for an
  /// emulated op.
  template <typename U>
  [[nodiscard]] BasicStateVector<U> cast() const {
    BasicStateVector<U> out(n_);
    out.convert_from(*this);
    return out;
  }

  /// Overwrites every amplitude with src's, converted to T, in one pass:
  /// how "auto" narrows back in place after an fp32 emulated op. Throws
  /// std::invalid_argument when the qubit counts differ.
  template <typename U>
  void convert_from(const BasicStateVector<U>& src) {
    if (src.qubits() != n_) throw std::invalid_argument("convert_from: qubit counts differ");
    const auto from = src.amplitudes();
    const index_t count = size();
#pragma omp parallel for schedule(static) if (worth_parallelizing(count))
    for (index_t i = 0; i < count; ++i) data_[i] = static_cast<value_type>(from[i]);
  }

 private:
  /// Parallel zero fill with the kernels' static schedule, so page first
  /// touch (NUMA placement) matches the threads that later sweep them.
  void zero_fill();

  qubit_t n_;
  uninit_aligned_vector<value_type> data_;
};

/// Double-precision alias — the default across the non-templated API.
using StateVector = BasicStateVector<double>;

/// Fills `data` — a window [global_offset, global_offset + data.size())
/// of a larger conceptual array — with deterministic complex Gaussians
/// generated in fixed 2^16-element slabs keyed off `seed`. The values at
/// a given global position do not depend on how the array is partitioned,
/// which lets distributed and serial states be seeded identically; draws
/// are generated in double and narrowed so fp32 and fp64 fills agree up
/// to rounding.
template <typename T>
void fill_random_slabs(std::span<basic_complex_t<T>> data, index_t global_offset,
                       std::uint64_t seed);

}  // namespace qc::sim
