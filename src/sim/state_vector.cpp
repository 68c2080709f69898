#include "sim/state_vector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/sampling.hpp"

namespace qc::sim {

template <typename T>
BasicStateVector<T>::BasicStateVector(qubit_t n_qubits, index_t basis)
    : n_(n_qubits), data_(dim(n_qubits)) {
  // data_ is allocated uninitialized (UninitAlignedAllocator); the
  // parallel first-touch fill in set_basis places each page on the NUMA
  // node of the thread that will sweep it in the kernels — a serial zero
  // fill would land every page on one node and make all kernels pay
  // remote-memory latency on multi-socket boxes.
  set_basis(basis);
}

template <typename T>
void BasicStateVector<T>::zero_fill() {
  const index_t count = size();
#pragma omp parallel for schedule(static) if (worth_parallelizing(count))
  for (index_t i = 0; i < count; ++i) data_[i] = value_type{};
}

template <typename T>
void BasicStateVector<T>::set_basis(index_t i) {
  if (i >= size()) throw std::invalid_argument("set_basis: index out of range");
  zero_fill();
  data_[i] = value_type{T{1}};
}

template <typename T>
void BasicStateVector<T>::randomize(Rng& rng) {
  // Per-thread forked streams keep the fill deterministic regardless of
  // the thread count: thread t owns a contiguous slab and its own stream.
  const index_t n = size();
  const int threads = max_threads();
  const index_t slab = (n + threads - 1) / threads;
#pragma omp parallel num_threads(threads)
  {
    const int t = thread_id();
    Rng local = rng.fork(static_cast<std::uint64_t>(t));
    const index_t lo = std::min<index_t>(static_cast<index_t>(t) * slab, n);
    const index_t hi = std::min<index_t>(lo + slab, n);
    for (index_t i = lo; i < hi; ++i)
      data_[i] = static_cast<value_type>(local.normal_complex());
  }
  normalize();
}

template <typename T>
void BasicStateVector<T>::randomize_deterministic(std::uint64_t seed) {
  fill_random_slabs<T>(amplitudes(), 0, seed);
  normalize();
}

template <typename T>
double BasicStateVector<T>::norm_sq() const {
  return ordered_sum(size(), [this](index_t i) {
    const double re = data_[i].real(), im = data_[i].imag();
    return re * re + im * im;
  });
}

template <typename T>
void BasicStateVector<T>::normalize() {
  const double n2 = norm_sq();
  if (n2 <= 0) throw std::runtime_error("normalize: zero state");
  const T f = static_cast<T>(1.0 / std::sqrt(n2));
#pragma omp parallel for if (worth_parallelizing(size()))
  for (index_t i = 0; i < size(); ++i) data_[i] *= f;
}

template <typename T>
double BasicStateVector<T>::overlap_abs(const BasicStateVector& other) const {
  if (other.n_ != n_) throw std::invalid_argument("overlap: qubit count mismatch");
  double re = 0, im = 0;
#pragma omp parallel for reduction(+ : re, im) if (worth_parallelizing(size()))
  for (index_t i = 0; i < size(); ++i) {
    const double ar = data_[i].real(), ai = data_[i].imag();
    const double br = other.data_[i].real(), bi = other.data_[i].imag();
    re += ar * br + ai * bi;
    im += ar * bi - ai * br;
  }
  return std::hypot(re, im);
}

template <typename T>
double BasicStateVector<T>::max_abs_diff(const BasicStateVector& other) const {
  if (other.n_ != n_) throw std::invalid_argument("max_abs_diff: qubit count mismatch");
  double m = 0;
#pragma omp parallel for reduction(max : m) if (worth_parallelizing(size()))
  for (index_t i = 0; i < size(); ++i)
    m = std::max(m, std::abs(static_cast<complex_t>(data_[i]) -
                             static_cast<complex_t>(other.data_[i])));
  return m;
}

template <typename T>
double BasicStateVector<T>::probability_of_one(qubit_t q) const {
  if (q >= n_) throw std::invalid_argument("probability_of_one: bad qubit");
  double sum = 0;
#pragma omp parallel for reduction(+ : sum) if (worth_parallelizing(size()))
  for (index_t i = 0; i < size(); ++i)
    if (bits::test(i, q)) {
      const double re = data_[i].real(), im = data_[i].imag();
      sum += re * re + im * im;
    }
  return sum;
}

template <typename T>
std::vector<double> BasicStateVector<T>::register_distribution(qubit_t offset,
                                                               qubit_t width) const {
  if (offset + width > n_) throw std::invalid_argument("register_distribution: bad register");
  std::vector<double> dist(dim(width), 0.0);
  const int threads = max_threads();
  // Per-thread histograms avoid contention; width is small in practice.
  std::vector<std::vector<double>> partial(static_cast<std::size_t>(threads),
                                           std::vector<double>(dist.size(), 0.0));
#pragma omp parallel num_threads(threads)
  {
    auto& mine = partial[static_cast<std::size_t>(thread_id())];
#pragma omp for
    for (index_t i = 0; i < size(); ++i) {
      const double re = data_[i].real(), im = data_[i].imag();
      mine[bits::field(i, offset, width)] += re * re + im * im;
    }
  }
  for (const auto& p : partial)
    for (std::size_t k = 0; k < dist.size(); ++k) dist[k] += p[k];
  return dist;
}

template <typename T>
index_t BasicStateVector<T>::sample(Rng& rng) const {
  // Inverse-CDF sampling over the amplitude array through the shared
  // sampler; O(2^n) once (parallel prefix sum), still exponentially
  // cheaper than re-running the circuit per shot. The shared fallback
  // also fixes the old edge case where floating-point leftover past the
  // final cumulative returned size() - 1 even when that amplitude was
  // zero — a zero-probability outcome.
  return SampleCdf::from_amplitudes<T>(amplitudes()).sample(rng);
}

template <typename T>
int BasicStateVector<T>::measure_and_collapse(qubit_t q, Rng& rng) {
  const double p1 = probability_of_one(q);
  const int outcome = rng.uniform() < p1 ? 1 : 0;
  collapse(q, outcome);
  return outcome;
}

template <typename T>
void BasicStateVector<T>::collapse(qubit_t q, int outcome) {
  if (q >= n_) throw std::invalid_argument("collapse: bad qubit");
  const double p1 = probability_of_one(q);
  const double p = outcome == 1 ? p1 : 1.0 - p1;
  if (p < 1e-300) throw std::runtime_error("collapse: zero-probability outcome");
  const T f = static_cast<T>(1.0 / std::sqrt(p));
  const bool keep_one = outcome == 1;
#pragma omp parallel for if (worth_parallelizing(size()))
  for (index_t i = 0; i < size(); ++i) {
    if (bits::test(i, q) == keep_one) {
      data_[i] *= f;
    } else {
      data_[i] = value_type{};
    }
  }
}

template class BasicStateVector<float>;
template class BasicStateVector<double>;

template <typename T>
void fill_random_slabs(std::span<basic_complex_t<T>> data, index_t global_offset,
                       std::uint64_t seed) {
  constexpr index_t kSlab = index_t{1} << 16;
  const index_t lo = global_offset;
  const index_t hi = global_offset + data.size();
  const index_t first_slab = lo / kSlab;
  const index_t last_slab = (hi + kSlab - 1) / kSlab;
  const Rng base(seed);
#pragma omp parallel for schedule(static) if (last_slab - first_slab > 1)
  for (index_t s = first_slab; s < last_slab; ++s) {
    Rng rng = base.fork(s);
    const index_t slab_lo = s * kSlab;
    const index_t begin = std::max(slab_lo, lo);
    const index_t end = std::min(slab_lo + kSlab, hi);
    // Burn draws preceding our window so values depend only on global
    // position. Each normal_complex consumes a fixed number of draws
    // only if Box-Muller caching is avoided; regenerate pairwise instead.
    // Draws stay double; the narrowing (if any) happens on store.
    for (index_t g = slab_lo; g < end; ++g) {
      const complex_t v = {rng.normal(), rng.normal()};
      if (g >= begin) data[g - global_offset] = static_cast<basic_complex_t<T>>(v);
    }
  }
}

template void fill_random_slabs<float>(std::span<basic_complex_t<float>>, index_t,
                                       std::uint64_t);
template void fill_random_slabs<double>(std::span<basic_complex_t<double>>, index_t,
                                        std::uint64_t);

}  // namespace qc::sim
