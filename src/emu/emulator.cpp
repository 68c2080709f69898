#include "emu/emulator.hpp"

#include <atomic>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/parallel.hpp"
#include "emu/index_maps.hpp"

namespace qc::emu {

void check_regs(std::initializer_list<RegRef> regs, qubit_t n) {
  index_t seen = 0;
  for (const RegRef& r : regs) {
    if (r.width == 0 || r.width > n || r.offset > n - r.width)
      throw std::invalid_argument("check_regs: register out of range");
    const index_t mask = bits::low_mask(r.width) << r.offset;
    if (seen & mask) throw std::invalid_argument("check_regs: registers overlap");
    seen |= mask;
  }
}

void Emulator::ensure_scratch() {
  // Left uninitialized: every user writes an element before reading it.
  if (scratch_.size() != sv_->size()) scratch_ = uninit_aligned_vector<complex_t>(sv_->size());
}

void Emulator::apply_permutation(const std::function<index_t(index_t)>& f) { permute(f); }

void Emulator::apply_partial_map(const std::function<index_t(index_t)>& f) {
  ensure_scratch();
  const auto a = sv_->amplitudes();
  const index_t size = a.size();
#pragma omp parallel for if (worth_parallelizing(size))
  for (index_t i = 0; i < size; ++i) scratch_[i] = complex_t{};
  // Scatter only the support. A collision means two nonzero amplitudes
  // target the same index — the map is not injective where it matters.
  // Each destination is claimed by one atomic fetch_or on a bitmap, so
  // two sources in different threads' ranges cannot both find it free.
  std::vector<std::uint64_t> claimed((size + 63) / 64);
  std::atomic<bool> collision{false};
#pragma omp parallel for if (worth_parallelizing(size))
  for (index_t i = 0; i < size; ++i) {
    if (a[i] == complex_t{}) continue;
    const index_t j = f(i);
    const std::uint64_t bit = std::uint64_t{1} << (j % 64);
    if (std::atomic_ref<std::uint64_t>(claimed[j / 64]).fetch_or(bit, std::memory_order_relaxed) &
        bit) {
      collision.store(true, std::memory_order_relaxed);
      continue;
    }
    scratch_[j] = a[i];
  }
  if (collision.load()) throw std::logic_error("apply_partial_map: non-injective on support");
#pragma omp parallel for if (worth_parallelizing(size))
  for (index_t i = 0; i < size; ++i) a[i] = scratch_[i];
}

void Emulator::multiply(RegRef a, RegRef b, RegRef c) {
  permute(multiply_map(a, b, c, sv_->qubits()));
}

void Emulator::divide(RegRef a, RegRef b, RegRef c) {
  apply_partial_map(divide_map(a, b, c, sv_->qubits()));
}

void Emulator::add(RegRef a, RegRef b) { permute(add_map(a, b, sv_->qubits())); }

void Emulator::add_constant(RegRef r, index_t k) {
  permute(add_constant_map(r, k, sv_->qubits()));
}

void Emulator::apply_function(RegRef in, RegRef out,
                              const std::function<index_t(index_t)>& f) {
  permute(function_map(in, out, f, sv_->qubits()));
}

void Emulator::multiply_mod(RegRef x, index_t k, index_t modulus) {
  permute(multiply_mod_map(x, k, modulus, sv_->qubits()));
}

void Emulator::apply_phase_function(const std::function<double(index_t)>& phase) {
  sim::kernels::apply_phase_oracle(sv_->amplitudes(), [&](index_t i) {
    return std::polar(1.0, phase(i));
  });
}

void Emulator::apply_phase_oracle(const std::function<bool(index_t)>& marked) {
  sim::kernels::negate_marked(sv_->amplitudes(), marked);
}

void Emulator::qft() { qft_impl({0, sv_->qubits()}, fft::Sign::Positive); }

void Emulator::inverse_qft() { qft_impl({0, sv_->qubits()}, fft::Sign::Negative); }

void Emulator::qft(RegRef r) { qft_impl(r, fft::Sign::Positive); }

void Emulator::inverse_qft(RegRef r) { qft_impl(r, fft::Sign::Negative); }

void Emulator::qft_impl(RegRef r, fft::Sign sign) {
  check_regs({r}, sv_->qubits());
  if (plan_ == nullptr || plan_->qubits() != r.width || plan_->sign() != sign)
    plan_ = std::make_unique<fft::FftPlan>(r.width, sign);

  const auto a = sv_->amplitudes();
  if (r.width == sv_->qubits()) {
    // Whole register: the paper's Eq. (4) is literally one FFT call,
    // with our scratch as its work buffer.
    ensure_scratch();
    plan_->execute(a, {scratch_.data(), scratch_.size()}, fft::Norm::Unitary);
    return;
  }
  // Sub-register: batched strided FFT. For every assignment of the high
  // and low spectator bits, gather the 2^w register slice, transform,
  // scatter back. Batches are independent -> parallel across batches.
  const qubit_t n = sv_->qubits();
  const index_t reg_size = dim(r.width);
  const index_t lo_count = index_t{1} << r.offset;
  const index_t hi_count = index_t{1} << (n - r.offset - r.width);
  const index_t batches = lo_count * hi_count;
  const double unit = 1.0 / std::sqrt(static_cast<double>(reg_size));
#pragma omp parallel
  {
    // The register slice and the FFT's scratch, per thread.
    uninit_aligned_vector<complex_t> tmp(2 * reg_size);
    const std::span<complex_t> slice{tmp.data(), reg_size};
    const std::span<complex_t> work{tmp.data() + reg_size, reg_size};
#pragma omp for schedule(static)
    for (index_t bidx = 0; bidx < batches; ++bidx) {
      const index_t hi = bidx / lo_count;
      const index_t lo = bidx % lo_count;
      const index_t base = (hi << (r.offset + r.width)) | lo;
      for (index_t k = 0; k < reg_size; ++k) slice[k] = a[base | (k << r.offset)];
      plan_->execute(slice, work, fft::Norm::None);
      for (index_t k = 0; k < reg_size; ++k) a[base | (k << r.offset)] = slice[k] * unit;
    }
  }
}

}  // namespace qc::emu
