#include "emu/emulator.hpp"

#include <atomic>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "common/parallel.hpp"

namespace qc::emu {

void check_regs(std::initializer_list<RegRef> regs, qubit_t n) {
  index_t seen = 0;
  for (const RegRef& r : regs) {
    if (r.width == 0 || r.offset + r.width > n)
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

void Emulator::apply_permutation(const std::function<index_t(index_t)>& f) {
  ensure_scratch();
  sim::kernels::apply_permutation(sv_->amplitudes(), {scratch_.data(), scratch_.size()}, f);
}

void Emulator::apply_partial_map(const std::function<index_t(index_t)>& f) {
  ensure_scratch();
  const auto a = sv_->amplitudes();
  const index_t size = a.size();
  std::fill(scratch_.begin(), scratch_.end(), complex_t{});
  // Scatter only the support. A collision means two nonzero amplitudes
  // target the same index — the map is not injective where it matters.
  std::atomic<bool> collision{false};
#pragma omp parallel for if (worth_parallelizing(size))
  for (index_t i = 0; i < size; ++i) {
    if (a[i] == complex_t{}) continue;
    const index_t j = f(i);
    if (scratch_[j] != complex_t{}) collision.store(true, std::memory_order_relaxed);
    scratch_[j] = a[i];
  }
  if (collision.load()) throw std::logic_error("apply_partial_map: non-injective on support");
#pragma omp parallel for if (worth_parallelizing(size))
  for (index_t i = 0; i < size; ++i) a[i] = scratch_[i];
}

void Emulator::multiply(RegRef a, RegRef b, RegRef c) {
  if (a.width != b.width || a.width != c.width)
    throw std::invalid_argument("multiply: widths must match");
  check_regs({a, b, c}, sv_->qubits());
  const index_t mask = bits::low_mask(c.width);
  ensure_scratch();
  // (va, vb, vc) -> (va, vb, vc + va*vb mod 2^w) is bijective for all vc.
  sim::kernels::apply_permutation(sv_->amplitudes(), {scratch_.data(), scratch_.size()},
                             [=](index_t i) {
                               const index_t va = reg_value(i, a);
                               const index_t vb = reg_value(i, b);
                               const index_t vc = reg_value(i, c);
                               return reg_replace(i, c, (vc + va * vb) & mask);
                             });
}

void Emulator::divide(RegRef a, RegRef b, RegRef c) {
  if (a.width != b.width || a.width != c.width)
    throw std::invalid_argument("divide: widths must match");
  check_regs({a, b, c}, sv_->qubits());
  const index_t mask = bits::low_mask(c.width);
  apply_partial_map([=](index_t i) {
    const index_t va = reg_value(i, a);
    const index_t vb = reg_value(i, b);
    // b = 0 convention matching the restoring divider: every trial
    // subtraction "succeeds", so q = 2^w - 1 and the remainder is a.
    const index_t q = vb == 0 ? mask : va / vb;
    const index_t r = vb == 0 ? va : va % vb;
    const index_t vc = reg_value(i, c);
    index_t j = reg_replace(i, a, r);
    j = reg_replace(j, c, (vc + q) & mask);
    return j;
  });
}

void Emulator::add(RegRef a, RegRef b) {
  if (a.width != b.width) throw std::invalid_argument("add: widths must match");
  check_regs({a, b}, sv_->qubits());
  const index_t mask = bits::low_mask(b.width);
  apply_permutation([=](index_t i) {
    return reg_replace(i, b, (reg_value(i, b) + reg_value(i, a)) & mask);
  });
}

void Emulator::add_constant(RegRef r, index_t k) {
  check_regs({r}, sv_->qubits());
  const index_t mask = bits::low_mask(r.width);
  apply_permutation(
      [=](index_t i) { return reg_replace(i, r, (reg_value(i, r) + k) & mask); });
}

void Emulator::apply_function(RegRef in, RegRef out,
                              const std::function<index_t(index_t)>& f) {
  check_regs({in, out}, sv_->qubits());
  const index_t mask = bits::low_mask(out.width);
  apply_permutation([&, mask](index_t i) {
    const index_t v = f(reg_value(i, in)) & mask;
    return reg_replace(i, out, (reg_value(i, out) + v) & mask);
  });
}

void Emulator::multiply_mod(RegRef x, index_t k, index_t modulus) {
  check_regs({x}, sv_->qubits());
  if (modulus == 0 || modulus > dim(x.width))
    throw std::invalid_argument("multiply_mod: modulus out of range");
  if (std::gcd(k % modulus, modulus) != 1)
    throw std::invalid_argument("multiply_mod: k not invertible mod modulus");
  apply_permutation([=](index_t i) {
    const index_t v = reg_value(i, x);
    if (v >= modulus) return i;  // outside the modular domain: identity
    return reg_replace(i, x, (v * k) % modulus);
  });
}

void Emulator::apply_phase_function(const std::function<double(index_t)>& phase) {
  sim::kernels::apply_phase_oracle(sv_->amplitudes(), [&](index_t i) {
    return std::polar(1.0, phase(i));
  });
}

void Emulator::apply_phase_oracle(const std::function<bool(index_t)>& marked) {
  sim::kernels::apply_phase_oracle(sv_->amplitudes(), [&](index_t i) {
    return marked(i) ? complex_t{-1.0} : complex_t{1.0};
  });
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
