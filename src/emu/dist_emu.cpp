#include "emu/dist_emu.hpp"

#include <stdexcept>
#include <vector>

#include "common/parallel.hpp"

namespace qc::emu {

namespace {

/// One routed amplitude: destination global index + value.
struct Parcel {
  index_t index;
  complex_t amplitude;
};
static_assert(std::is_trivially_copyable_v<Parcel>);

void check_widths(RegRef a, RegRef b, RegRef c) {
  if (a.width != b.width || a.width != c.width)
    throw std::invalid_argument("DistEmulator: register widths must match");
}

}  // namespace

template <typename T>
double expectation_z_string(const sim::BasicDistStateVector<T>& dsv, index_t mask) {
  const auto a = dsv.local();
  const index_t base = static_cast<index_t>(dsv.comm().rank()) << dsv.local_qubits();
  double acc = 0;
#pragma omp parallel for reduction(+ : acc) if (worth_parallelizing(a.size()))
  for (index_t i = 0; i < a.size(); ++i) {
    const double re = a[i].real(), im = a[i].imag();
    const double p = re * re + im * im;
    acc += bits::parity(base | i, mask) ? -p : p;
  }
  return dsv.comm().allreduce_sum(acc);
}

template double expectation_z_string<float>(const sim::BasicDistStateVector<float>&, index_t);
template double expectation_z_string<double>(const sim::BasicDistStateVector<double>&,
                                             index_t);

void DistEmulator::route(const std::function<index_t(index_t)>& f, bool partial) {
  sim::DistStateVector& dsv = *dsv_;
  cluster::Comm& comm = dsv.comm();
  const int p = comm.size();
  const index_t chunk = dim(dsv.local_qubits());
  const index_t base = static_cast<index_t>(comm.rank()) * chunk;
  const auto local = dsv.local();
  const index_t total = chunk * static_cast<index_t>(p);

  // Bucket outgoing amplitudes by destination rank (two passes: count,
  // then fill — keeps the send buffer contiguous in rank order).
  std::vector<std::size_t> counts(static_cast<std::size_t>(p), 0);
  for (index_t i = 0; i < chunk; ++i) {
    if (partial && local[i] == complex_t{}) continue;
    const index_t j = f(base + i);
    if (j >= total) throw std::invalid_argument("DistEmulator: map leaves index space");
    ++counts[static_cast<std::size_t>(j / chunk)];
  }
  std::vector<std::size_t> offsets(static_cast<std::size_t>(p), 0);
  for (int r = 1; r < p; ++r)
    offsets[static_cast<std::size_t>(r)] =
        offsets[static_cast<std::size_t>(r - 1)] + counts[static_cast<std::size_t>(r - 1)];
  std::vector<Parcel> sendbuf(offsets.back() + counts.back());
  {
    std::vector<std::size_t> cursor = offsets;
    for (index_t i = 0; i < chunk; ++i) {
      if (partial && local[i] == complex_t{}) continue;
      const index_t j = f(base + i);
      sendbuf[cursor[static_cast<std::size_t>(j / chunk)]++] = {j, local[i]};
    }
  }

  // One all-to-all, then scatter into the (zeroed) local chunk.
  std::vector<std::size_t> recv_counts;
  const std::vector<Parcel> received =
      comm.alltoallv<Parcel>(sendbuf, counts, recv_counts);
  std::fill(local.begin(), local.end(), complex_t{});
  bool collision = false;
  for (const Parcel& parcel : received) {
    const index_t i = parcel.index - base;
    if (partial && local[i] != complex_t{}) collision = true;
    local[i] = parcel.amplitude;
  }
  if (collision)
    throw std::logic_error("DistEmulator: partial map not injective on support");
}

void DistEmulator::apply_permutation(const std::function<index_t(index_t)>& f) {
  route(f, /*partial=*/false);
}

void DistEmulator::apply_partial_map(const std::function<index_t(index_t)>& f) {
  route(f, /*partial=*/true);
}

void DistEmulator::multiply(RegRef a, RegRef b, RegRef c) {
  check_widths(a, b, c);
  check_regs({a, b, c}, dsv_->qubits());
  const index_t mask = bits::low_mask(c.width);
  route(
      [=](index_t i) {
        const index_t va = reg_value(i, a);
        const index_t vb = reg_value(i, b);
        const index_t vc = reg_value(i, c);
        return reg_replace(i, c, (vc + va * vb) & mask);
      },
      /*partial=*/false);
}

void DistEmulator::divide(RegRef a, RegRef b, RegRef c) {
  check_widths(a, b, c);
  check_regs({a, b, c}, dsv_->qubits());
  const index_t mask = bits::low_mask(c.width);
  route(
      [=](index_t i) {
        const index_t va = reg_value(i, a);
        const index_t vb = reg_value(i, b);
        const index_t q = vb == 0 ? mask : va / vb;
        const index_t r = vb == 0 ? va : va % vb;
        index_t j = reg_replace(i, a, r);
        return reg_replace(j, c, (reg_value(i, c) + q) & mask);
      },
      /*partial=*/true);
}

void DistEmulator::add(RegRef a, RegRef b) {
  if (a.width != b.width) throw std::invalid_argument("DistEmulator::add: widths");
  check_regs({a, b}, dsv_->qubits());
  const index_t mask = bits::low_mask(b.width);
  route(
      [=](index_t i) {
        return reg_replace(i, b, (reg_value(i, b) + reg_value(i, a)) & mask);
      },
      /*partial=*/false);
}

fft::DistFftStats DistEmulator::qft() {
  return fft::dist_fft(dsv_->comm(), dsv_->local(), dsv_->qubits(), fft::Sign::Positive,
                       fft::Norm::Unitary);
}

fft::DistFftStats DistEmulator::inverse_qft() {
  return fft::dist_fft(dsv_->comm(), dsv_->local(), dsv_->qubits(), fft::Sign::Negative,
                       fft::Norm::Unitary);
}

}  // namespace qc::emu
