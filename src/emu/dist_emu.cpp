#include "emu/dist_emu.hpp"

#include <stdexcept>
#include <vector>

#include "common/parallel.hpp"
#include "emu/index_maps.hpp"
#include "fft/dist_fft.hpp"
#include "models/perf_model.hpp"
#include "obs/trace.hpp"

namespace qc::emu {

namespace {

/// One routed amplitude: destination global index + value.
template <typename T>
struct Parcel {
  index_t index;
  basic_complex_t<T> amplitude;
};
static_assert(std::is_trivially_copyable_v<Parcel<double>>);

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

template <typename T>
void BasicDistEmulator<T>::route(const std::function<index_t(index_t)>& f, bool partial) {
  using value_type = basic_complex_t<T>;
  sim::BasicDistStateVector<T>& dsv = *dsv_;
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
    if (partial && local[i] == value_type{}) continue;
    const index_t j = f(base + i);
    if (j >= total) throw std::invalid_argument("DistEmulator: map leaves index space");
    ++counts[static_cast<std::size_t>(j / chunk)];
  }
  std::vector<std::size_t> offsets(static_cast<std::size_t>(p), 0);
  for (int r = 1; r < p; ++r)
    offsets[static_cast<std::size_t>(r)] =
        offsets[static_cast<std::size_t>(r - 1)] + counts[static_cast<std::size_t>(r - 1)];
  std::vector<Parcel<T>> sendbuf(offsets.back() + counts.back());
  {
    std::vector<std::size_t> cursor = offsets;
    for (index_t i = 0; i < chunk; ++i) {
      if (partial && local[i] == value_type{}) continue;
      const index_t j = f(base + i);
      sendbuf[cursor[static_cast<std::size_t>(j / chunk)]++] = {j, local[i]};
    }
  }

  // One all-to-all — the one exchange pass of the permutation — then
  // scatter into the (zeroed) local chunk.
  obs::Span span("dist.exchange_pass");
  cluster::fault_point("dist.exchange_pass", comm.rank());
  std::vector<std::size_t> recv_counts;
  const std::vector<Parcel<T>> received =
      comm.alltoallv<Parcel<T>>(sendbuf, counts, recv_counts);
  const std::uint64_t bytes =
      (sendbuf.size() - counts[static_cast<std::size_t>(comm.rank())]) * sizeof(Parcel<T>);
  dsv.bytes_counter() += bytes;
  if (obs::enabled()) {
    span.arg("bytes", static_cast<double>(bytes));
    span.arg("pred_s",
             models::t_chunk_exchange_seconds(dsv.local_qubits(), {}, sizeof(Parcel<T>)));
  }
  std::fill(local.begin(), local.end(), value_type{});
  bool collision = false;
  for (const Parcel<T>& parcel : received) {
    const index_t i = parcel.index - base;
    if (partial && local[i] != value_type{}) collision = true;
    local[i] = parcel.amplitude;
  }
  if (collision)
    throw std::logic_error("DistEmulator: partial map not injective on support");
}

template <typename T>
void BasicDistEmulator<T>::apply_permutation(const std::function<index_t(index_t)>& f) {
  route(f, /*partial=*/false);
}

template <typename T>
void BasicDistEmulator<T>::apply_partial_map(const std::function<index_t(index_t)>& f) {
  route(f, /*partial=*/true);
}

template <typename T>
void BasicDistEmulator<T>::multiply(RegRef a, RegRef b, RegRef c) {
  route(multiply_map(a, b, c, dsv_->qubits()), /*partial=*/false);
}

template <typename T>
void BasicDistEmulator<T>::divide(RegRef a, RegRef b, RegRef c) {
  route(divide_map(a, b, c, dsv_->qubits()), /*partial=*/true);
}

template <typename T>
void BasicDistEmulator<T>::add(RegRef a, RegRef b) {
  route(add_map(a, b, dsv_->qubits()), /*partial=*/false);
}

template <typename T>
void BasicDistEmulator<T>::transform(fft::Sign sign) {
  fft::dist_fft<T>(dsv_->comm(), dsv_->local(), dsv_->scratch(), dsv_->qubits(), sign,
                   fft::Norm::Unitary, dsv_->bytes_counter());
}

template <typename T>
void BasicDistEmulator<T>::qft() {
  transform(fft::Sign::Positive);
}

template <typename T>
void BasicDistEmulator<T>::inverse_qft() {
  transform(fft::Sign::Negative);
}

template class BasicDistEmulator<float>;
template class BasicDistEmulator<double>;

}  // namespace qc::emu
