#include "emu/dist_emu.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "common/parallel.hpp"
#include "emu/index_maps.hpp"
#include "fft/dist_fft.hpp"
#include "models/perf_model.hpp"
#include "obs/trace.hpp"

namespace qc::emu {

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
  using Parcel = typename sim::BasicDistStateVector<T>::Parcel;
  sim::BasicDistStateVector<T>& dsv = *dsv_;
  cluster::Comm& comm = dsv.comm();
  const int p = comm.size();
  const auto up = static_cast<std::size_t>(p);
  const auto me = static_cast<std::size_t>(comm.rank());
  const index_t chunk = dim(dsv.local_qubits());
  const index_t base = static_cast<index_t>(comm.rank()) * chunk;
  const auto local = dsv.local();
  const index_t total = chunk * static_cast<index_t>(p);

  // Bucket outgoing amplitudes by destination rank (two passes: count,
  // then fill), behind a header: the index of parcel r <= p is where
  // destination r's block starts. The outbox is exposed, so the state
  // owns it.
  std::vector<std::size_t> counts(up, 0);
  for (index_t i = 0; i < chunk; ++i) {
    if (partial && local[i] == value_type{}) continue;
    const index_t j = f(base + i);
    if (j >= total) throw std::invalid_argument("DistEmulator: map leaves index space");
    ++counts[static_cast<std::size_t>(j / chunk)];
  }
  std::size_t parcels = up + 1;
  for (const std::size_t c : counts) parcels += c;
  auto& outbox = dsv.outbox();
  outbox.resize(parcels);
  {
    std::vector<std::size_t> cursor(up);
    std::size_t at = up + 1;
    for (std::size_t r = 0; r < up; ++r) {
      outbox[r] = {at, value_type{}};
      cursor[r] = at;
      at += counts[r];
    }
    outbox[up] = {at, value_type{}};
    for (index_t i = 0; i < chunk; ++i) {
      if (partial && local[i] == value_type{}) continue;
      const index_t j = f(base + i);
      outbox[cursor[static_cast<std::size_t>(j / chunk)]++] = {j, local[i]};
    }
  }

  // One pull — the one exchange pass of the permutation: every
  // destination reads its block from every rank's outbox and scatters it
  // into its zeroed scratch, which becomes the chunk after the second
  // fence.
  obs::Span span("dist.exchange_pass");
  cluster::fault_point("dist.exchange_pass", comm.rank());
  const std::span<value_type> out = dsv.scratch();
  std::fill(out.begin(), out.end(), value_type{});
  comm.expose<Parcel>(outbox);
  comm.barrier();
  bool collision = false;
  for (int r = 0; r < p; ++r) {
    const std::span<const Parcel> box = comm.window<Parcel>(r);
    for (index_t k = box[me].index; k < box[me + 1].index; ++k) {
      const index_t i = box[k].index - base;
      if (partial && out[i] != value_type{}) collision = true;
      out[i] = box[k].amplitude;
    }
  }
  comm.barrier();
  uninit_aligned_vector<Parcel>().swap(outbox);
  // A collision is detected only after the second fence: no rank may
  // leave the motion while a peer can still read its outbox.
  if (collision)
    throw std::logic_error("DistEmulator: partial map not injective on support");
  dsv.swap_scratch();
  const std::uint64_t bytes = (parcels - up - 1 - counts[me]) * sizeof(Parcel);
  dsv.bytes_counter() += bytes;
  if (obs::enabled()) {
    span.arg("bytes", static_cast<double>(bytes));
    span.arg("pred_s",
             models::t_chunk_exchange_seconds(dsv.local_qubits(), {}, sizeof(Parcel)));
  }
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
  sim::BasicDistStateVector<T>& dsv = *dsv_;
  const auto result = fft::dist_fft<T>(dsv.comm(), dsv.local(), dsv.scratch(), dsv.qubits(),
                                       sign, fft::Norm::Unitary, dsv.bytes_counter());
  // The result sits in whichever buffer the last transpose wrote: adopt it.
  if (result.data() != dsv.local().data()) dsv.swap_scratch();
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
