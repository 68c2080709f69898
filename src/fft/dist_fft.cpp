#include "fft/dist_fft.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "common/bits.hpp"
#include "models/perf_model.hpp"
#include "obs/trace.hpp"

namespace qc::fft {
namespace {

/// The pull of a distributed transpose: this rank's cols/P output rows
/// (length `rows`) gathered from every rank's exposed rows/P input rows
/// (length `cols`). The block from rank r holds its rows restricted to
/// our column range; transposed, it lands at output columns
/// [r*rows/P, ...). Tiled so both the strided reads and the contiguous
/// writes stay cache-resident.
template <typename V>
void pull_transpose(const cluster::Comm& comm, std::span<V> out, index_t rows, index_t cols) {
  const int p = comm.size();
  const index_t in_rows = rows / static_cast<index_t>(p);   // source block height
  const index_t out_rows = cols / static_cast<index_t>(p);  // our transposed row count
  const index_t col0 = static_cast<index_t>(comm.rank()) * out_rows;
  std::vector<const V*> src(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) src[static_cast<std::size_t>(r)] = comm.window<V>(r).data() + col0;
  constexpr index_t kTile = 32;
#pragma omp parallel for collapse(2) schedule(static) if (out.size() >= 4096)
  for (int r = 0; r < p; ++r) {
    for (index_t c0 = 0; c0 < out_rows; c0 += kTile) {
      const V* blk = src[static_cast<std::size_t>(r)];
      const index_t c1 = std::min(c0 + kTile, out_rows);
      for (index_t i0 = 0; i0 < in_rows; i0 += kTile) {
        const index_t i1 = std::min(i0 + kTile, in_rows);
        for (index_t c = c0; c < c1; ++c) {
          V* dst = out.data() + c * rows + static_cast<index_t>(r) * in_rows;
          for (index_t i = i0; i < i1; ++i) dst[i] = blk[i * cols + c];
        }
      }
    }
  }
}

/// Runs `plan` over `count` contiguous rows of `data`, each followed by
/// `post(r, row)` while the row is still in cache. The transform runs at
/// fp64: in place at T = double, on a widened per-thread copy at fp32.
template <typename T, typename Post>
void row_ffts(std::span<basic_complex_t<T>> data, index_t count, const FftPlan& plan,
              Post post) {
  const index_t len = dim(plan.qubits());
#pragma omp parallel if (count > 1)
  {
    uninit_aligned_vector<complex_t> work(len);  // the FFT's scratch
    uninit_aligned_vector<complex_t> wide(std::is_same_v<T, double> ? 0 : len);
#pragma omp for schedule(static)
    for (index_t r = 0; r < count; ++r) {
      basic_complex_t<T>* row = data.data() + r * len;
      std::span<complex_t> x;
      if constexpr (std::is_same_v<T, double>) {
        x = {row, len};
      } else {
        for (index_t k = 0; k < len; ++k) wide[k] = static_cast<complex_t>(row[k]);
        x = {wide.data(), len};
      }
      plan.execute(x, {work.data(), len}, Norm::None);
      post(r, x);
      if constexpr (!std::is_same_v<T, double>)
        for (index_t k = 0; k < len; ++k) row[k] = static_cast<basic_complex_t<T>>(x[k]);
    }
  }
}

}  // namespace

template <typename T>
void dist_transpose(cluster::Comm& comm, std::span<const basic_complex_t<T>> local_in,
                    std::span<basic_complex_t<T>> local_out, index_t rows, index_t cols,
                    std::uint64_t& sent) {
  using V = basic_complex_t<T>;
  const int p = comm.size();
  if (rows % p != 0 || cols % p != 0)
    throw std::invalid_argument("dist_transpose: rank count must divide both dimensions");
  const index_t chunk = rows / static_cast<index_t>(p) * cols;
  if (local_in.size() != chunk || local_out.size() != chunk)
    throw std::invalid_argument("dist_transpose: local buffer size mismatch");
  if (local_in.data() == local_out.data())
    throw std::invalid_argument("dist_transpose: input and output must be separate buffers");
  obs::Span span("dist.exchange_pass");
  cluster::fault_point("dist.exchange_pass", comm.rank());
  comm.expose<V>(local_in);
  comm.barrier();
  pull_transpose<V>(comm, local_out, rows, cols);
  comm.barrier();
  // Counted once the exchange completed, in the span and `sent` alike.
  const std::uint64_t bytes = (chunk - chunk / static_cast<index_t>(p)) * sizeof(V);
  sent += bytes;
  if (obs::enabled()) {
    const qubit_t local_qubits = bits::log2_floor(chunk);
    span.arg("bytes", static_cast<double>(bytes));
    span.arg("pred_s", p > 1 ? models::t_chunk_exchange_seconds(local_qubits, {}, sizeof(V))
                             : models::t_state_pass_seconds(local_qubits, {}, sizeof(V)));
  }
}

template <typename T>
std::span<basic_complex_t<T>> dist_fft(cluster::Comm& comm, std::span<basic_complex_t<T>> local,
                                       std::span<basic_complex_t<T>> scratch, qubit_t n_total,
                                       Sign sign, Norm norm, std::uint64_t& sent) {
  const int p = comm.size();
  if (!bits::is_pow2(static_cast<index_t>(p)))
    throw std::invalid_argument("dist_fft: rank count must be a power of two");
  const index_t size = index_t{1} << n_total;
  const index_t chunk = size / static_cast<index_t>(p);
  if (local.size() != chunk) throw std::invalid_argument("dist_fft: local chunk size mismatch");
  if (scratch.size() < chunk || scratch.data() == local.data())
    throw std::invalid_argument("dist_fft: scratch must be a separate chunk-sized buffer");
  scratch = scratch.subspan(0, chunk);

  if constexpr (std::is_same_v<T, double>) {
    if (p == 1) {
      // Single rank: a node-local FFT, exactly what a cluster FFT library
      // does on one node (the paper's single-node Fig. 3 point).
      FftPlan(n_total, sign).execute(local, scratch, norm);
      return local;
    }
  }

  const qubit_t nc = n_total / 2;       // C = 2^floor(n/2)
  const qubit_t nr = n_total - nc;      // R = 2^ceil(n/2)
  const index_t rows = index_t{1} << nr;
  const index_t cols = index_t{1} << nc;
  if (static_cast<index_t>(p) > cols)
    throw std::invalid_argument("dist_fft: too many ranks for this transform size");

  const FftPlan plan_r(nr, sign);
  const FftPlan plan_c(nc, sign);
  const Twiddles twiddle(n_total, sign);
  const double factor = norm_scale(norm, size);

  // Transpose R x C -> C x R into scratch: the rank now owns cols/p
  // rows of length R.
  dist_transpose<T>(comm, local, scratch, rows, cols, sent);

  // R-point FFT over g1 for each owned g2-row, then the twiddle
  // w_N^(g2 * k1) (g2 global: the node-local four-step's factor, from the
  // same two-level table) and the normalization, in one multiply.
  const index_t g2_start = static_cast<index_t>(comm.rank()) * (cols / static_cast<index_t>(p));
  row_ffts<T>(scratch, cols / static_cast<index_t>(p), plan_r,
              [&](index_t g2, std::span<complex_t> row) {
                const index_t base = g2_start + g2;
                for (index_t k1 = 0; k1 < rows; ++k1) {
                  const complex_t w = twiddle(base * k1) * factor;
                  const complex_t a = row[k1];
                  row[k1] = {a.real() * w.real() - a.imag() * w.imag(),
                             a.real() * w.imag() + a.imag() * w.real()};
                }
              });

  // Transpose back C x R -> R x C, into the chunk.
  dist_transpose<T>(comm, scratch, local, cols, rows, sent);

  // C-point FFT over g2 for each owned k1-row.
  row_ffts<T>(local, rows / static_cast<index_t>(p), plan_c,
              [](index_t, std::span<complex_t>) {});

  // The final transpose R x C -> C x R delivers natural order (output
  // index k = k1 + R*k2 lives at matrix position [k2][k1]), in scratch.
  dist_transpose<T>(comm, local, scratch, rows, cols, sent);
  return scratch;
}

template void dist_transpose<float>(cluster::Comm&, std::span<const basic_complex_t<float>>,
                                    std::span<basic_complex_t<float>>, index_t, index_t,
                                    std::uint64_t&);
template void dist_transpose<double>(cluster::Comm&, std::span<const basic_complex_t<double>>,
                                     std::span<basic_complex_t<double>>, index_t, index_t,
                                     std::uint64_t&);
template std::span<basic_complex_t<float>> dist_fft<float>(cluster::Comm&,
                                                           std::span<basic_complex_t<float>>,
                                                           std::span<basic_complex_t<float>>,
                                                           qubit_t, Sign, Norm, std::uint64_t&);
template std::span<basic_complex_t<double>> dist_fft<double>(cluster::Comm&,
                                                             std::span<basic_complex_t<double>>,
                                                             std::span<basic_complex_t<double>>,
                                                             qubit_t, Sign, Norm,
                                                             std::uint64_t&);

}  // namespace qc::fft
