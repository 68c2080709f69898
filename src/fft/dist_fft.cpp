#include "fft/dist_fft.hpp"

#include <cmath>
#include <stdexcept>

#include "common/bits.hpp"
#include "common/timer.hpp"

namespace qc::fft {
namespace {

/// Packs the local rows x cols block into P destination blocks: block j
/// holds this rank's rows restricted to destination j's column range.
void pack_for_transpose(std::span<const complex_t> local, std::span<complex_t> sendbuf,
                        index_t local_rows, index_t cols, int p) {
  const index_t cols_per_rank = cols / p;
#pragma omp parallel for collapse(2) if (local.size() >= 4096)
  for (int j = 0; j < p; ++j) {
    for (index_t i = 0; i < local_rows; ++i) {
      const complex_t* src = local.data() + i * cols + static_cast<index_t>(j) * cols_per_rank;
      complex_t* dst =
          sendbuf.data() + static_cast<index_t>(j) * local_rows * cols_per_rank + i * cols_per_rank;
      for (index_t c = 0; c < cols_per_rank; ++c) dst[c] = src[c];
    }
  }
}

/// Unpacks received blocks into the transposed local layout: the block
/// from source rank r contains its rows x our columns; transposed, it
/// lands at output columns [r*rows_per_rank, ...). Tiled so both the
/// strided reads and the contiguous writes stay cache-resident.
void unpack_after_transpose(std::span<const complex_t> recvbuf, std::span<complex_t> local_out,
                            index_t rows, index_t cols, int p) {
  const index_t rows_per_rank = rows / p;          // source block height
  const index_t local_cols_out = rows;             // output row length
  const index_t out_rows = cols / p;               // our transposed row count
  constexpr index_t kTile = 32;
#pragma omp parallel for collapse(2) schedule(static) if (local_out.size() >= 4096)
  for (int r = 0; r < p; ++r) {
    for (index_t c0 = 0; c0 < out_rows; c0 += kTile) {
      const complex_t* blk =
          recvbuf.data() + static_cast<index_t>(r) * rows_per_rank * out_rows;
      const index_t c1 = std::min(c0 + kTile, out_rows);
      for (index_t i0 = 0; i0 < rows_per_rank; i0 += kTile) {
        const index_t i1 = std::min(i0 + kTile, rows_per_rank);
        for (index_t c = c0; c < c1; ++c) {
          complex_t* dst = local_out.data() + c * local_cols_out +
                           static_cast<index_t>(r) * rows_per_rank;
          for (index_t i = i0; i < i1; ++i) dst[i] = blk[i * out_rows + c];
        }
      }
    }
  }
}

void dist_transpose_with_buffers(cluster::Comm& comm, std::span<const complex_t> local_in,
                                 std::span<complex_t> local_out, index_t rows, index_t cols,
                                 std::span<complex_t> sendbuf, std::span<complex_t> recvbuf) {
  const int p = comm.size();
  if (rows % p != 0 || cols % p != 0)
    throw std::invalid_argument("dist_transpose: rank count must divide both dimensions");
  const index_t local_rows = rows / static_cast<index_t>(p);
  const index_t chunk = local_rows * cols;
  if (local_in.size() != chunk || local_out.size() != (cols / p) * rows)
    throw std::invalid_argument("dist_transpose: local buffer size mismatch");
  pack_for_transpose(local_in, sendbuf.subspan(0, chunk), local_rows, cols, p);
  comm.alltoall<complex_t>(sendbuf.subspan(0, chunk), recvbuf.subspan(0, chunk));
  unpack_after_transpose(recvbuf.subspan(0, chunk), local_out, rows, cols, p);
}

}  // namespace

void dist_transpose(cluster::Comm& comm, std::span<const complex_t> local_in,
                    std::span<complex_t> local_out, index_t rows, index_t cols) {
  aligned_vector<complex_t> sendbuf(local_in.size());
  aligned_vector<complex_t> recvbuf(local_in.size());
  dist_transpose_with_buffers(comm, local_in, local_out, rows, cols, sendbuf, recvbuf);
}

DistFftStats dist_fft(cluster::Comm& comm, std::span<complex_t> local, qubit_t n_total,
                      Sign sign, Norm norm) {
  const int p = comm.size();
  if (!bits::is_pow2(static_cast<index_t>(p)))
    throw std::invalid_argument("dist_fft: rank count must be a power of two");
  const index_t size = index_t{1} << n_total;
  const index_t chunk = size / static_cast<index_t>(p);
  if (local.size() != chunk) throw std::invalid_argument("dist_fft: local chunk size mismatch");

  DistFftStats stats;
  if (p == 1) {
    // Single rank: a node-local FFT, exactly what a cluster FFT library
    // does on one node (the paper's single-node Fig. 3 point).
    WallTimer timer;
    const FftPlan plan(n_total, sign);
    plan.execute(local, norm);
    stats.local_fft_seconds = timer.seconds();
    return stats;
  }

  const qubit_t nc = n_total / 2;       // C = 2^floor(n/2)
  const qubit_t nr = n_total - nc;      // R = 2^ceil(n/2)
  const index_t rows = index_t{1} << nr;
  const index_t cols = index_t{1} << nc;
  if (static_cast<index_t>(p) > cols)
    throw std::invalid_argument("dist_fft: too many ranks for this transform size");

  aligned_vector<complex_t> work((cols / p) * rows);
  aligned_vector<complex_t> sendbuf(chunk);
  aligned_vector<complex_t> recvbuf(chunk);
  const FftPlan plan_r(nr, sign);
  const FftPlan plan_c(nc, sign);
  const Twiddles twiddle(n_total, sign);
  WallTimer timer;

  // Step 1: transpose R x C -> C x R. Rank now owns cols/p rows of len R.
  comm.barrier();
  timer.reset();
  dist_transpose_with_buffers(comm, local, work, rows, cols, sendbuf, recvbuf);
  stats.transpose_seconds += timer.seconds();

  // Step 2: local R-point FFT over g1 for each owned g2-row.
  comm.barrier();
  timer.reset();
  {
    const index_t nrows = cols / static_cast<index_t>(p);
#pragma omp parallel for schedule(static) if (nrows > 1)
    for (index_t g2 = 0; g2 < nrows; ++g2)
      plan_r.execute(std::span<complex_t>(work.data() + g2 * rows, rows));
  }
  stats.local_fft_seconds += timer.seconds();

  // Step 3: twiddle by w_N^(g2 * k1), g2 global: the same factor as the
  // node-local four-step transform, from the same two-level table.
  comm.barrier();
  timer.reset();
  {
    const index_t nrows = cols / static_cast<index_t>(p);
    const index_t g2_start = static_cast<index_t>(comm.rank()) * nrows;
#pragma omp parallel for schedule(static) if (nrows * rows >= 4096)
    for (index_t g2 = 0; g2 < nrows; ++g2) {
      complex_t* row = work.data() + g2 * rows;
      for (index_t k1 = 0; k1 < rows; ++k1) row[k1] *= twiddle((g2_start + g2) * k1);
    }
  }
  stats.twiddle_seconds += timer.seconds();

  // Step 4: transpose back C x R -> R x C.
  comm.barrier();
  timer.reset();
  dist_transpose_with_buffers(comm, work, local, cols, rows, sendbuf, recvbuf);
  stats.transpose_seconds += timer.seconds();

  // Step 5: local C-point FFT over g2 for each owned k1-row.
  comm.barrier();
  timer.reset();
  {
    const index_t nrows = rows / static_cast<index_t>(p);
#pragma omp parallel for schedule(static) if (nrows > 1)
    for (index_t k1 = 0; k1 < nrows; ++k1)
      plan_c.execute(std::span<complex_t>(local.data() + k1 * cols, cols));
  }
  stats.local_fft_seconds += timer.seconds();

  // Step 6: final transpose R x C -> C x R delivers natural order
  // (output index k = k1 + R*k2 lives at matrix position [k2][k1]).
  comm.barrier();
  timer.reset();
  dist_transpose_with_buffers(comm, local, work, rows, cols, sendbuf, recvbuf);
  std::copy(work.begin(), work.begin() + static_cast<std::ptrdiff_t>(chunk), local.begin());
  stats.transpose_seconds += timer.seconds();

  if (norm == Norm::Unitary) {
    const double f = 1.0 / std::sqrt(static_cast<double>(size));
#pragma omp parallel for if (chunk >= 4096)
    for (index_t i = 0; i < chunk; ++i) local[i] *= f;
  } else if (norm == Norm::Inverse) {
    const double f = 1.0 / static_cast<double>(size);
#pragma omp parallel for if (chunk >= 4096)
    for (index_t i = 0; i < chunk; ++i) local[i] *= f;
  }

  // Critical-path times: max over ranks.
  stats.transpose_seconds = comm.allreduce_max(stats.transpose_seconds);
  stats.local_fft_seconds = comm.allreduce_max(stats.local_fft_seconds);
  stats.twiddle_seconds = comm.allreduce_max(stats.twiddle_seconds);
  return stats;
}

}  // namespace qc::fft
