// Distributed 1D FFT over the cluster substrate (the MKL Cluster FFT /
// distributed-FFTW role of the paper's §3.2 and Eq. 5).
//
// The transform of N = 2^n points distributed in contiguous chunks over
// P ranks uses the classic six-step algorithm. Viewing the data as an
// R x C row-major matrix (R = 2^ceil(n/2), C = 2^floor(n/2)):
//
//   1. distributed transpose            (all-to-all #1)
//   2. local R-point FFTs along rows
//   3. twiddle scaling by w_N^(g2*k1), times the normalization — applied
//      to each row of step 2 while it is still in cache
//   4. distributed transpose            (all-to-all #2)
//   5. local C-point FFTs along rows
//   6. distributed transpose            (all-to-all #3, natural order out)
//
// Exactly the three all-to-all transposition steps the paper's
// performance model (Eq. 5) charges: T_FFT = 5Nn/(eff*FLOPS) + 3*16N/Bnet.
//
// The transform alternates between the rank's chunk and a caller-provided
// chunk-sized scratch (the dist backend passes its DistStateVector's),
// so no chunk-sized buffer is allocated. Each transpose is one pull on
// Comm's expose/fence/pull: every rank exposes the buffer holding the
// matrix, then gathers and transposes its own rows tile by tile from
// every peer's straight into the other buffer — one copy per byte. Each
// is one "dist.exchange_pass" span and fault site, with its wire bytes
// and Eq. 5's per-transpose term as `pred_s`.
//
// Templated on the amplitude scalar T like sim::BasicDistStateVector:
// the all-to-alls move T-sized amplitudes. The row FFTs always run at
// fp64 (fft::FftPlan); at fp32 each row is widened into a per-thread
// fp64 copy, transformed and twiddled there, and narrowed back.
//
// dist_fft is collective and stateless between calls: it can run as a
// one-shot Cluster::run body or as successive jobs of a persistent
// cluster::ClusterSession against rank-local chunks that stay resident
// between submissions (tests/test_dist_fft.cpp exercises the latter).
#pragma once

#include <cstdint>
#include <span>

#include "cluster/cluster.hpp"
#include "fft/fft.hpp"

namespace qc::fft {

/// Distributed transpose of an `rows` x `cols` row-major matrix whose
/// rows are block-distributed over the ranks of `comm`. `local_in` holds
/// rows/P rows of length cols; `local_out` receives cols/P rows of length
/// rows. Both have rows*cols/P elements and must be separate buffers.
/// `local_in` is exposed to every rank, so it must outlive the job and
/// stays unwritten; `local_out` is written only between the fences.
/// Requires P | rows and P | cols. Adds the bytes this rank sent to
/// `sent` once the exchange completed.
template <typename T>
void dist_transpose(cluster::Comm& comm, std::span<const basic_complex_t<T>> local_in,
                    std::span<basic_complex_t<T>> local_out, index_t rows, index_t cols,
                    std::uint64_t& sent);

/// Distributed FFT of 2^n_total points. Each rank passes its contiguous
/// chunk (2^n_total / P elements, natural global order) and a separate
/// chunk-sized scratch, both owned outside the job; the transform runs
/// over the two and returns the one holding the result, in natural
/// order with the same distribution (`scratch` after the three
/// transposes, `local` at one fp64 rank). The caller adopts it:
/// emu::BasicDistEmulator swaps chunk and scratch in O(1), so the
/// result ends in the chunk. Each completed transpose adds the bytes
/// this rank sent to `sent` (3 (P-1)/P of the chunk in all), so a
/// transform that aborts part-way has counted exactly what it moved.
/// Requires P to be a power of two with P <= 2^floor(n_total/2); one
/// rank at fp64 runs the node-local plan (fft::FftPlan, in place).
template <typename T>
std::span<basic_complex_t<T>> dist_fft(cluster::Comm& comm, std::span<basic_complex_t<T>> local,
                                       std::span<basic_complex_t<T>> scratch, qubit_t n_total,
                                       Sign sign, Norm norm, std::uint64_t& sent);

}  // namespace qc::fft
