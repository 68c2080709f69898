// Tests for the distributed FFT: the distributed transpose primitive and
// the full six-step transform over a chunk and a caller's scratch at
// fp32 and fp64, against the naive DFT.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "fft/dist_fft.hpp"

namespace qc::fft {
namespace {

aligned_vector<complex_t> random_signal(index_t size, std::uint64_t seed) {
  Rng rng(seed);
  aligned_vector<complex_t> v(size);
  for (auto& x : v) x = rng.normal_complex();
  return v;
}

double max_diff(std::span<const complex_t> a, std::span<const complex_t> b) {
  double m = 0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

struct Case {
  qubit_t n;
  int ranks;
};

/// dist_fft with its result adopted into `local`, as the emulator does:
/// chunk and scratch swap when the result landed in the scratch.
template <typename V>
void fft_into_local(cluster::Comm& comm, aligned_vector<V>& local, aligned_vector<V>& scratch,
                    qubit_t n, Sign sign, Norm norm, std::uint64_t& sent) {
  using T = typename V::value_type;
  if (dist_fft<T>(comm, local, scratch, n, sign, norm, sent).data() != local.data())
    local.swap(scratch);
}

class DistTranspose : public ::testing::TestWithParam<Case> {};

TEST_P(DistTranspose, MatchesLocalTranspose) {
  const auto [n, p] = GetParam();
  const index_t rows = index_t{1} << ((n + 1) / 2);
  const index_t cols = index_t{1} << (n / 2);
  if (rows % p != 0 || cols % p != 0) GTEST_SKIP();
  const auto global = random_signal(rows * cols, 40 + n);

  // Expected: full local transpose.
  aligned_vector<complex_t> expected(rows * cols);
  for (index_t r = 0; r < rows; ++r)
    for (index_t c = 0; c < cols; ++c) expected[c * rows + r] = global[r * cols + c];

  aligned_vector<complex_t> gathered(rows * cols);
  std::uint64_t rank0_sent = 0;
  cluster::Cluster cluster(p, 1);
  cluster.run([&](cluster::Comm& comm) {
    const index_t chunk = rows / p * cols;
    aligned_vector<complex_t> local_in(
        global.begin() + static_cast<std::ptrdiff_t>(comm.rank() * chunk),
        global.begin() + static_cast<std::ptrdiff_t>((comm.rank() + 1) * chunk));
    aligned_vector<complex_t> local_out(chunk);
    std::uint64_t sent = 0;
    dist_transpose<double>(comm, local_in, local_out, rows, cols, sent);
    // allgather output is per-caller: every rank receives the full
    // result, so each rank gathers into its own buffer and only rank 0
    // publishes to the shared one.
    aligned_vector<complex_t> mine(static_cast<std::size_t>(rows * cols));
    comm.allgather<complex_t>(local_out, mine);
    if (comm.rank() == 0) {
      gathered = std::move(mine);
      rank0_sent = sent;
    }
  });
  EXPECT_EQ(max_diff(gathered, expected), 0.0);
  // Every block but the rank's own goes over the wire.
  EXPECT_EQ(rank0_sent, (p - 1) * (rows / p * cols / p) * sizeof(complex_t));
}

INSTANTIATE_TEST_SUITE_P(Cases, DistTranspose,
                         ::testing::Values(Case{4, 1}, Case{4, 2}, Case{6, 2}, Case{6, 4},
                                           Case{8, 4}, Case{10, 8}, Case{12, 4}));

/// Runs the in-place transform at precision T on `signal` split over p
/// ranks; returns the gathered fp64 result and checks the byte count:
/// three transposes of (P-1)/P of the chunk each, nothing at one rank.
template <typename T>
aligned_vector<complex_t> run_dist_fft(std::span<const complex_t> signal, qubit_t n, int p,
                                       Sign sign, Norm norm) {
  using V = basic_complex_t<T>;
  const index_t size = dim(n);
  const index_t chunk = size / p;
  aligned_vector<complex_t> gathered(size);
  std::uint64_t rank0_sent = 0;
  cluster::Cluster cluster(p, 1);
  cluster.run([&](cluster::Comm& comm) {
    aligned_vector<V> local(chunk), scratch(chunk);
    for (index_t i = 0; i < chunk; ++i)
      local[i] = static_cast<V>(signal[static_cast<index_t>(comm.rank()) * chunk + i]);
    std::uint64_t sent = 0;
    fft_into_local(comm, local, scratch, n, sign, norm, sent);
    aligned_vector<V> mine(size);
    comm.allgather<V>(local, mine);
    if (comm.rank() == 0) {
      for (index_t i = 0; i < size; ++i) gathered[i] = static_cast<complex_t>(mine[i]);
      rank0_sent = sent;
    }
  });
  EXPECT_EQ(rank0_sent, 3 * (chunk - chunk / p) * sizeof(V)) << "fp" << 8 * sizeof(T);
  return gathered;
}

class DistFft : public ::testing::TestWithParam<Case> {};

TEST_P(DistFft, MatchesNaiveDftAtBothPrecisions) {
  // One O(N^2) reference y = DFT+(x) checks both conventions: the
  // unitary transform of x is y / sqrt(N), and DFT-(conj x) = conj(y).
  // fp32 rounds the input, three transposes' worth of intermediates and
  // the output to float: about 1e-7 relative, far inside its bound.
  // Unnormalized outputs grow like sqrt(N), and so does their rounding.
  const auto [n, p] = GetParam();
  const index_t size = dim(n);
  const double sqrt_size = std::sqrt(static_cast<double>(size));
  const auto signal = random_signal(size, 50 + n);
  aligned_vector<complex_t> y(size);
  dft_naive(signal, y, Sign::Positive);
  aligned_vector<complex_t> unitary(size), conj_signal(size), conj_y(size);
  for (index_t i = 0; i < size; ++i) {
    unitary[i] = y[i] / sqrt_size;
    conj_signal[i] = std::conj(signal[i]);
    conj_y[i] = std::conj(y[i]);
  }
  EXPECT_LT(max_diff(run_dist_fft<double>(signal, n, p, Sign::Positive, Norm::Unitary), unitary),
            1e-10 * sqrt_size)
      << "fp64 n=" << n << " ranks=" << p;
  EXPECT_LT(max_diff(run_dist_fft<float>(signal, n, p, Sign::Positive, Norm::Unitary), unitary),
            1e-5)
      << "fp32 n=" << n << " ranks=" << p;
  EXPECT_LT(max_diff(run_dist_fft<double>(conj_signal, n, p, Sign::Negative, Norm::None), conj_y),
            1e-10 * sqrt_size)
      << "fp64 n=" << n << " ranks=" << p;
  EXPECT_LT(max_diff(run_dist_fft<float>(conj_signal, n, p, Sign::Negative, Norm::None), conj_y),
            1e-5 * sqrt_size)
      << "fp32 n=" << n << " ranks=" << p;
}

TEST_P(DistFft, RoundTripRestoresInput) {
  const auto [n, p] = GetParam();
  const index_t size = dim(n);
  const auto global = random_signal(size, 60 + n);
  aligned_vector<complex_t> gathered(size);
  cluster::Cluster cluster(p, 1);
  cluster.run([&](cluster::Comm& comm) {
    const index_t chunk = size / p;
    aligned_vector<complex_t> local(
        global.begin() + static_cast<std::ptrdiff_t>(comm.rank() * chunk),
        global.begin() + static_cast<std::ptrdiff_t>((comm.rank() + 1) * chunk));
    aligned_vector<complex_t> scratch(chunk);
    std::uint64_t sent = 0;
    fft_into_local(comm, local, scratch, n, Sign::Positive, Norm::None, sent);
    fft_into_local(comm, local, scratch, n, Sign::Negative, Norm::Inverse, sent);
    aligned_vector<complex_t> mine(static_cast<std::size_t>(size));
    comm.allgather<complex_t>(local, mine);
    if (comm.rank() == 0) gathered = std::move(mine);
  });
  EXPECT_LT(max_diff(gathered, global), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Cases, DistFft,
                         ::testing::Values(Case{4, 1}, Case{4, 2}, Case{6, 4}, Case{8, 2},
                                           Case{10, 4}, Case{12, 8}, Case{14, 4},
                                           Case{16, 16}));

TEST(DistFft, ResidentChunksAcrossSessionJobs) {
  // The six-step FFT run twice (forward then inverse) as two separate
  // session jobs against rank-local chunks that stay resident between
  // submissions — how the distributed QFT executes under the resident
  // dist backend.
  const qubit_t n = 10;
  const int p = 4;
  const auto signal = random_signal(index_t{1} << n, 99);

  cluster::ClusterSession session(p, 1);
  const index_t chunk = (index_t{1} << n) / p;
  std::vector<aligned_vector<complex_t>> locals(static_cast<std::size_t>(p));
  std::vector<aligned_vector<complex_t>> scratches(static_cast<std::size_t>(p));
  session.submit([&](cluster::Comm& comm) {
    auto& local = locals[static_cast<std::size_t>(comm.rank())];
    local.assign(signal.begin() + static_cast<std::ptrdiff_t>(comm.rank() * chunk),
                 signal.begin() + static_cast<std::ptrdiff_t>((comm.rank() + 1) * chunk));
    scratches[static_cast<std::size_t>(comm.rank())].resize(chunk);
  });
  for (const Sign sign : {Sign::Negative, Sign::Positive})
    session.submit([&, sign](cluster::Comm& comm) {
      auto& local = locals[static_cast<std::size_t>(comm.rank())];
      auto& scratch = scratches[static_cast<std::size_t>(comm.rank())];
      std::uint64_t sent = 0;
      fft_into_local(comm, local, scratch, n, sign, Norm::Unitary, sent);
    });
  session.sync();
  for (int r = 0; r < p; ++r) {
    const auto& local = locals[static_cast<std::size_t>(r)];
    EXPECT_LT(max_diff(local, std::span<const complex_t>(
                                  signal.data() + static_cast<std::size_t>(r) * chunk, chunk)),
              1e-11);
  }
}

TEST(DistFft, RejectsTooManyRanks) {
  // n = 4 -> C = 4; 8 ranks cannot divide the columns.
  cluster::Cluster cluster(8, 1);
  EXPECT_THROW(cluster.run([&](cluster::Comm& comm) {
                 aligned_vector<complex_t> local(dim(4) / 8), scratch(dim(4) / 8);
                 std::uint64_t sent = 0;
                 dist_fft<double>(comm, local, scratch, 4, Sign::Positive, Norm::None, sent);
               }),
               std::invalid_argument);
}

}  // namespace
}  // namespace qc::fft
