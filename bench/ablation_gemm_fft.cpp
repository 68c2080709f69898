// Ablation microbenchmarks (google-benchmark) for the substrate design
// choices: blocked vs naive GEMM, Strassen crossover, FFT throughput vs
// the naive DFT, plan reuse, and the in-cache FFT per dispatch tier.
#include <benchmark/benchmark.h>

#include <chrono>
#include <string>

#include "common/rng.hpp"
#include "fft/fft.hpp"
#include "linalg/eig.hpp"
#include "linalg/gemm.hpp"
#include "sim/kernels_dispatch.hpp"

namespace {

using namespace qc;
using linalg::Matrix;

void BM_GemmNaive(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(n);
  const Matrix a = Matrix::random(n, n, rng);
  const Matrix b = Matrix::random(n, n, rng);
  for (auto _ : state) {
    Matrix c = linalg::gemm_naive(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["gflops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 8.0 * n * n * n * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmNaive)->Arg(128)->Arg(256);

void BM_GemmBlocked(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(n);
  const Matrix a = Matrix::random(n, n, rng);
  const Matrix b = Matrix::random(n, n, rng);
  Matrix c(n, n);
  for (auto _ : state) {
    linalg::gemm_into(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["gflops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 8.0 * n * n * n * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmBlocked)->Arg(128)->Arg(256)->Arg(512)->Arg(1024);

void BM_GemmStrassen(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(n);
  const Matrix a = Matrix::random(n, n, rng);
  const Matrix b = Matrix::random(n, n, rng);
  for (auto _ : state) {
    Matrix c = linalg::strassen(a, b);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_GemmStrassen)->Arg(512)->Arg(1024);

void BM_Hessenberg(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(n);
  const Matrix a = Matrix::random(n, n, rng);
  for (auto _ : state) {
    Matrix h = linalg::hessenberg(a);
    benchmark::DoNotOptimize(h.data());
  }
}
BENCHMARK(BM_Hessenberg)->Arg(128)->Arg(256);

void BM_Eig(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(n);
  const Matrix u = Matrix::random_unitary(n, rng);
  for (auto _ : state) {
    const auto e = linalg::eig(u, /*compute_vectors=*/true);
    benchmark::DoNotOptimize(e.values.data());
  }
}
BENCHMARK(BM_Eig)->Arg(64)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_FftPlanned(benchmark::State& state) {
  const qubit_t n = static_cast<qubit_t>(state.range(0));
  Rng rng(n);
  aligned_vector<complex_t> v(dim(n)), scratch(dim(n));
  for (auto& x : v) x = rng.normal_complex();
  const fft::FftPlan plan(n, fft::Sign::Positive);
  // A reused scratch: the scratch-less call allocates and first-touches
  // a state-sized buffer per call on the blocked path, and would time
  // page faults.
  for (auto _ : state) {
    plan.execute(v, {scratch.data(), scratch.size()}, fft::Norm::None);
    benchmark::DoNotOptimize(v.data());
    benchmark::ClobberMemory();
  }
  // 5 N log2 N real flops — the Eq. 5 accounting.
  state.counters["gflops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 5.0 * static_cast<double>(dim(n)) * n * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FftPlanned)->Arg(16)->Arg(20)->Arg(24);

void BM_FftSingleStage(benchmark::State& state) {
  const qubit_t n = static_cast<qubit_t>(state.range(0));
  Rng rng(n);
  aligned_vector<complex_t> v(dim(n));
  for (auto& x : v) x = rng.normal_complex();
  const fft::FftPlan plan(n, fft::Sign::Positive, fft::Schedule::SingleStage);
  for (auto _ : state) plan.execute(v);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(dim(n) * sizeof(complex_t) * 2 * n));
}
BENCHMARK(BM_FftSingleStage)->Arg(20)->Arg(24);

void BM_FftFusedPairs(benchmark::State& state) {
  const qubit_t n = static_cast<qubit_t>(state.range(0));
  Rng rng(n);
  aligned_vector<complex_t> v(dim(n));
  for (auto& x : v) x = rng.normal_complex();
  const fft::FftPlan plan(n, fft::Sign::Positive, fft::Schedule::FusedPairs);
  for (auto _ : state) plan.execute(v);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(dim(n) * sizeof(complex_t) * n));
}
BENCHMARK(BM_FftFusedPairs)->Arg(20)->Arg(24);

void BM_FftStockham(benchmark::State& state) {
  const qubit_t n = static_cast<qubit_t>(state.range(0));
  Rng rng(n);
  aligned_vector<complex_t> v(dim(n)), scratch(dim(n));
  for (auto& x : v) x = rng.normal_complex();
  const fft::FftPlan plan(n, fft::Sign::Positive, fft::Schedule::Stockham);
  for (auto _ : state) plan.execute(v, {scratch.data(), scratch.size()}, fft::Norm::None);
  // At these sizes the blocked path: two passes, each one read and one write.
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(dim(n) * sizeof(complex_t) * 4));
}
BENCHMARK(BM_FftStockham)->Arg(20)->Arg(24);

void BM_FftUnplanned(benchmark::State& state) {
  const qubit_t n = static_cast<qubit_t>(state.range(0));
  Rng rng(n);
  aligned_vector<complex_t> v(dim(n));
  for (auto& x : v) x = rng.normal_complex();
  for (auto _ : state) fft::fft_inplace(v, fft::Sign::Positive);
}
BENCHMARK(BM_FftUnplanned)->Arg(16)->Arg(20);

void BM_DftNaive(benchmark::State& state) {
  const qubit_t n = static_cast<qubit_t>(state.range(0));
  Rng rng(n);
  aligned_vector<complex_t> v(dim(n)), out(dim(n));
  for (auto& x : v) x = rng.normal_complex();
  for (auto _ : state) fft::dft_naive(v, out, fft::Sign::Positive);
}
BENCHMARK(BM_DftNaive)->Arg(10)->Arg(12);

/// The in-cache transform (2^10..2^12 points, one thread: the in-cache
/// path runs serially) with the codelets of one dispatch tier, in
/// ns/point. One row per tier this host and build can run.
void BM_FftInCache(benchmark::State& state, sim::kernels::SimdIsa isa) {
  const qubit_t n = static_cast<qubit_t>(state.range(0));
  Rng rng(n);
  aligned_vector<complex_t> v(dim(n)), scratch(dim(n));
  for (auto& x : v) x = rng.normal_complex();
  const fft::FftPlan plan(n, fft::Sign::Positive);
  const sim::kernels::SimdIsa prev = sim::kernels::force_isa(isa);
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    plan.execute(v, {scratch.data(), scratch.size()}, fft::Norm::Unitary);
    benchmark::DoNotOptimize(v.data());
    benchmark::ClobberMemory();
  }
  const std::chrono::duration<double, std::nano> elapsed = std::chrono::steady_clock::now() - start;
  sim::kernels::force_isa(prev);
  state.counters["ns_per_point"] =
      elapsed.count() / (static_cast<double>(state.iterations()) * static_cast<double>(dim(n)));
}

const bool kInCacheRegistered = [] {
  using sim::kernels::SimdIsa;
  for (const SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kAvx2, SimdIsa::kAvx512}) {
    if (!sim::kernels::isa_available(isa)) continue;
    const std::string name = std::string("BM_FftInCache/") + sim::kernels::isa_name(isa);
    benchmark::RegisterBenchmark(name.c_str(), BM_FftInCache, isa)->DenseRange(10, 12);
  }
  return true;
}();

}  // namespace

BENCHMARK_MAIN();
