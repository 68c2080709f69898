// Thin OpenMP helpers.
//
// Kernels use plain `#pragma omp parallel for` directly (per the OpenMP
// Examples guide); this header centralizes runtime queries and the two
// patterns pragmas cannot express cleanly: conditional parallelism below
// a grain-size threshold (parallelizing a 64-amplitude gate costs more in
// fork/join than it saves), and a sum that repeats bit for bit.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace qc {

/// Number of OpenMP threads a parallel region will use.
int max_threads() noexcept;

/// Current thread id inside a parallel region (0 outside).
int thread_id() noexcept;

/// True if `work_items` is large enough to amortize an OpenMP fork.
/// 2^12 amplitudes (~64 KiB) is the measured break-even on this class of
/// kernel; below it the serial path wins.
constexpr bool worth_parallelizing(index_t work_items) noexcept {
  return work_items >= (index_t{1} << 12);
}

/// Sum of f(i) over i in [0, count), the same to the bit on every call
/// at one thread count: a static partition into max_threads() slabs,
/// each summed in index order, whose partials are added in slab order.
/// An OpenMP reduction adds its threads' partials in arrival order, so
/// its last bit can change from call to call.
template <typename F>
double ordered_sum(index_t count, const F& f) {
  const int slabs = worth_parallelizing(count) ? max_threads() : 1;
  const index_t slab = (count + static_cast<index_t>(slabs) - 1) / static_cast<index_t>(slabs);
  std::vector<double> partial(static_cast<std::size_t>(slabs), 0.0);
#pragma omp parallel for schedule(static) if (slabs > 1)
  for (int s = 0; s < slabs; ++s) {
    const index_t lo = std::min(static_cast<index_t>(s) * slab, count);
    const index_t hi = std::min(lo + slab, count);
    double sum = 0;
    for (index_t i = lo; i < hi; ++i) sum += f(i);
    partial[static_cast<std::size_t>(s)] = sum;
  }
  double total = 0;
  for (const double p : partial) total += p;
  return total;
}

}  // namespace qc
