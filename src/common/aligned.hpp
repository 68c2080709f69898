// Cache-line / SIMD aligned storage for amplitude arrays.
//
// State vectors are the dominant allocation of the library (up to many
// GiB); we allocate them 64-byte aligned so AVX loads never split cache
// lines and so OpenMP threads partition on cache-line boundaries.
//
// Blocks of kHugePageBytes (2 MiB) or more (every state, emulator
// scratch, rank chunk and FFT work buffer of a run that fills DRAM) go
// on transparent huge pages: they start on a 2 MiB boundary, span whole
// 2 MiB pages, and are advised MADV_HUGEPAGE. The first touch of such a
// block then faults 2 MiB at a time instead of 4 KiB, and a strided pass
// touches 512x fewer pages. The advice is a hint the kernel honors under
// THP mode `madvise` or `always` and ignores under `never`; nothing here
// changes the host's THP settings.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <limits>
#include <new>
#include <type_traits>
#include <vector>

namespace qc {

inline constexpr std::size_t kAlignment = 64;

/// Widest SIMD register the kernels may load from amplitude storage:
/// one AVX-512 zmm register (64 bytes). The runtime-dispatched kernels
/// (src/sim/kernels_dispatch.hpp) issue full-width loads directly into
/// StateVector memory, so allocator alignment must stay a multiple of
/// the register width — otherwise an "aligned" vector could still split
/// a vector load across cache lines (or fault under aligned moves).
inline constexpr std::size_t kMaxSimdBytes = 64;
static_assert(kAlignment % kMaxSimdBytes == 0,
              "kAlignment must cover one full AVX-512 register so "
              "runtime-dispatched kernels can use full-width loads");

/// One x86-64 transparent huge page, and the size from which an
/// AlignedAllocator block goes on such pages (see the file comment).
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// `bytes` of storage for AlignedAllocator, released with std::free:
/// 64-byte aligned below kHugePageBytes, and from there 2 MiB aligned,
/// rounded up to whole 2 MiB pages and advised MADV_HUGEPAGE. Throws
/// std::bad_alloc when the memory is not there.
[[nodiscard]] void* allocate_aligned(std::size_t bytes);

/// Minimal standard allocator returning 64-byte-aligned memory (2 MiB
/// aligned, on huge pages, from kHugePageBytes up).
template <typename T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    // Leaves room for allocate_aligned's rounding up to whole pages.
    if (n > (std::numeric_limits<std::size_t>::max() - kHugePageBytes) / sizeof(T))
      throw std::bad_alloc{};
    return static_cast<T*>(allocate_aligned(n * sizeof(T)));
  }

  void deallocate(T* p, std::size_t) noexcept { std::free(p); }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
};

/// Vector whose data() is 64-byte aligned.
template <typename T>
using aligned_vector = std::vector<T, AlignedAllocator<T>>;

/// AlignedAllocator variant whose value-construction is a no-op: sizing a
/// vector leaves the memory untouched instead of running the serial
/// zero-fill pass. The owner must initialize every element itself — in a
/// parallel loop, so the first touch of each page happens on the thread
/// (and hence the NUMA node) that will work on it. Used by StateVector,
/// whose amplitudes are the library's dominant allocation.
template <typename T>
struct UninitAlignedAllocator : AlignedAllocator<T> {
  using value_type = T;

  UninitAlignedAllocator() noexcept = default;
  template <typename U>
  UninitAlignedAllocator(const UninitAlignedAllocator<U>&) noexcept {}

  /// Value-construction requests (vector(n), resize(n)) become no-ops;
  /// construction with arguments falls back to allocator_traits'
  /// placement new because this overload is then not viable.
  template <typename U>
  void construct(U*) noexcept {
    static_assert(std::is_trivially_copyable_v<U> && std::is_trivially_destructible_v<U>,
                  "no-op construction is only sound for trivial element types");
  }

  template <typename U>
  bool operator==(const UninitAlignedAllocator<U>&) const noexcept {
    return true;
  }
};

/// Aligned vector that skips element initialization on sizing (see
/// UninitAlignedAllocator — every element must be written before read).
template <typename T>
using uninit_aligned_vector = std::vector<T, UninitAlignedAllocator<T>>;

}  // namespace qc
