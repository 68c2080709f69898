// Runtime ISA dispatch for the kernels' vector inner loops.
//
// The library ships one portable binary (CI builds with QC_NATIVE=OFF),
// so the hot loops cannot rely on -march=native for vectorization.
// Instead the microkernels below (dense k-qubit blocks for k = 1..5, the
// diagonal block, and the run scale behind the 1-qubit diagonal) have
// one body, kernel_body.hpp, compiled in an AVX2 and in an AVX-512
// translation unit. Next to them sits the scalar tier: kernels.cpp's
// plain loops, the reference. One tier is selected at startup by
// CPUID-based feature detection (overridable with
// QC_SIMD=scalar|avx2|avx512).
//
// All tiers operate on the interleaved {re, im} plane layout exposed by
// kernels::real_imag_planes() (amplitude j of a run lives at
// planes[2j] / planes[2j + 1]) and must agree with the scalar tier to
// 1e-12 at fp64 (tests/test_dispatch.cpp enforces this for every gate
// class and block width; CONTRIBUTING requires the same of any new
// kernel).
#pragma once

#include <string_view>

#include "common/types.hpp"

namespace qc::sim::kernels {

/// Instruction sets the microkernels are specialized for, in
/// monotonically-increasing capability order.
enum class SimdIsa : int {
  kScalar = 0,  ///< Portable reference loops (also the sanitizer path).
  kAvx2 = 1,    ///< 256-bit FMA over 2 fp64 / 4 fp32 amplitudes.
  kAvx512 = 2,  ///< 512-bit FMA over 4 fp64 / 8 fp32 amplitudes.
};

/// Short stable name ("scalar" / "avx2" / "avx512") for logs, the obs
/// dispatch record, and the QC_SIMD override.
const char* isa_name(SimdIsa isa) noexcept;

/// Parses a QC_SIMD-style name; returns false on unknown input.
bool parse_isa(std::string_view name, SimdIsa& out) noexcept;

/// What the host CPU supports (CPUID via __builtin_cpu_supports),
/// independent of any override. Non-x86 builds report kScalar.
SimdIsa detect_isa() noexcept;

/// True when `isa`'s microkernels were actually compiled in (the build
/// gates the AVX translation units on compiler support) AND the host
/// CPU can execute them. kScalar is always available.
bool isa_available(SimdIsa isa) noexcept;

/// The ISA every kernel currently routes through: resolved once at
/// first use as min(detect_isa(), QC_SIMD override), cached. A QC_SIMD
/// value naming an unavailable ISA is clamped down to the best
/// available one (requesting a *lower* tier than detected is honored —
/// that is the point of the override).
SimdIsa active_isa() noexcept;

/// Test/bench hook: force the dispatch decision. The forced ISA must be
/// available (checked); returns the previous active ISA so callers can
/// restore it.
SimdIsa force_isa(SimdIsa isa);

/// Test hook: drop the cached decision and re-resolve from CPUID +
/// QC_SIMD at the next active_isa() call.
void refresh_isa();

/// Widest block the dispatched dense and diagonal kernels take. Wider
/// blocks run the scalar tier's loops (kernels.cpp) at every tier.
inline constexpr qubit_t kMaxDispatchedWidth = 5;

/// How a dispatched block kernel walks the state (kernels.cpp builds it,
/// see block_walk there). The state is cut into segments of 2^seg_bits
/// amplitudes: segment s starts at amplitude start(s) << seg_bits, where
/// start(s) re-inserts a 0 bit into s at each of the n_high ascending
/// positions `high`. A block then spans the 2^n_high runs base + offs[j],
/// each one segment long, and the kernel walks them in vectors of
/// 2^lane_bits amplitudes. Targets below lane_bits combine inside a
/// vector; the n_high targets above it pick the run.
struct BlockWalk {
  qubit_t lane_bits = 0;
  qubit_t seg_bits = 0;
  qubit_t n_high = 0;
  qubit_t high[kMaxDispatchedWidth] = {};
  index_t offs[dim(kMaxDispatchedWidth)] = {};
};

/// One tier's microkernels for amplitude scalar T. Pointers index
/// interleaved {re, im} planes (see real_imag_planes); counts are
/// complex amplitudes.
template <typename T>
struct Microkernels {
  /// log2 of the amplitudes one vector register holds (0 at the scalar
  /// tier).
  qubit_t lane_bits;
  /// Dense k-qubit block, k = 1..5 at index k - 1, applied over the
  /// segments [s0, s1) of `walk`. `coef` holds u in one of two layouts,
  /// with m = k - walk.n_high targets inside a vector:
  ///  - m = 0 (across runs): the row-major real parts, then the
  ///    imaginary parts, 2^k x 2^k each;
  ///  - m = lane_bits (targets 0..m-1 inside a vector): for each output
  ///    run j and column c, the vectors (re, im) and (-im, re) of
  ///    u[row][c] over the lanes, row = lane | j << m.
  /// Null at the scalar tier, whose dense blocks are kernels.cpp's
  /// apply_multi_t (k >= 2) and apply_folded's run loop (k = 1).
  void (*dense[kMaxDispatchedWidth])(T* planes, const BlockWalk& walk, const T* coef, index_t s0,
                                     index_t s1);
  /// Diagonal block over the segments [s0, s1) of `walk`: run j of each
  /// segment is multiplied lane by lane by factor vector j, stored as
  /// the vectors (re, re) and (-im, im) of each lane's entry. Null at
  /// the scalar tier.
  void (*diagonal)(T* planes, const BlockWalk& walk, const T* factors, index_t s0, index_t s1);
  /// Multiplies the run by the scalar (dr + i*di).
  void (*scale)(T* p, index_t count, T dr, T di);
};

/// The table implementing `isa` for scalar T (valid for any available
/// ISA; an ISA compiled out is never active).
template <typename T>
const Microkernels<T>& microkernels_for(SimdIsa isa) noexcept;

/// The table the kernels should use right now (microkernels_for of
/// active_isa()).
template <typename T>
inline const Microkernels<T>& active_microkernels() noexcept {
  return microkernels_for<T>(active_isa());
}

/// The scalar tier's run scale, the reference of the vector tiers' one.
template <typename T>
void scale_scalar(T* p, index_t count, T dr, T di);

// The vector tiers' tables: one body (kernel_body.hpp) compiled in
// kernels_avx2.cpp and kernels_avx512.cpp with -mavx2 -mfma / -mavx512f
// when the compiler supports the flags. Without them the file compiles
// portable, *_compiled_in() reports false, and the ISA is never active.
template <typename T>
const Microkernels<T>& avx2_microkernels() noexcept;
template <typename T>
const Microkernels<T>& avx512_microkernels() noexcept;
bool avx2_compiled_in() noexcept;
bool avx512_compiled_in() noexcept;

}  // namespace qc::sim::kernels
