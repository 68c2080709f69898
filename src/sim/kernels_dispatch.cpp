#include "sim/kernels_dispatch.hpp"

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace qc::sim::kernels {

const char* isa_name(SimdIsa isa) noexcept {
  switch (isa) {
    case SimdIsa::kAvx512: return "avx512";
    case SimdIsa::kAvx2: return "avx2";
    case SimdIsa::kScalar: break;
  }
  return "scalar";
}

bool parse_isa(std::string_view name, SimdIsa& out) noexcept {
  if (name == "scalar") {
    out = SimdIsa::kScalar;
    return true;
  }
  if (name == "avx2") {
    out = SimdIsa::kAvx2;
    return true;
  }
  if (name == "avx512") {
    out = SimdIsa::kAvx512;
    return true;
  }
  return false;
}

SimdIsa detect_isa() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx512f")) return SimdIsa::kAvx512;
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) return SimdIsa::kAvx2;
#endif
  return SimdIsa::kScalar;
}

bool isa_available(SimdIsa isa) noexcept {
  switch (isa) {
    case SimdIsa::kScalar: return true;
    case SimdIsa::kAvx2: return avx2_compiled_in() && detect_isa() >= SimdIsa::kAvx2;
    case SimdIsa::kAvx512: return avx512_compiled_in() && detect_isa() >= SimdIsa::kAvx512;
  }
  return false;
}

namespace {

/// Best ISA the host can run with the variants this binary carries.
SimdIsa best_available() noexcept {
  if (isa_available(SimdIsa::kAvx512)) return SimdIsa::kAvx512;
  if (isa_available(SimdIsa::kAvx2)) return SimdIsa::kAvx2;
  return SimdIsa::kScalar;
}

/// CPUID result clamped by the QC_SIMD override. An override naming an
/// unavailable tier clamps down to the best available one; requesting a
/// lower tier than detected is honored as-is.
SimdIsa resolve_isa() noexcept {
  SimdIsa isa = best_available();
  if (const char* env = std::getenv("QC_SIMD")) {
    SimdIsa wanted{};
    if (parse_isa(env, wanted) && (wanted <= isa || isa_available(wanted))) isa = wanted;
  }
  return isa;
}

// -1 = unresolved; otherwise the cached SimdIsa value. An atomic (not a
// function-local static) so force_isa()/refresh_isa() can swap the
// decision from tests without re-running resolution.
std::atomic<int> g_active{-1};

}  // namespace

SimdIsa active_isa() noexcept {
  int cur = g_active.load(std::memory_order_acquire);
  if (cur < 0) {
    cur = static_cast<int>(resolve_isa());
    g_active.store(cur, std::memory_order_release);
  }
  return static_cast<SimdIsa>(cur);
}

SimdIsa force_isa(SimdIsa isa) {
  if (!isa_available(isa)) {
    throw std::invalid_argument(std::string{"force_isa: "} + isa_name(isa) +
                                " is not available on this host/build");
  }
  const SimdIsa prev = active_isa();
  g_active.store(static_cast<int>(isa), std::memory_order_release);
  return prev;
}

void refresh_isa() { g_active.store(-1, std::memory_order_release); }

// ---------------------------------------------------------------------
// The scalar tier: the run scale, and no block kernels (kernels.cpp
// runs its own loops). Every vector tier must match it to 1e-12 at fp64
// (tests/test_dispatch.cpp).
// ---------------------------------------------------------------------

template <typename T>
void scale_scalar(T* p, index_t count, T dr, T di) {
  for (index_t i = 0; i < 2 * count; i += 2) {
    const T xr = p[i], xi = p[i + 1];
    p[i] = xr * dr - xi * di;
    p[i + 1] = xr * di + xi * dr;
  }
}

template void scale_scalar<float>(float*, index_t, float, float);
template void scale_scalar<double>(double*, index_t, double, double);

namespace {

template <typename T>
constexpr Microkernels<T> kScalarTable{0, {}, nullptr, &scale_scalar<T>};

}  // namespace

template <typename T>
const Microkernels<T>& microkernels_for(SimdIsa isa) noexcept {
  switch (isa) {
    case SimdIsa::kAvx512: return avx512_microkernels<T>();
    case SimdIsa::kAvx2: return avx2_microkernels<T>();
    case SimdIsa::kScalar: break;
  }
  return kScalarTable<T>;
}

template const Microkernels<float>& microkernels_for<float>(SimdIsa) noexcept;
template const Microkernels<double>& microkernels_for<double>(SimdIsa) noexcept;

}  // namespace qc::sim::kernels
