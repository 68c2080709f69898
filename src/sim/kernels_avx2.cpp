// The AVX2 tier of the microkernels (kernels_dispatch.hpp): the one
// body, compiled with -mavx2 -mfma (set per file in CMakeLists.txt).
#include "sim/kernel_body.hpp"

namespace qc::sim::kernels {
namespace {
struct Tier {
  static constexpr std::size_t kBytes = 32;
};
}  // namespace

bool avx2_compiled_in() noexcept {
#if defined(__AVX2__) && defined(__FMA__)
  return true;
#else
  return false;
#endif
}

template <typename T>
const Microkernels<T>& avx2_microkernels() noexcept {
  static constexpr Microkernels<T> kTable = detail::KernelBody<Tier>::table<T>();
  return kTable;
}

template const Microkernels<float>& avx2_microkernels<float>() noexcept;
template const Microkernels<double>& avx2_microkernels<double>() noexcept;

}  // namespace qc::sim::kernels
