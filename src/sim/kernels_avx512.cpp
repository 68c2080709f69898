// The AVX-512 tier of the microkernels (kernels_dispatch.hpp): the one
// body, compiled with -mavx512f (set per file in CMakeLists.txt).
#include "sim/kernel_body.hpp"

namespace qc::sim::kernels {
namespace {
struct Tier {
  static constexpr std::size_t kBytes = 64;
};
}  // namespace

bool avx512_compiled_in() noexcept {
#if defined(__AVX512F__)
  return true;
#else
  return false;
#endif
}

template <typename T>
const Microkernels<T>& avx512_microkernels() noexcept {
  static constexpr Microkernels<T> kTable = detail::KernelBody<Tier>::table<T>();
  return kTable;
}

template const Microkernels<float>& avx512_microkernels<float>() noexcept;
template const Microkernels<double>& avx512_microkernels<double>() noexcept;

}  // namespace qc::sim::kernels
