// The portable tier of the FFT codelets (codelets.hpp), and the table
// lookup. Compiled with the build's own flags: this is the scalar tier
// and the reference every other tier is tested against.
#include "fft/codelets.hpp"

#include "fft/codelet_body.hpp"

namespace qc::fft::detail {
namespace {
struct Tier {};
}  // namespace

const Codelets& scalar_codelets() noexcept {
  static constexpr Codelets kTable = CodeletBody<Tier>::table();
  return kTable;
}

const Codelets& codelets_for(sim::kernels::SimdIsa isa) noexcept {
  switch (isa) {
    case sim::kernels::SimdIsa::kAvx512: return avx512_codelets();
    case sim::kernels::SimdIsa::kAvx2: return avx2_codelets();
    case sim::kernels::SimdIsa::kScalar: break;
  }
  return scalar_codelets();
}

}  // namespace qc::fft::detail
