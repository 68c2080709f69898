// The AVX-512 tier of the FFT codelets (codelets.hpp): the one body,
// compiled with -mavx512f (set per file in CMakeLists.txt).
#include "fft/codelets.hpp"

#include "fft/codelet_body.hpp"

namespace qc::fft::detail {
namespace {
struct Tier {};
}  // namespace

const Codelets& avx512_codelets() noexcept {
  static constexpr Codelets kTable = CodeletBody<Tier>::table();
  return kTable;
}

}  // namespace qc::fft::detail
