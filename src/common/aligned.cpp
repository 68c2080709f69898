#include "common/aligned.hpp"

#include <sys/mman.h>

#include <cstdlib>

namespace qc {

void* allocate_aligned(std::size_t bytes) {
  const std::size_t align = bytes < kHugePageBytes ? kAlignment : kHugePageBytes;
  // aligned_alloc wants a whole number of alignments (the sanitizers'
  // allocators enforce it).
  const std::size_t len = (bytes + align - 1) / align * align;
  void* p = std::aligned_alloc(align, len);
  if (p == nullptr) throw std::bad_alloc{};
  // Only a hint: it fails or is ignored where THP is absent or `never`,
  // and the block then stays on 4 KiB pages.
  if (align == kHugePageBytes) madvise(p, len, MADV_HUGEPAGE);
  return p;
}

}  // namespace qc
