// qc-analyze: treat-as tests/fixture.cpp
// Fixture corpus: the two token rules outside library code. naked-new
// is a library rule, so test code may allocate with `new`; raw-shift
// covers every source root, tests included. Never compiled — analyzer
// input only.
#include <cstdint>
#include <memory>

std::unique_ptr<int> test_owns_raw_allocation() {
  return std::unique_ptr<int>(new int(3));
}

std::uint64_t test_mask(int k) {
  return (1 << k) - 1;  // expect: raw-shift
}
