// qc-analyze: treat-as src/common/fixture.cpp
// Fixture corpus: rules raw-shift (`1 << k` shifts at int width, which
// is undefined behaviour once k reaches 31, while amplitude and rank
// indices are 64-bit) and naked-new (library code owns every allocation
// from the first instruction). The treat-as pragma places this file
// under src/, where both rules apply. Never compiled — analyzer input
// only.
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bits.hpp"

using qc::index_t;
using qc::qubit_t;

struct Node {
  int v = 0;
};

// --- raw-shift positives ----------------------------------------------

index_t int_shift(qubit_t k) {
  return 1 << k;  // expect: raw-shift
}

std::uint32_t unsigned_shift(qubit_t k) {
  return 1u << k;  // expect: raw-shift
}

index_t parenthesized_count(int k) {
  return 1U << (k + 1);  // expect: raw-shift
}

// Braces make no typed literal: the shift happens first, at int width.
index_t braced_shift(qubit_t k) {
  return index_t{1 << k};  // expect: raw-shift
}

// Macro bodies are code too.
#define FIXTURE_BIT(k) (1 << (k))  // expect: raw-shift

std::size_t shift_in_a_loop_bound(qubit_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < (1<<n); ++i) total += i;  // expect: raw-shift
  return total;
}

// --- raw-shift negatives ----------------------------------------------

index_t typed_literal(qubit_t k) { return index_t{1} << k; }
index_t suffix_ull(qubit_t k) { return 1ull << k; }
index_t suffix_ul(qubit_t k) { return 1UL << k; }
index_t literal_count() { return 1 << 20; }
index_t sizeof_count() { return 1 << sizeof(std::uint16_t); }
index_t sanctioned(qubit_t k) { return qc::bits::bit(k); }
index_t wider_one(qubit_t k) { return static_cast<index_t>(1) << k; }
// A 1 << k in a comment is prose, not code.
const char* kShiftDoc = "1 << k";
bool less_than_one(int a, int b) { return a < 1 && b < 1; }

// --- naked-new positives ----------------------------------------------

int* naked_scalar() {
  return new int(7);  // expect: naked-new
}

double* naked_array(std::size_t n) {
  return new double[n];  // expect: naked-new
}

std::vector<int>* naked_qualified() {
  return new std::vector<int>(4);  // expect: naked-new
}

std::unique_ptr<Node> adopted_too_late() {
  return std::unique_ptr<Node>(new Node{});  // expect: naked-new
}

Node* global_new() {
  return ::new Node;  // expect: naked-new
}

// --- naked-new negatives ----------------------------------------------

std::unique_ptr<Node> owned() { return std::make_unique<Node>(); }
std::shared_ptr<Node> shared() { return std::make_shared<Node>(); }
std::vector<Node> contained(std::size_t n) { return std::vector<Node>(n); }
// A new Node in a comment allocates nothing.
const char* kNewDoc = "new Node";
