// Unit tests for the common substrate: bit manipulation, RNG, aligned
// allocation (and its huge pages), CLI parsing, and table formatting.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <set>
#include <string>

#include "common/aligned.hpp"
#include "common/bits.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"

namespace qc {
namespace {

TEST(Bits, GetSetClearFlip) {
  index_t x = 0b1010;
  EXPECT_EQ(bits::get(x, 1), 1u);
  EXPECT_EQ(bits::get(x, 0), 0u);
  EXPECT_EQ(bits::set(x, 0), 0b1011u);
  EXPECT_EQ(bits::clear(x, 1), 0b1000u);
  EXPECT_EQ(bits::flip(x, 3), 0b0010u);
  EXPECT_TRUE(bits::test(x, 3));
  EXPECT_FALSE(bits::test(x, 2));
}

TEST(Bits, LowMask) {
  EXPECT_EQ(bits::low_mask(0), 0u);
  EXPECT_EQ(bits::low_mask(3), 0b111u);
  EXPECT_EQ(bits::low_mask(64), ~index_t{0});
}

TEST(Bits, InsertBitVisitsAllZeroBitIndices) {
  // insert_bit(j, k) over j in [0, 2^{n-1}) must enumerate exactly the
  // indices of an n-bit space whose bit k is zero.
  const qubit_t n = 5;
  for (qubit_t k = 0; k < n; ++k) {
    std::set<index_t> seen;
    for (index_t j = 0; j < dim(n - 1); ++j) {
      const index_t i = bits::insert_bit(j, k);
      EXPECT_FALSE(bits::test(i, k));
      EXPECT_LT(i, dim(n));
      seen.insert(i);
    }
    EXPECT_EQ(seen.size(), dim(n - 1));
  }
}

TEST(Bits, InsertThenRemoveRoundTrips) {
  for (index_t j = 0; j < 64; ++j)
    for (qubit_t k = 0; k < 7; ++k) EXPECT_EQ(bits::remove_bit(bits::insert_bit(j, k), k), j);
}

TEST(Bits, FieldExtractReplace) {
  const index_t i = 0b110'101'011;
  EXPECT_EQ(bits::field(i, 0, 3), 0b011u);
  EXPECT_EQ(bits::field(i, 3, 3), 0b101u);
  EXPECT_EQ(bits::field(i, 6, 3), 0b110u);
  EXPECT_EQ(bits::with_field(i, 3, 3, 0b000), 0b110'000'011u);
  EXPECT_EQ(bits::field(bits::with_field(i, 6, 3, 0b001), 6, 3), 0b001u);
}

TEST(Bits, ReverseIsInvolution) {
  const qubit_t n = 9;
  for (index_t i = 0; i < dim(n); ++i) {
    const index_t r = bits::reverse(i, n);
    EXPECT_LT(r, dim(n));
    EXPECT_EQ(bits::reverse(r, n), i);
  }
}

TEST(Bits, ReverseKnownValues) {
  EXPECT_EQ(bits::reverse(0b001, 3), 0b100u);
  EXPECT_EQ(bits::reverse(0b110, 3), 0b011u);
  EXPECT_EQ(bits::reverse(0b1, 1), 0b1u);
}

TEST(Bits, ParityMatchesPopcount) {
  EXPECT_EQ(bits::parity(0b1011, 0b1111), 1);
  EXPECT_EQ(bits::parity(0b1011, 0b1001), 0);
  EXPECT_EQ(bits::parity(0, ~index_t{0}), 0);
}

TEST(Bits, Pow2Helpers) {
  EXPECT_TRUE(bits::is_pow2(1));
  EXPECT_TRUE(bits::is_pow2(64));
  EXPECT_FALSE(bits::is_pow2(0));
  EXPECT_FALSE(bits::is_pow2(48));
  EXPECT_EQ(bits::log2_floor(1), 0u);
  EXPECT_EQ(bits::log2_floor(63), 5u);
  EXPECT_EQ(bits::log2_floor(64), 6u);
}

TEST(Bits, AllDistinctBelow) {
  const std::vector<qubit_t> ok{0, 3, 2};
  const std::vector<qubit_t> dup{0, 3, 3};
  const std::vector<qubit_t> high{0, 9};
  EXPECT_TRUE(bits::all_distinct_below(ok, 4));
  EXPECT_FALSE(bits::all_distinct_below(dup, 4));
  EXPECT_FALSE(bits::all_distinct_below(high, 4));
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_LT(rng.uniform_u64(17), 17u);
  }
}

TEST(Rng, UniformU64CoversRange) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_u64(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(11);
  double sum = 0, sum2 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng base(5);
  Rng f0 = base.fork(0), f1 = base.fork(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += f0.next_u64() == f1.next_u64();
  EXPECT_EQ(same, 0);
}

std::uintptr_t address(const void* p) { return reinterpret_cast<std::uintptr_t>(p); }

TEST(Aligned, VectorDataIsAligned) {
  aligned_vector<complex_t> v(1000);
  EXPECT_EQ(address(v.data()) % kAlignment, 0u);
  // From 2 MiB up a block starts on a huge page, through both allocators.
  for (const std::size_t bytes : {kHugePageBytes, 2 * kHugePageBytes}) {
    const aligned_vector<complex_t> zeroed(bytes / sizeof(complex_t));
    const uninit_aligned_vector<complex_t> uninit(bytes / sizeof(complex_t));
    EXPECT_EQ(address(zeroed.data()) % kHugePageBytes, 0u) << bytes << " bytes";
    EXPECT_EQ(address(uninit.data()) % kHugePageBytes, 0u) << bytes << " bytes";
  }
  const aligned_vector<complex_t> mib(kHugePageBytes / 2 / sizeof(complex_t));
  EXPECT_EQ(address(mib.data()) % kAlignment, 0u);
}

/// The THPeligible field of the /proc/self/smaps mapping that holds
/// address `p`, or -1 when no mapping holds it or the field is absent.
int thp_eligible(const void* p) {
  std::ifstream smaps("/proc/self/smaps");
  bool holds = false;
  std::string line;
  while (std::getline(smaps, line)) {
    // A mapping's header starts "lo-hi perms ..."; no field name has a '-'.
    const std::size_t dash = line.find('-');
    if (dash < line.find(' ')) {
      const std::uintptr_t lo = std::stoull(line.substr(0, dash), nullptr, 16);
      const std::uintptr_t hi = std::stoull(line.substr(dash + 1), nullptr, 16);
      holds = lo <= address(p) && address(p) < hi;
    } else if (holds && line.rfind("THPeligible:", 0) == 0) {
      return std::stoi(line.substr(std::string("THPeligible:").size()));
    }
  }
  return -1;
}

TEST(Aligned, HugeBlockIsThpEligible) {
  std::ifstream enabled("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string mode;
  std::getline(enabled, mode);
  if (mode.empty() || mode.find("[never]") != std::string::npos)
    GTEST_SKIP() << "transparent huge pages off on this host (mode: "
                 << (mode.empty() ? "absent" : mode) << ")";
  // Whether the kernel found free huge pages for it (AnonHugePages)
  // depends on the host; eligibility is what the allocator controls.
  uninit_aligned_vector<complex_t> v(2 * kHugePageBytes / sizeof(complex_t));
  for (complex_t& x : v) x = complex_t{1.0};
  EXPECT_EQ(thp_eligible(v.data()), 1) << "THP mode: " << mode;
}

TEST(Cli, ParsesOptionsAndPositionals) {
  const char* argv[] = {"prog", "--qubits", "20", "--full", "--name=fig1", "extra"};
  const Cli cli(6, argv);
  EXPECT_EQ(cli.get_int("qubits", 0), 20);
  EXPECT_TRUE(cli.has("full"));
  EXPECT_FALSE(cli.has("absent"));
  EXPECT_EQ(cli.get_string("name", ""), "fig1");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "extra");
  EXPECT_EQ(cli.get_int("missing", -3), -3);
}

TEST(Cli, EqualsSyntaxAndDoubles) {
  const char* argv[] = {"prog", "--dt=0.125", "--reps", "3"};
  const Cli cli(4, argv);
  EXPECT_DOUBLE_EQ(cli.get_double("dt", 0), 0.125);
  EXPECT_EQ(cli.get_int("reps", 0), 3);
}

TEST(Table, FormatsAlignedColumns) {
  Table t({"m", "time"});
  t.add_row({"2", "1.5e-3"});
  t.add_row({"10", "2.0e+1"});
  const std::string s = t.to_string("title");
  EXPECT_NE(s.find("title"), std::string::npos);
  EXPECT_NE(s.find("1.5e-3"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, SciAndFixedFormat) {
  EXPECT_EQ(sci(0.000144, 2), "1.44e-04");
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
}

TEST(Timer, MeasuresElapsed) {
  WallTimer t;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + 1.0;
  EXPECT_GT(t.seconds(), 0.0);
}

TEST(Timer, TimePerRepPositive) {
  volatile int sink = 0;
  const double per = time_per_rep([&] { sink = sink + 1; }, 0.01, 1000);
  EXPECT_GT(per, 0.0);
}

}  // namespace
}  // namespace qc
