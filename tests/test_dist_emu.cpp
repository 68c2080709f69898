// Tests for distributed emulation: the global-permutation arithmetic of
// §4.2 and the distributed QFT shortcut, all against the serial
// emulator / serial gate-level results.
#include <gtest/gtest.h>

#include <memory>

#include "circuit/builders.hpp"
#include "emu/dist_emu.hpp"
#include "emu/observables.hpp"
#include "sim/simulator.hpp"

namespace qc::emu {
namespace {

using sim::DistStateVector;
using sim::StateVector;

struct Case {
  qubit_t n;
  int ranks;
};

class DistPermutation : public ::testing::TestWithParam<Case> {};

TEST_P(DistPermutation, MatchesSerialEmulator) {
  const auto [n, ranks] = GetParam();
  StateVector serial(n);
  serial.randomize_deterministic(n * 31);
  Emulator semu(serial);
  const index_t mask = bits::low_mask(n);
  const auto f = [mask](index_t i) { return (i ^ (i >> 3) ^ 0x2b) & mask ^ (i << 2 & mask); };
  // Make an honest bijection instead: multiply by odd constant mod 2^n.
  const auto g = [mask](index_t i) { return (i * 5 + 3) & mask; };
  (void)f;
  semu.apply_permutation(g);

  cluster::Cluster cluster(ranks, 1);
  cluster.run([&](cluster::Comm& comm) {
    DistStateVector dsv(comm, n);
    dsv.randomize(n * 31);
    DistEmulator demu(dsv);
    demu.apply_permutation(g);
    const StateVector gathered = dsv.gather_all();
    EXPECT_LT(gathered.max_abs_diff(serial), 1e-14);
  });
}

INSTANTIATE_TEST_SUITE_P(Cases, DistPermutation,
                         ::testing::Values(Case{6, 1}, Case{6, 2}, Case{8, 4}, Case{9, 8},
                                           Case{10, 4}, Case{12, 16}));

class DistArithmetic : public ::testing::TestWithParam<Case> {};

TEST_P(DistArithmetic, MultiplyMatchesSerial) {
  const auto [n, ranks] = GetParam();
  const qubit_t m = n / 3;
  if (m == 0) GTEST_SKIP();
  const RegRef a{0, m}, b{m, m}, c{static_cast<qubit_t>(2 * m), m};

  StateVector serial(n);
  serial.randomize_deterministic(n * 57);
  Emulator semu(serial);
  semu.multiply(a, b, c);

  cluster::Cluster cluster(ranks, 1);
  cluster.run([&](cluster::Comm& comm) {
    DistStateVector dsv(comm, n);
    dsv.randomize(n * 57);
    DistEmulator demu(dsv);
    demu.multiply(a, b, c);
    EXPECT_LT(dsv.gather_all().max_abs_diff(serial), 1e-14);
  });
}

TEST_P(DistArithmetic, AddMatchesSerial) {
  const auto [n, ranks] = GetParam();
  const qubit_t w = n / 2;
  const RegRef a{0, w}, b{w, w};
  StateVector serial(n);
  serial.randomize_deterministic(n * 77);
  Emulator semu(serial);
  semu.add(a, b);

  cluster::Cluster cluster(ranks, 1);
  cluster.run([&](cluster::Comm& comm) {
    DistStateVector dsv(comm, n);
    dsv.randomize(n * 77);
    DistEmulator demu(dsv);
    demu.add(a, b);
    EXPECT_LT(dsv.gather_all().max_abs_diff(serial), 1e-14);
  });
}

INSTANTIATE_TEST_SUITE_P(Cases, DistArithmetic,
                         ::testing::Values(Case{6, 2}, Case{9, 4}, Case{12, 8}));

TEST(DistEmulator, DivideMatchesSerialOnPreparedState) {
  // Division needs c = 0 support: superpose a and b only.
  const qubit_t m = 3, n = 9;
  const int ranks = 4;
  const RegRef a{0, m}, b{m, m}, c{2 * m, m};

  StateVector serial(n);
  {
    circuit::Circuit prep(n);
    for (qubit_t q = 0; q < 2 * m; ++q) prep.h(q);
    sim::apply_circuit_hpc(serial.amplitudes(), prep);
  }
  Emulator semu(serial);
  semu.divide(a, b, c);

  cluster::Cluster cluster(ranks, 1);
  cluster.run([&](cluster::Comm& comm) {
    DistStateVector dsv(comm, n);
    dsv.set_basis(0);
    dsv.run([&] {
      circuit::Circuit prep(n);
      for (qubit_t q = 0; q < 2 * m; ++q) prep.h(q);
      return prep;
    }(), sim::CommPolicy::Specialized);
    DistEmulator demu(dsv);
    demu.divide(a, b, c);
    EXPECT_LT(dsv.gather_all().max_abs_diff(serial), 1e-13);
  });
}

TEST(DistEmulator, PartialMapCollisionAborts) {
  cluster::Cluster cluster(2, 1);
  EXPECT_THROW(cluster.run([](cluster::Comm& comm) {
                 DistStateVector dsv(comm, 4);
                 // Uniform state: every amplitude nonzero.
                 dsv.randomize(1);
                 DistEmulator demu(dsv);
                 demu.apply_partial_map([](index_t) { return index_t{0}; });
               }),
               std::logic_error);
}

TEST(DistEmulator, MapOutOfRangeThrows) {
  cluster::Cluster cluster(2, 1);
  EXPECT_THROW(cluster.run([](cluster::Comm& comm) {
                 DistStateVector dsv(comm, 4);
                 DistEmulator demu(dsv);
                 demu.apply_permutation([](index_t i) { return i + 1000; });
               }),
               std::invalid_argument);
}

TEST(DistEmulator, QftMatchesSerialCircuit) {
  const qubit_t n = 10;
  StateVector serial(n);
  serial.randomize_deterministic(404);
  sim::apply_circuit_hpc(serial.amplitudes(), circuit::qft(n));

  for (const int ranks : {1, 2, 4, 8}) {
    cluster::Cluster cluster(ranks, 1);
    cluster.run([&](cluster::Comm& comm) {
      DistStateVector dsv(comm, n);
      dsv.randomize(404);
      DistEmulator demu(dsv);
      const fft::DistFftStats stats = demu.qft();
      EXPECT_LT(dsv.gather_all().max_abs_diff(serial), 1e-11) << "ranks=" << ranks;
      EXPECT_GT(stats.total(), 0.0);
    });
  }
}

TEST(DistEmulator, QftRoundTrip) {
  const qubit_t n = 9;
  cluster::Cluster cluster(4, 1);
  cluster.run([&](cluster::Comm& comm) {
    DistStateVector dsv(comm, n);
    dsv.randomize(31);
    const StateVector before = dsv.gather_all();
    DistEmulator demu(dsv);
    demu.qft();
    demu.inverse_qft();
    EXPECT_LT(dsv.gather_all().max_abs_diff(before), 1e-11);
  });
}

TEST(DistEmulator, PermutationPreservesNorm) {
  cluster::Cluster cluster(4, 1);
  cluster.run([](cluster::Comm& comm) {
    DistStateVector dsv(comm, 10);
    dsv.randomize(8);
    DistEmulator demu(dsv);
    const index_t mask = bits::low_mask(10);
    demu.apply_permutation([mask](index_t i) { return (i * 13 + 7) & mask; });
    EXPECT_NEAR(dsv.norm_sq(), 1.0, 1e-12);
  });
}

TEST(DistEmulator, ResidentStateAcrossSessionJobs) {
  // Distributed emulation through a persistent session: the per-rank
  // state is constructed in one submitted job and *stays resident*
  // across further submissions (arithmetic, QFT round trip, readout) —
  // the ownership model the dist backend runs on, with no per-job
  // scatter or gather.
  const qubit_t n = 9;
  const int ranks = 4;
  const index_t mask = bits::low_mask(n);

  StateVector serial(n);
  serial.randomize_deterministic(606);
  Emulator semu(serial);
  semu.apply_permutation([mask](index_t i) { return (i * 9 + 5) & mask; });

  cluster::ClusterSession session(ranks, 1);
  std::vector<std::unique_ptr<DistStateVector>> slots(ranks);
  session.submit([&](cluster::Comm& comm) {
    auto dsv = std::make_unique<DistStateVector>(comm, n);
    dsv->randomize(606);
    slots[static_cast<std::size_t>(comm.rank())] = std::move(dsv);
  });
  session.submit([&](cluster::Comm& comm) {
    DistEmulator demu(*slots[static_cast<std::size_t>(comm.rank())]);
    demu.apply_permutation([mask](index_t i) { return (i * 9 + 5) & mask; });
  });
  session.submit([&](cluster::Comm& comm) {
    DistEmulator demu(*slots[static_cast<std::size_t>(comm.rank())]);
    demu.qft();
    demu.inverse_qft();
  });
  double diff = -1;
  session.submit([&](cluster::Comm& comm) {
    const StateVector gathered =
        slots[static_cast<std::size_t>(comm.rank())]->gather_all();
    if (comm.rank() == 0) diff = gathered.max_abs_diff(serial);
  });
  session.sync();
  EXPECT_GE(diff, 0.0);
  EXPECT_LT(diff, 1e-11);
}

TEST(DistObservables, ExpectationZStringMatchesSerial) {
  const qubit_t n = 9;
  StateVector serial(n);
  serial.randomize_deterministic(63);
  for (const int ranks : {1, 2, 8}) {
    cluster::Cluster cluster(ranks, 1);
    cluster.run([&](cluster::Comm& comm) {
      DistStateVector dsv(comm, n);
      dsv.randomize(63);
      // Masks covering local-only, global-only, and straddling strings.
      for (const index_t mask : {index_t{0b1}, index_t{0b110000000}, index_t{0b101010101}})
        EXPECT_NEAR(expectation_z_string(dsv, mask),
                    expectation_z_string(serial, mask), 1e-12)
            << "ranks=" << ranks << " mask=" << mask;
    });
  }
}

}  // namespace
}  // namespace qc::emu
