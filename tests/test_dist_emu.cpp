// Tests for distributed emulation: the global-permutation arithmetic of
// §4.2 and the distributed QFT shortcut, all against the serial
// emulator / serial gate-level results; and the swap contract every rank
// data motion keeps.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "circuit/builders.hpp"
#include "cluster/fault.hpp"
#include "emu/dist_emu.hpp"
#include "fft/dist_fft.hpp"
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
  // A bijection: multiply by an odd constant mod 2^n.
  const auto g = [mask](index_t i) { return (i * 5 + 3) & mask; };
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

TEST(DistEmulator, InvalidRegistersThrow) {
  // Overlapping and out-of-range registers are rejected as Emulator
  // rejects them, before any rank routes an amplitude.
  const RegRef lo{0, 3}, hi{3, 3}, past_end{4, 3};
  const std::vector<std::function<void(DistEmulator&)>> ops{
      [&](DistEmulator& e) { e.add(lo, lo); },
      [&](DistEmulator& e) { e.add(lo, past_end); },
      [&](DistEmulator& e) { e.multiply(lo, hi, lo); },
      [&](DistEmulator& e) { e.multiply(lo, hi, past_end); },
      [&](DistEmulator& e) { e.divide(lo, lo, hi); },
      [&](DistEmulator& e) { e.divide(past_end, lo, hi); },
  };
  for (const int ranks : {1, 4})
    for (std::size_t k = 0; k < ops.size(); ++k) {
      cluster::Cluster cluster(ranks, 1);
      EXPECT_THROW(cluster.run([&](cluster::Comm& comm) {
                     DistStateVector dsv(comm, 6);
                     DistEmulator demu(dsv);
                     ops[k](demu);
                   }),
                   std::invalid_argument)
          << "ranks=" << ranks << " op=" << k;
    }
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
      demu.qft();
      EXPECT_LT(dsv.gather_all().max_abs_diff(serial), 1e-11) << "ranks=" << ranks;
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


// --- the swap contract of the rank data motions ----------------------------

/// A rank data motion on one rank's resident state.
using Motion = std::function<void(DistStateVector&)>;

/// Every rank's chunk, copied.
std::vector<std::vector<complex_t>> chunks_of(
    const std::vector<std::unique_ptr<DistStateVector>>& slots) {
  std::vector<std::vector<complex_t>> out;
  for (const auto& s : slots) out.emplace_back(s->local().begin(), s->local().end());
  return out;
}

bool bytes_equal(const std::vector<std::vector<complex_t>>& a,
                 const std::vector<std::vector<complex_t>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t r = 0; r < a.size(); ++r)
    if (a[r].size() != b[r].size() ||
        std::memcmp(a[r].data(), b[r].data(), a[r].size() * sizeof(complex_t)) != 0)
      return false;
  return true;
}

/// Runs `motion` on resident random states over 4 ranks: once fault-free
/// on a fresh session, then on a second session with rank 1 aborted at
/// `site` and, separately, at the motion's second fence. Each abort must
/// leave every chunk byte-identical to its bytes before the motion; the
/// same session must then complete the motion with the fault-free answer.
void expect_swap_contract(const std::string& site, const Motion& motion) {
  constexpr qubit_t n = 10;
  constexpr int kRanks = 4;
  const auto run_on = [&](cluster::ClusterSession& session,
                          std::vector<std::unique_ptr<DistStateVector>>& slots) {
    session.run([&](cluster::Comm& comm) {
      motion(*slots[static_cast<std::size_t>(comm.rank())]);
    });
  };
  const auto fresh = [&](cluster::ClusterSession& session,
                         std::vector<std::unique_ptr<DistStateVector>>& slots) {
    slots.resize(kRanks);
    session.run([&](cluster::Comm& comm) {
      auto& s = slots[static_cast<std::size_t>(comm.rank())];
      s = std::make_unique<DistStateVector>(comm, n);
      s->randomize(77);
    });
  };

  std::vector<std::unique_ptr<DistStateVector>> ref_slots;
  cluster::ClusterSession ref_session(kRanks, 1);
  fresh(ref_session, ref_slots);
  run_on(ref_session, ref_slots);
  const auto expected = chunks_of(ref_slots);

  // Barrier visits count from the injector's installation, and each
  // motion's first fence is its first barrier: visit 1 is its second.
  for (const std::string& rule : {"abort@" + site + "#0/1", std::string("abort@cluster.barrier#1/1")}) {
    std::vector<std::unique_ptr<DistStateVector>> slots;
    cluster::ClusterSession session(kRanks, 1);
    fresh(session, slots);
    const auto before = chunks_of(slots);
    {
      cluster::FaultInjector inj = cluster::FaultInjector::parse(rule);
      const cluster::ScopedFaultInjector scoped(&inj);
      EXPECT_THROW(run_on(session, slots), cluster::InjectedFault) << rule;
      EXPECT_EQ(inj.fired(), 1u) << rule;
    }
    EXPECT_TRUE(bytes_equal(chunks_of(slots), before)) << rule << ": a chunk changed";
    run_on(session, slots);
    EXPECT_TRUE(bytes_equal(chunks_of(slots), expected)) << rule << ": retry differs";
  }
}

TEST(SwapContract, PerGateExchange) {
  expect_swap_contract("dist.exchange", [](DistStateVector& dsv) {
    dsv.apply_gate(circuit::make_gate(circuit::GateKind::H, 9), sim::CommPolicy::Specialized);
  });
  // A local control and a global one: rank 1 combines half its pairs,
  // and the ranks whose global control is unset join only the fences.
  expect_swap_contract("dist.exchange", [](DistStateVector& dsv) {
    circuit::Gate g = circuit::make_controlled(circuit::GateKind::X, 8, 9);
    g.controls.push_back(2);
    dsv.apply_gate(g, sim::CommPolicy::Specialized);
  });
}

TEST(SwapContract, SwapRound) {
  // A crossing pair with a local pair, then a global-global pair.
  const std::vector<std::array<qubit_t, 2>> pairs = {{0, 8}, {1, 2}};
  expect_swap_contract("dist.exchange_pass", [&pairs](DistStateVector& dsv) {
    dsv.apply_qubit_swaps(pairs);
  });
  const std::vector<std::array<qubit_t, 2>> global = {{8, 9}};
  expect_swap_contract("dist.exchange_pass", [&global](DistStateVector& dsv) {
    dsv.apply_qubit_swaps(global);
  });
}

TEST(SwapContract, Transpose) {
  expect_swap_contract("dist.exchange_pass", [](DistStateVector& dsv) {
    std::uint64_t sent = 0;
    fft::dist_transpose<double>(dsv.comm(), dsv.local(), dsv.scratch(), 32, 32, sent);
    dsv.swap_scratch();
  });
}

TEST(SwapContract, Route) {
  expect_swap_contract("dist.exchange_pass",
                       [](DistStateVector& dsv) { DistEmulator(dsv).add({0, 5}, {5, 5}); });
}

}  // namespace
}  // namespace qc::emu
