// qc-analyze: treat-as src/emu/fixture.cpp
// Fixture corpus: the one-sided surface — expose, the barrier as its
// fence, and window — under rule collective-divergence. Seeded positives
// carry `expect:` markers; everything else must stay clean. Never
// compiled — analyzer input only.
#include <cstddef>
#include <span>

#include "cluster/cluster.hpp"
#include "cluster/fault.hpp"

using qc::cluster::Comm;

// --- positives --------------------------------------------------------

// Only even ranks expose: their odd peers read whatever window the last
// motion left behind.
void expose_under_rank_branch(Comm& comm, std::span<const double> chunk,
                              std::span<double> out) {
  qc::cluster::fault_point("emu.fixture_pull", comm.rank());
  if (comm.rank() % 2 == 0) {
    comm.expose<double>(chunk);  // expect: collective-divergence
  }
  comm.barrier();
  const std::span<const double> w = comm.window<double>(comm.rank() ^ 1);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = w[i];
  comm.barrier();
}

// The ranks that pull fence a second time, the ones that sit the motion
// out do not: the pullers wait at that fence forever.
void second_fence_under_rank_branch(Comm& comm, std::span<const double> chunk,
                                    std::span<double> out) {
  qc::cluster::fault_point("emu.fixture_pull", comm.rank());
  comm.expose<double>(chunk);
  comm.barrier();
  const bool pulls = comm.rank() != 0;
  if (pulls) {
    const std::span<const double> w = comm.window<double>(comm.rank() ^ 1);
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = w[i];
    comm.barrier();  // expect: collective-divergence
  }
}

// --- negatives --------------------------------------------------------

// Every rank exposes and fences; only the pull depends on the rank — the
// per-gate exchange's ranks whose global controls leave them out.
void uniform_fences_rank_dependent_pull(Comm& comm, std::span<const double> chunk,
                                        std::span<double> out) {
  qc::cluster::fault_point("emu.fixture_pull", comm.rank());
  comm.expose<double>(chunk);
  comm.barrier();
  if (comm.rank() % 2 == 0) {
    const std::span<const double> w = comm.window<double>(comm.rank() + 1);
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = w[i];
  }
  comm.barrier();
}

// The peer read depends on the rank, the collectives do not.
void ring_pull(Comm& comm, std::span<const float> chunk, std::span<float> out) {
  qc::cluster::fault_point("emu.fixture_ring", comm.rank());
  comm.expose<float>(chunk);
  comm.barrier();
  const int prev = (comm.rank() + comm.size() - 1) % comm.size();
  const std::span<const float> w = comm.window<float>(prev);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = w[i];
  comm.barrier();
}
