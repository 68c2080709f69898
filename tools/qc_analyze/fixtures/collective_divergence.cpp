// qc-analyze: treat-as tests/fixture.cpp
// Fixture corpus: rule collective-divergence. Seeded positives carry
// `expect:` markers; everything else must stay clean (false positives
// here fail tests/test_qc_analyze.py). Never compiled — analyzer input.
#include <span>
#include <vector>

#include "cluster/cluster.hpp"

using qc::cluster::Comm;
using index_t = long long;

void log_line(const char* msg);

// --- positives --------------------------------------------------------

// Direct rank condition: only rank 0 arrives, everyone else deadlocks.
void direct_divergence(Comm& comm) {
  if (comm.rank() == 0) {
    comm.barrier();  // expect: collective-divergence
  }
}

// Data-dependent: `leader` is computed from rank(), so the condition is
// rank-divergent even though rank() never appears in it.
void data_dependent_divergence(Comm& comm, std::span<double> all) {
  const int leader = comm.rank() % 2;
  std::vector<double> local(4, 0.0);
  if (leader == 0) {
    comm.allgather<double>(local, all);  // expect: collective-divergence
  }
}

// Early exit: ranks != 0 return before the expose, so the collective
// below the guard is divergent even though it looks unconditional.
void early_exit_divergence(Comm& comm, std::span<const index_t> out) {
  if (comm.rank() != 0) return;
  comm.expose<index_t>(out);  // expect: collective-divergence
}

// Switch on the rank: only the 0 arm reaches the barrier.
void switch_divergence(Comm& comm) {
  switch (comm.rank()) {
    case 0:
      comm.barrier();  // expect: collective-divergence
      break;
    default:
      break;
  }
}

// One-level wrapper: sync_everyone() is a plain helper whose body is a
// barrier, so calling it under a rank condition is the same deadlock.
void sync_everyone(Comm& comm) { comm.barrier(); }

void wrapper_divergence(Comm& comm) {
  if (comm.rank() == 0) {
    sync_everyone(comm);  // expect: collective-divergence
  }
}

// --- negatives --------------------------------------------------------

// Rank-uniform condition: every rank sees the same size().
void size_guarded_barrier(Comm& comm) {
  if (comm.size() > 1) comm.barrier();
}

// Divergent branch does no communication; the barrier after it is
// reached by every rank.
void divergent_logging_uniform_barrier(Comm& comm) {
  if (comm.rank() == 0) log_line("leader checkpointing");
  comm.barrier();
}

// Loop over roots: the bound is size(), uniform across ranks, so each
// iteration's expose and fences are executed by everyone; only which
// window a rank reads depends on the root.
void all_roots_pull(Comm& comm, std::span<const double> data, std::span<double> got) {
  for (int root = 0; root < comm.size(); ++root) {
    comm.expose<double>(data);
    comm.barrier();
    const std::span<const double> w = comm.window<double>(root);
    for (std::size_t i = 0; i < got.size(); ++i) got[i] = w[i];
    comm.barrier();
  }
}

// Rank-dependent control flow around pure compute is fine.
void rank_partitioned_compute(Comm& comm, std::span<double> chunk) {
  if (comm.rank() % 2 == 0) {
    for (double& v : chunk) v *= 2.0;
  }
  const double total = comm.allreduce_sum(chunk.empty() ? 0.0 : chunk[0]);
  (void)total;
}
