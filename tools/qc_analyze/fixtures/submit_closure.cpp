// qc-analyze: treat-as tests/fixture.cpp
// Fixture corpus: rule submit-closure (closures handed to
// ClusterSession::submit/run execute on rank threads where a throw
// unwinds through abort/recovery; anything acquired must release
// itself). The AST version also sees through same-file helpers called
// from the closure — the case the old regex rule could not reach.
// Never compiled — analyzer input only.
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "cluster/cluster.hpp"

using qc::cluster::ClusterSession;
using qc::cluster::Comm;

// Same-file helper with a hidden allocation: calling it from a closure
// must be flagged at the allocation, attributed via the helper.
void fill_scratch(double** out, std::size_t n) {
  *out = static_cast<double*>(malloc(n * sizeof(double)));  // expect: submit-closure
}

void scale_buffer(std::vector<double>& buf, int k) {
  for (double& v : buf) v *= static_cast<double>(k);
}

// --- positives --------------------------------------------------------

void closure_locks_mutex(ClusterSession& session, std::mutex& m,
                         std::vector<int>& acc) {
  session.submit([&](Comm& comm) {
    m.lock();  // expect: submit-closure
    acc.push_back(comm.rank());
    m.unlock();  // expect: submit-closure
  });
}

void closure_naked_new(ClusterSession& session) {
  session.submit([](Comm&) {
    auto* scratch = new double[64];  // expect: submit-closure
    scratch[0] = 1.0;
    delete[] scratch;
  });
}

void closure_calls_unsafe_helper(ClusterSession& session) {
  session.submit([](Comm&) {
    double* buf = nullptr;
    fill_scratch(&buf, 32);
    free(buf);  // expect: submit-closure
  });
}

// The dist backend's retry primitive submits the closure it is handed.
void closure_through_run_job(std::mutex& m, std::vector<int>& acc) {
  run_job(Recovery::kInPlace, [&](Comm& comm) {
    m.lock();  // expect: submit-closure
    acc.push_back(comm.rank());
    m.unlock();  // expect: submit-closure
  });
}

// --- negatives --------------------------------------------------------

// RAII lock: releases itself when the job throws.
void closure_raii_lock(ClusterSession& session, std::mutex& m,
                       std::vector<int>& acc) {
  session.submit([&](Comm& comm) {
    const std::lock_guard<std::mutex> hold(m);
    acc.push_back(comm.rank());
  });
}

// Containers and unique_ptr own their memory through an unwind.
void closure_uses_containers(ClusterSession& session) {
  session.run([](Comm& comm) {
    std::vector<double> scratch(64, 0.0);
    auto owned = std::make_unique<double[]>(16);
    scratch[0] = static_cast<double>(comm.rank());
    owned[0] = scratch[0];
  });
}

// The rule is about rank closures: a bare lock outside submit()/run()
// is not its business (other review gates handle that).
void lock_outside_closure(std::mutex& m) {
  m.lock();
  m.unlock();
}

// Calling a clean helper from a closure is fine.
void closure_calls_safe_helper(ClusterSession& session,
                               std::vector<double>& out) {
  session.submit([&out](Comm& comm) { scale_buffer(out, comm.size()); });
}
