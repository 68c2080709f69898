// qc-analyze: treat-as src/sim/fixture.cpp
// Fixture corpus: rule fault-site (library communication call sites must
// be dominated by a named fault_point so the fault campaign can reach
// them). The treat-as pragma places this file under src/, where the rule
// applies. Never compiled — analyzer input only.
#include <cstddef>
#include <span>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/fault.hpp"

using qc::cluster::Comm;

void accumulate(std::span<double> chunk);
int peer_of(Comm& comm);

// --- positives --------------------------------------------------------

// No fault_point anywhere in the scope: the campaign cannot inject
// aborts/delays/timeouts into this exchange.
void chunk_exchange(Comm& comm, std::span<double> chunk) {
  const int partner = comm.rank() ^ 1;
  comm.send<double>(partner, chunk, 2);  // expect: fault-site
  accumulate(chunk);
  comm.recv<double>(partner, chunk, 2);  // expect: fault-site
}

// fault_point placed after the first communication call: the send above
// it is still uninstrumented (the recv below is covered).
void late_instrumentation(Comm& comm, std::span<const std::byte> out,
                          std::span<std::byte> in) {
  comm.send_bytes(1, out, 4);  // expect: fault-site
  qc::cluster::fault_point("sim.late_exchange", comm.rank());
  comm.recv_bytes(1, in, 4);
}

// The closure runs on a rank thread: a fault_point in the submitting
// function's scope does not dominate the communication inside it.
void exchange_via_job(qc::cluster::ClusterSession& session) {
  qc::cluster::fault_point("sim.submit", 0);
  session.submit([](Comm& comm) {
    std::vector<double> buf(8, 0.0);
    comm.send<double>(peer_of(comm), buf, 9);  // expect: fault-site
    accumulate(buf);
    comm.recv<double>(peer_of(comm), buf, 9);  // expect: fault-site
  });
}

// A one-sided motion opened without a fault_point: its expose is the
// communication call the campaign cannot fail.
void uninstrumented_pull(Comm& comm, std::span<const double> out, std::span<double> in) {
  comm.expose<double>(out);  // expect: fault-site
  comm.barrier();
  const std::span<const double> peer = comm.window<double>(comm.rank() ^ 1);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = peer[i];
  comm.barrier();
}

// --- negatives --------------------------------------------------------

// fault_point ahead of the communication: the campaign can reach it.
void instrumented_exchange(Comm& comm, std::span<const double> out, std::span<double> in) {
  qc::cluster::fault_point("sim.fixture_exchange", comm.rank());
  comm.expose<double>(out);
  comm.barrier();
  const std::span<const double> peer = comm.window<double>(comm.rank() ^ 1);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = peer[i];
  comm.barrier();
}

// Transport wrappers are the layer the fault campaign injects *into*;
// a scope named after one is exempt.
struct ByteLink {
  Comm& raw_;
  void send_bytes(int dst, std::span<const std::byte> data, int tag) {
    raw_.send_bytes(dst, data, tag);
  }
};

// No communication at all: nothing to instrument.
void pure_compute(std::span<double> chunk) {
  for (double& v : chunk) v = v * v;
}
