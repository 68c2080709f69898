// qc-analyze: treat-as tests/fixture.cpp
// Fixture corpus: rules p2p-unmatched, p2p-sendrecv, p2p-tag-collision.
// Seeded positives carry `expect:` markers; everything else must stay
// clean. Never compiled — analyzer input only.
#include <cstddef>
#include <span>
#include <vector>

#include "cluster/cluster.hpp"

using qc::cluster::Comm;

// --- p2p-unmatched: positives ----------------------------------------

// The tags disagree, so neither side ever completes: the send's payload
// waits under tag 3 while the recv blocks on tag 4.
void mismatched_tags(Comm& comm, std::span<double> buf) {
  const int partner = comm.rank() ^ 1;
  comm.send<double>(partner, buf, 3);  // expect: p2p-unmatched
  comm.recv<double>(partner, buf, 4);  // expect: p2p-unmatched
}

// A recv with no send anywhere in the job: blocks until abort/timeout.
void recv_without_send(Comm& comm, std::span<int> buf) {
  if (comm.rank() != 0) {
    comm.recv<int>(0, buf);  // expect: p2p-unmatched
  }
}

// --- p2p-unmatched: negatives ----------------------------------------

// Cross-branch matched: root sends under tag 11, leaves recv tag 11.
void root_scatter(Comm& comm, std::span<const float> parts, std::span<float> mine) {
  const std::size_t block = mine.size();
  if (comm.rank() == 0) {
    for (int r = 1; r < comm.size(); ++r) {
      comm.send<float>(r, parts.subspan(static_cast<std::size_t>(r) * block, block), 11);
    }
  } else {
    comm.recv<float>(0, mine, 11);
  }
}

// A one-sided exchange sends no message, so there is nothing to match.
void symmetric_exchange(Comm& comm, std::span<const double> out, std::span<double> in) {
  comm.expose<double>(out);
  comm.barrier();
  const std::span<const double> peer = comm.window<double>(comm.rank() ^ 1);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = peer[i];
  comm.barrier();
}

// --- p2p-sendrecv: positives -----------------------------------------

// Send-then-recv head to head with the same peer and tag: correct under
// the eager transport, a deadlock under a rendezvous one.
void head_to_head_default_tag(Comm& comm, std::span<double> buf) {
  const int partner = comm.rank() ^ 1;
  comm.send<double>(partner, buf);  // expect: p2p-sendrecv
  comm.recv<double>(partner, buf);
}

void head_to_head_tagged(Comm& comm, std::span<int> out, std::span<int> in) {
  comm.send<int>(comm.rank() ^ 2, out, 5);  // expect: p2p-sendrecv
  comm.recv<int>(comm.rank() ^ 2, in, 5);
}

void head_to_head_in_branch(Comm& comm, std::span<float> buf) {
  if (comm.size() == 2) {
    comm.send_bytes(1, std::as_bytes(buf), 8);  // expect: p2p-sendrecv
    comm.recv_bytes(1, std::as_writable_bytes(buf), 8);
  }
}

// --- p2p-sendrecv: negatives -----------------------------------------

// Different peers: a ring shift, not a head-to-head exchange.
void ring_shift(Comm& comm, std::span<const double> out, std::span<double> in) {
  const int next = (comm.rank() + 1) % comm.size();
  const int prev = (comm.rank() + comm.size() - 1) % comm.size();
  comm.send<double>(next, out, 9);
  comm.recv<double>(prev, in, 9);
}

// All-sends-then-all-recvs across loops (the distributed state vector's
// exchange pattern): deliberate pipelining, not an adjacent pair.
void pipelined_exchange(Comm& comm, std::span<const double> out_parts,
                        std::span<double> in_parts) {
  const std::size_t block = in_parts.size() / static_cast<std::size_t>(comm.size());
  for (int r = 0; r < comm.size(); ++r) {
    if (r != comm.rank()) {
      comm.send<double>(r, out_parts.subspan(static_cast<std::size_t>(r) * block, block), 6);
    }
  }
  for (int r = 0; r < comm.size(); ++r) {
    if (r != comm.rank()) {
      comm.recv<double>(r, in_parts.subspan(static_cast<std::size_t>(r) * block, block), 6);
    }
  }
}

// --- p2p-tag-collision: positives ------------------------------------

// Application traffic on the runtime's reserved tag corrupts collective
// internals (and vice versa).
void reserved_tag_literal(Comm& comm, std::span<int> buf) {
  const int next = (comm.rank() + 1) % comm.size();
  const int prev = (comm.rank() + comm.size() - 1) % comm.size();
  comm.send<int>(next, buf, -7771);  // expect: p2p-tag-collision
  comm.recv<int>(prev, buf, -7771);  // expect: p2p-tag-collision
}

void reserved_tag_offset(Comm& comm, std::span<std::byte> raw, int kCollectiveTag) {
  comm.send_bytes(1, raw, kCollectiveTag - 1);  // expect: p2p-tag-collision
  comm.recv_bytes(2, raw, kCollectiveTag - 1);  // expect: p2p-tag-collision
}

// --- p2p-tag-collision: negatives ------------------------------------
// (Application tags 0, 7 and a computed non-negative tag.)

void app_tags(Comm& comm, std::span<double> buf, int round) {
  const int partner = comm.rank() ^ 1;
  comm.send<double>(partner, buf, 7);
  std::vector<double> scratch(buf.size(), 0.0);
  comm.recv<double>(partner, std::span<double>(scratch), 7);
  comm.send<double>(partner, buf, round * 2);
  for (double& v : scratch) v += 1.0;
  comm.recv<double>(partner, buf, round * 2);
}
