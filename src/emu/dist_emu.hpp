// Distributed emulation — the shortcuts of §3 applied to a state vector
// that no longer fits one node.
//
// The paper's §4.2 makes the point directly: arithmetic on numbers with
// more qubits than one node can hold "can only be dealt with by
// emulating the classical function, which effectively performs one
// global permutation of the (distributed) state vector". DistEmulator
// implements that global permutation: each rank evaluates f on its local
// basis indices and buckets the (destination index, amplitude) pairs by
// owner rank into an outbox it exposes; every rank then pulls its block
// from every outbox and scatters it into its scratch, which becomes its
// chunk — one communication phase regardless of the function's
// complexity. The distributed QFT shortcut is the six-step distributed
// FFT (Eq. 5's three all-to-alls), run over the chunk and the
// chunk-sized scratch the DistStateVector already holds. Each data
// motion is one "dist.exchange_pass" span and fault site, and its bytes
// count into the state's bytes_communicated(). No chunk changes before
// a motion's second fence.
//
// Templated on the amplitude scalar T like sim::BasicDistStateVector:
// at fp32 the chunks, the routed amplitudes and the transposes are all
// float (the FFT's row transforms run at fp64, see fft/dist_fft.hpp).
// The engine's "dist" backend runs every high-level op through it.
//
// Every method is collective over the wrapped state's communicator and
// runs equally well inside a one-shot Cluster::run or as a submitted
// job of a persistent cluster::ClusterSession — the emulator holds no
// communication state of its own, so a resident DistStateVector can be
// operated on across many session jobs (see the resident-session
// tests in tests/test_dist_emu.cpp).
#pragma once

#include <functional>

#include "emu/emulator.hpp"
#include "sim/dist_sv.hpp"

namespace qc::emu {

/// Collective <psi| Z_mask |psi> over a distributed state (§3.4 at
/// cluster scale): each rank reduces its chunk with the global basis
/// index (rank bits included in the parity), one scalar allreduce.
/// Accumulates in double at either amplitude precision; instantiated
/// for float/double.
template <typename T>
double expectation_z_string(const sim::BasicDistStateVector<T>& dsv, index_t mask);

template <typename T>
class BasicDistEmulator {
 public:
  /// Wraps (does not own) a distributed state vector. All methods are
  /// collective: every rank of the underlying communicator must call
  /// them in the same order.
  explicit BasicDistEmulator(sim::BasicDistStateVector<T>& dsv) : dsv_(&dsv) {}

  [[nodiscard]] sim::BasicDistStateVector<T>& state() noexcept { return *dsv_; }

  /// Applies a bijection f of global basis indices — emulated classical
  /// arithmetic at cluster scale. One all-to-all exchange.
  void apply_permutation(const std::function<index_t(index_t)>& f);

  /// Partial-map variant (division-style): only nonzero amplitudes are
  /// routed; a collision on any rank aborts the cluster with
  /// std::logic_error.
  void apply_partial_map(const std::function<index_t(index_t)>& f);

  /// The register ops below validate like Emulator's (emu/index_maps.hpp)
  /// before routing: mismatched widths and out-of-range or overlapping
  /// registers throw std::invalid_argument on every rank alike, before
  /// any communication.

  /// c += a*b (mod 2^w) across the distributed register (§3.1 at scale).
  void multiply(RegRef a, RegRef b, RegRef c);

  /// (a, b, 0) -> (a mod b, b, a div b); b = 0 convention as Emulator.
  void divide(RegRef a, RegRef b, RegRef c);

  /// b += a (mod 2^w).
  void add(RegRef a, RegRef b);

  /// Whole-register QFT (paper Eq. 4) as an in-place distributed FFT.
  void qft();
  void inverse_qft();

 private:
  void route(const std::function<index_t(index_t)>& f, bool partial);
  void transform(fft::Sign sign);

  sim::BasicDistStateVector<T>* dsv_;
};

/// Double-precision alias — the default across the non-templated API.
using DistEmulator = BasicDistEmulator<double>;

}  // namespace qc::emu
