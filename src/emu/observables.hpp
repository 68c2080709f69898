// Measurement emulation (paper §3.4).
//
// A quantum computer extracts n bits per run and must repeat the whole
// algorithm to estimate expectation values; a simulator pays O(2^n) but
// holds the full amplitude vector — so the emulator computes the exact
// distribution and exact expectation values in a single pass, removing
// the sampling loop entirely. This module provides both sides: the exact
// one-pass quantities and the shot-based estimator a hardware run (or a
// naive simulator loop) would produce, so the time-to-accuracy trade-off
// can be benchmarked.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/state_vector.hpp"

namespace qc::emu {

/// <psi| Z_mask |psi>: expectation of the tensor product of Z on every
/// qubit set in `mask` (identity elsewhere). One pass, exact; squares
/// and accumulates in double at either precision.
template <typename T>
double expectation_z_string(const sim::BasicStateVector<T>& sv, index_t mask);

/// Expectation of a general Pauli string, e.g. "XZIY" (index 0 = qubit 0
/// = leftmost character). Rotates a copy of the state into the Z basis
/// (H for X, H S^dagger for Y), then reduces — still one pass over the
/// state per non-Z axis plus the final reduction.
double expectation_pauli(const sim::StateVector& sv, const std::string& axes);

/// Exact mean of the value stored in a register: sum_v v * P(v).
double expectation_register(const sim::StateVector& sv, qubit_t offset, qubit_t width);

/// Shot-based estimate of <Z_mask>: draws `shots` full-register samples
/// (as repeated hardware runs would) and averages the parity. Error
/// decreases as 1/sqrt(shots) — the sampling cost emulation removes.
double sampled_z_string(const sim::StateVector& sv, index_t mask, std::size_t shots, Rng& rng);

/// Histogram of `shots` measurement outcomes of a register, sampled from
/// the exact distribution (one distribution pass + O(shots log) draws).
std::map<index_t, std::size_t> sample_register_counts(const sim::StateVector& sv,
                                                      qubit_t offset, qubit_t width,
                                                      std::size_t shots, Rng& rng);

}  // namespace qc::emu
