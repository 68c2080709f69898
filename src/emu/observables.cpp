#include "emu/observables.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "circuit/circuit.hpp"
#include "common/parallel.hpp"
#include "sim/sampling.hpp"
#include "sim/simulator.hpp"

namespace qc::emu {

template <typename T>
double expectation_z_string(const sim::BasicStateVector<T>& sv, index_t mask) {
  const auto a = sv.amplitudes();
  double acc = 0;
#pragma omp parallel for reduction(+ : acc) if (worth_parallelizing(a.size()))
  for (index_t i = 0; i < a.size(); ++i) {
    const double p = std::norm(static_cast<complex_t>(a[i]));
    acc += bits::parity(i, mask) ? -p : p;
  }
  return acc;
}

template double expectation_z_string<float>(const sim::BasicStateVector<float>&, index_t);
template double expectation_z_string<double>(const sim::BasicStateVector<double>&, index_t);

double expectation_pauli(const sim::StateVector& sv, const std::string& axes) {
  if (axes.size() > sv.qubits()) throw std::invalid_argument("expectation_pauli: too long");
  // Rotate each X/Y axis into Z on a scratch copy, then reduce.
  sim::StateVector copy(sv.qubits());
  std::copy(sv.amplitudes().begin(), sv.amplitudes().end(), copy.amplitudes().begin());
  circuit::Circuit rot(sv.qubits());
  index_t zmask = 0;
  for (std::size_t q = 0; q < axes.size(); ++q) {
    switch (axes[q]) {
      case 'I':
        break;
      case 'Z':
        zmask = bits::set(zmask, static_cast<qubit_t>(q));
        break;
      case 'X':
        rot.h(static_cast<qubit_t>(q));
        zmask = bits::set(zmask, static_cast<qubit_t>(q));
        break;
      case 'Y':
        // Y = (H Sdg)^dagger Z (H Sdg): apply Sdg then H to rotate.
        rot.sdg(static_cast<qubit_t>(q));
        rot.h(static_cast<qubit_t>(q));
        zmask = bits::set(zmask, static_cast<qubit_t>(q));
        break;
      default:
        throw std::invalid_argument("expectation_pauli: bad axis character");
    }
  }
  for (const circuit::Gate& g : rot.gates())
    sim::apply_gate_hpc<double>(copy.amplitudes(), copy.qubits(), g);
  return expectation_z_string(copy, zmask);
}

double expectation_register(const sim::StateVector& sv, qubit_t offset, qubit_t width) {
  const auto a = sv.amplitudes();
  double acc = 0;
#pragma omp parallel for reduction(+ : acc) if (worth_parallelizing(a.size()))
  for (index_t i = 0; i < a.size(); ++i)
    acc += static_cast<double>(bits::field(i, offset, width)) * std::norm(a[i]);
  return acc;
}

double sampled_z_string(const sim::StateVector& sv, index_t mask, std::size_t shots,
                        Rng& rng) {
  if (shots == 0) throw std::invalid_argument("sampled_z_string: zero shots");
  // Build the CDF once (a hardware run would re-execute the circuit per
  // shot; the per-shot draw below is the irreducible statistical cost).
  const sim::SampleCdf cdf = sim::SampleCdf::from_amplitudes(sv.amplitudes());
  long sum = 0;
  for (std::size_t s = 0; s < shots; ++s)
    sum += bits::parity(cdf.sample(rng), mask) ? -1 : 1;
  return static_cast<double>(sum) / static_cast<double>(shots);
}

std::map<index_t, std::size_t> sample_register_counts(const sim::StateVector& sv,
                                                      qubit_t offset, qubit_t width,
                                                      std::size_t shots, Rng& rng) {
  const std::vector<double> dist = sv.register_distribution(offset, width);
  const sim::SampleCdf cdf = sim::SampleCdf::from_weights(dist);
  std::map<index_t, std::size_t> counts;
  for (std::size_t s = 0; s < shots; ++s) ++counts[cdf.sample(rng)];
  return counts;
}

}  // namespace qc::emu
