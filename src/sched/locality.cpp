#include "sched/locality.hpp"

#include <numeric>
#include <stdexcept>
#include <utility>

#include "common/bits.hpp"

namespace qc::sched {

index_t gate_support(const circuit::Gate& g) {
  index_t m = 0;
  for (qubit_t t : g.targets) m = bits::set(m, t);
  for (qubit_t c : g.controls) m = bits::set(m, c);
  return m;
}

circuit::Gate relabel(const circuit::Gate& g, const std::vector<qubit_t>& perm) {
  circuit::Gate out = g;
  for (qubit_t& t : out.targets) t = perm[t];
  for (qubit_t& c : out.controls) c = perm[c];
  return out;
}

std::vector<qubit_t> identity_perm(qubit_t n) {
  std::vector<qubit_t> perm(n);
  std::iota(perm.begin(), perm.end(), qubit_t{0});
  return perm;
}

std::vector<Swaps> restore_rounds(const std::vector<qubit_t>& perm) {
  // inv[p]: the logical qubit at physical position p.
  const auto n = static_cast<qubit_t>(perm.size());
  std::vector<qubit_t> inv(n, n);
  for (qubit_t q = 0; q < n; ++q) {
    if (perm[q] >= n || inv[perm[q]] != n)
      throw std::invalid_argument("qubit order is not a permutation");
    inv[perm[q]] = q;
  }
  // Each round sends at least one qubit home per swap, so any
  // permutation settles in a few rounds.
  std::vector<Swaps> rounds;
  while (true) {
    Swaps swaps;
    index_t used = 0;
    for (qubit_t p = 0; p < n; ++p) {
      const qubit_t home = inv[p];
      if (home == p || bits::test(used, p) || bits::test(used, home)) continue;
      swaps.push_back({p, home});
      used = bits::set(bits::set(used, p), home);
    }
    if (swaps.empty()) break;
    for (const auto& s : swaps) std::swap(inv[s[0]], inv[s[1]]);
    rounds.push_back(std::move(swaps));
  }
  return rounds;
}

}  // namespace qc::sched
