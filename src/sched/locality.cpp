#include "sched/locality.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "common/bits.hpp"
#include "models/perf_model.hpp"
#include "obs/trace.hpp"

namespace qc::sched {

namespace {

/// Ops scored per remap decision.
constexpr std::size_t kWindow = 64;
constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();

/// The inverse of `perm`; throws unless it is a permutation.
std::vector<qubit_t> inverse(const std::vector<qubit_t>& perm) {
  const auto n = static_cast<qubit_t>(perm.size());
  std::vector<qubit_t> inv(n, n);
  for (qubit_t q = 0; q < n; ++q) {
    if (perm[q] >= n || inv[perm[q]] != n)
      throw std::invalid_argument("qubit order is not a permutation");
    inv[perm[q]] = q;
  }
  return inv;
}

/// Applies `swaps` of physical positions to a permutation and its inverse.
void commit(const Swaps& swaps, std::vector<qubit_t>& perm, std::vector<qubit_t>& inv) {
  for (const auto& s : swaps) {
    std::swap(perm[inv[s[0]]], perm[inv[s[1]]]);
    std::swap(inv[s[0]], inv[s[1]]);
  }
}

}  // namespace

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

std::vector<Swaps> restore_rounds(std::vector<qubit_t> perm) {
  std::vector<qubit_t> inv = inverse(perm);
  const auto n = static_cast<qubit_t>(perm.size());
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
    commit(swaps, perm, inv);
    rounds.push_back(std::move(swaps));
  }
  return rounds;
}

LocalityPlanner::LocalityPlanner(qubit_t boundary, std::vector<index_t> masks,
                                 std::vector<qubit_t> perm, std::string_view decision)
    : boundary_(boundary),
      masks_(std::move(masks)),
      perm_(std::move(perm)),
      inv_(inverse(perm_)),
      decision_(decision) {}

bool LocalityPlanner::local(std::size_t j, const std::vector<qubit_t>& p) const {
  const index_t mask = masks_[j];
  for (qubit_t q = 0; mask >> q; ++q)
    if (bits::test(mask, q) && p[q] >= boundary_) return false;
  return true;
}

Swaps LocalityPlanner::remap(std::size_t i, const OpCost& cost) {
  const index_t mask = masks_[i];
  const auto n = static_cast<qubit_t>(perm_.size());
  const std::size_t window_end = std::min(masks_.size(), i + kWindow);
  std::vector<std::size_t> next_use(n, kNever);
  for (std::size_t j = i; j < window_end; ++j)
    for (qubit_t q = 0; masks_[j] >> q; ++q)
      if (bits::test(masks_[j], q) && next_use[q] == kNever) next_use[q] = j;

  // Imports: the op's own non-local qubits (mandatory — the op must
  // become local), then the window's remaining non-local working set,
  // soonest used first, as far as the local slots allow.
  std::vector<qubit_t> imports;
  for (qubit_t q = 0; mask >> q; ++q)
    if (bits::test(mask, q) && perm_[q] >= boundary_) imports.push_back(q);
  const std::size_t mandatory = imports.size();
  for (qubit_t q = 0; q < n; ++q)
    if (perm_[q] >= boundary_ && next_use[q] != kNever && !bits::test(mask, q))
      imports.push_back(q);
  std::stable_sort(imports.begin() + static_cast<std::ptrdiff_t>(mandatory), imports.end(),
                   [&](qubit_t x, qubit_t y) { return next_use[x] < next_use[y]; });
  // Farthest-next-use victims: evict the local qubits the window touches
  // last (or never).
  std::vector<qubit_t> victims;
  for (qubit_t p = 0; p < boundary_; ++p)
    if (!bits::test(mask, inv_[p])) victims.push_back(p);
  std::stable_sort(victims.begin(), victims.end(), [&](qubit_t x, qubit_t y) {
    return next_use[inv_[x]] > next_use[inv_[y]];
  });
  Swaps swaps;
  for (std::size_t s = 0; s < imports.size() && swaps.size() < victims.size(); ++s) {
    const qubit_t victim = victims[swaps.size()];
    // Optional imports only displace a qubit needed later than they are
    // (never trade a sooner-used local qubit for a later non-local one).
    if (s >= mandatory && next_use[imports[s]] >= next_use[inv_[victim]]) break;
    swaps.push_back({perm_[imports[s]], victim});
  }
  // Fewer victims than op qubits to take in: the op is wider than the
  // block and stays where it is.
  if (swaps.empty() || swaps.size() < mandatory) return {};

  std::vector<qubit_t> trial = perm_;
  for (const auto& s : swaps) std::swap(trial[inv_[s[0]]], trial[inv_[s[1]]]);
  // Score only what the remap changes: ops local either way cost the
  // same, and ops the evictions push out count against it.
  std::ptrdiff_t saved = 0;
  for (std::size_t j = i; j < window_end; ++j)
    saved += static_cast<std::ptrdiff_t>(cost(j, perm_)) -
             static_cast<std::ptrdiff_t>(cost(j, trial));
  const bool taken = saved > 0 && models::remap_profitable(static_cast<std::size_t>(saved));
  // The cost-model decision with its inputs, as a trace marker: "why
  // did/didn't it remap here?" is answerable from a trace alone.
  obs::instant(decision_, {{"op", static_cast<double>(i)},
                           {"saved", static_cast<double>(saved)},
                           {"taken", taken ? 1.0 : 0.0}});
  if (!taken) return {};
  commit(swaps, perm_, inv_);
  return swaps;
}

}  // namespace qc::sched
