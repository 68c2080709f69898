#include "sim/dist_sv.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "cluster/fault.hpp"
#include "models/perf_model.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace qc::sim {

using circuit::Gate;
using circuit::GateKind;

template <typename T>
BasicDistStateVector<T>::BasicDistStateVector(cluster::Comm& comm, qubit_t n_qubits)
    : comm_(&comm), n_(n_qubits) {
  const int p = comm.size();
  if (!bits::is_pow2(static_cast<index_t>(p)))
    throw std::invalid_argument("DistStateVector: rank count must be a power of two");
  const qubit_t k = bits::log2_floor(static_cast<index_t>(p));
  if (k > n_) throw std::invalid_argument("DistStateVector: more ranks than amplitudes");
  nl_ = n_ - k;
  cluster::fault_point("dist.alloc", comm.rank());
  local_.assign(dim(nl_), value_type{});
  scratch_.assign(dim(nl_), value_type{});
  if (comm.rank() == 0) local_[0] = value_type{T{1}};
}

template <typename T>
void BasicDistStateVector<T>::set_basis(index_t i) {
  if (i >= dim(n_)) throw std::invalid_argument("set_basis: index out of range");
  std::fill(local_.begin(), local_.end(), value_type{});
  const index_t chunk = dim(nl_);
  if (i / chunk == static_cast<index_t>(comm_->rank())) local_[i % chunk] = value_type{T{1}};
}

template <typename T>
void BasicDistStateVector<T>::randomize(std::uint64_t seed) {
  const index_t chunk = dim(nl_);
  fill_random_slabs<T>({local_.data(), local_.size()},
                       static_cast<index_t>(comm_->rank()) * chunk, seed);
  const double total = norm_sq();
  const T f = static_cast<T>(1.0 / std::sqrt(total));
#pragma omp parallel for if (worth_parallelizing(chunk))
  for (index_t i = 0; i < chunk; ++i) local_[i] *= f;
}

template <typename T>
double BasicDistStateVector<T>::norm_sq() const {
  double sum = 0;
#pragma omp parallel for reduction(+ : sum) if (worth_parallelizing(local_.size()))
  for (index_t i = 0; i < local_.size(); ++i) {
    const double re = local_[i].real(), im = local_[i].imag();
    sum += re * re + im * im;
  }
  return comm_->allreduce_sum(sum);
}

template <typename T>
double BasicDistStateVector<T>::max_abs_diff(const BasicDistStateVector& other) const {
  if (other.n_ != n_) throw std::invalid_argument("max_abs_diff: qubit count mismatch");
  double m = 0;
#pragma omp parallel for reduction(max : m) if (worth_parallelizing(local_.size()))
  for (index_t i = 0; i < local_.size(); ++i)
    m = std::max(m, std::abs(static_cast<complex_t>(local_[i]) -
                             static_cast<complex_t>(other.local_[i])));
  return comm_->allreduce_max(m);
}

template <typename T>
double BasicDistStateVector<T>::probability_of_one(qubit_t q) const {
  double sum = 0;
  if (q < nl_) {
#pragma omp parallel for reduction(+ : sum) if (worth_parallelizing(local_.size()))
    for (index_t i = 0; i < local_.size(); ++i)
      if (bits::test(i, q)) {
        const double re = local_[i].real(), im = local_[i].imag();
        sum += re * re + im * im;
      }
  } else if (bits::test(static_cast<index_t>(comm_->rank()), q - nl_)) {
#pragma omp parallel for reduction(+ : sum) if (worth_parallelizing(local_.size()))
    for (index_t i = 0; i < local_.size(); ++i) {
      const double re = local_[i].real(), im = local_[i].imag();
      sum += re * re + im * im;
    }
  }
  return comm_->allreduce_sum(sum);
}

template <typename T>
std::span<basic_complex_t<T>> BasicDistStateVector<T>::scratch() {
  if (scratch_.size() != local_.size()) scratch_.assign(local_.size(), value_type{});
  return {scratch_.data(), scratch_.size()};
}

template <typename T>
void BasicDistStateVector<T>::exchange_and_combine(qubit_t rank_bit, const kernels::U2T<T>& u,
                                                   index_t local_cmask, bool participate) {
  // The per-gate pairwise chunk exchange of Eq. 6, pulled: each rank
  // reads its partner's chunk and its own and writes the combined pair
  // into scratch in one pass, then adopts the scratch after the second
  // fence. The span carries the bytes it moved plus the model's
  // predicted time, so the model-drift report can compare Eq. 6 against
  // this machine rank by rank. Both scale with sizeof(value_type): an
  // fp32 chunk is half the fp64 traffic. The bytes count only once the
  // exchange completed, here and in the span alike. A rank that sits
  // the gate out keeps its chunk, moves no bytes, opens no span and
  // visits no fault site, but joins both fences; their waits land in
  // the enclosing span.
  std::optional<obs::Span> span;
  if (participate) {
    span.emplace("dist.exchange");
    if (obs::enabled())
      span->arg("pred_s", models::t_chunk_exchange_seconds(nl_, {}, sizeof(value_type)));
    cluster::fault_point("dist.exchange", comm_->rank());
  }
  const std::span<value_type> out = scratch();
  comm_->template expose<value_type>(local());
  comm_->barrier();
  if (participate) {
    const int partner = comm_->rank() ^ static_cast<int>(bits::bit(rank_bit));
    const bool upper = ((comm_->rank() >> rank_bit) & 1) != 0;
    // Row `upper` of u: new = m_own * own + m_other * other.
    const value_type m_own = upper ? u.m11 : u.m00;
    const value_type m_other = upper ? u.m10 : u.m01;
    const value_type* own = local_.data();
    const value_type* other = comm_->template window<value_type>(partner).data();
    const index_t count = local_.size();
    // Pairs whose local controls are unset keep their amplitude, which
    // still has to land in scratch: the whole chunk is swapped.
#pragma omp parallel for schedule(static) if (worth_parallelizing(count))
    for (index_t i = 0; i < count; ++i)
      out[i] = (i & local_cmask) == local_cmask ? m_own * own[i] + m_other * other[i] : own[i];
  }
  comm_->barrier();
  if (!span.has_value()) return;  // sat the gate out
  swap_scratch();
  const std::size_t bytes = local_.size() * sizeof(value_type);
  bytes_comm_ += bytes;
  if (obs::enabled()) span->arg("bytes", static_cast<double>(bytes));
}

template <typename T>
void BasicDistStateVector<T>::apply_gate(const Gate& g, CommPolicy policy) {
  // SWAP lowers to three CNOTs; each is handled by the cases below.
  if (g.kind == GateKind::Swap) {
    const qubit_t qa = g.targets[0], qb = g.targets[1];
    Gate c1 = circuit::make_controlled(GateKind::X, qa, qb);
    Gate c2 = circuit::make_controlled(GateKind::X, qb, qa);
    c1.controls.insert(c1.controls.end(), g.controls.begin(), g.controls.end());
    c2.controls.insert(c2.controls.end(), g.controls.begin(), g.controls.end());
    apply_gate(c1, policy);
    apply_gate(c2, policy);
    apply_gate(c1, policy);
    return;
  }

  // Split controls into local and global; a rank whose global control
  // bits are not all set holds amplitudes the gate leaves untouched.
  index_t local_cmask = 0;
  bool globals_satisfied = true;
  for (qubit_t c : g.controls) {
    if (c < nl_) {
      local_cmask = bits::set(local_cmask, c);
    } else if (!bits::test(static_cast<index_t>(comm_->rank()), c - nl_)) {
      globals_satisfied = false;
    }
  }

  const qubit_t t = g.targets[0];
  if (t < nl_) {
    if (!globals_satisfied) return;  // identity on this chunk, no comm
    Gate local_gate = g;
    local_gate.controls.clear();
    for (qubit_t c : g.controls)
      if (c < nl_) local_gate.controls.push_back(c);
    if (policy == CommPolicy::Specialized)
      apply_gate_hpc<T>(local(), nl_, local_gate);
    else
      apply_gate_generic<T>(local(), nl_, local_gate, /*parallel=*/true);
    return;
  }

  // Global target qubit.
  const qubit_t rank_bit = t - nl_;
  if (g.diagonal() && policy == CommPolicy::Specialized) {
    // No communication: our whole chunk shares the target bit value.
    if (!globals_satisfied) return;
    const auto [d0, d1] = diagonal_entries(g);
    const value_type factor = static_cast<value_type>(
        bits::test(static_cast<index_t>(comm_->rank()), rank_bit) ? d1 : d0);
    if (factor == value_type{T{1}}) return;
    const auto pos = kernels::sorted_bit_positions(local_cmask, {});
    const kernels::BitExpander expand{pos};
    const index_t count = dim(nl_) >> pos.size();
#pragma omp parallel for schedule(static) if (worth_parallelizing(count))
    for (index_t j = 0; j < count; ++j) local_[expand(j) | local_cmask] *= factor;
    return;
  }

  // Exchange path, under either policy: the partner's full chunk is
  // read, and the pairs whose local controls are set combine. The
  // partner has identical global control bits (it differs only in the
  // target bit), so "skip" decisions agree; every rank joins the fences.
  exchange_and_combine(rank_bit, kernels::u2_cast<T>(target_block(g)), local_cmask,
                       globals_satisfied);
}

template <typename T>
void BasicDistStateVector<T>::run(const circuit::Circuit& c, CommPolicy policy) {
  if (c.qubits() != n_) throw std::invalid_argument("run: qubit count mismatch");
  for (const Gate& g : c.gates()) apply_gate(g, policy);
}

template <typename T>
void BasicDistStateVector<T>::apply_qubit_swaps(
    std::span<const std::array<qubit_t, 2>> pairs) {
  // One exchange pass (the scheduler's global<->local remap unit): the
  // span's prediction is the cost the remap decision was priced at — a
  // chunk exchange when ranks communicate, a local memory pass when the
  // permutation stays within the chunk.
  obs::Span span("dist.exchange_pass");
  cluster::fault_point("dist.exchange_pass", comm_->rank());
  // Split the disjoint transposition set into the class each level can
  // handle: local-local pairs permute the chunk in place, everything
  // touching a global qubit joins one collective chunk permutation.
  index_t seen = 0;
  std::vector<std::array<qubit_t, 2>> local_pairs;
  std::vector<std::array<qubit_t, 2>> cross;  // {global, local}, sorted by local
  std::vector<std::array<qubit_t, 2>> global_pairs;
  for (const auto& p : pairs) {
    const qubit_t hi = std::max(p[0], p[1]);
    const qubit_t lo = std::min(p[0], p[1]);
    if (hi >= n_ || hi == lo || bits::test(seen, hi) || bits::test(seen, lo))
      throw std::invalid_argument("apply_qubit_swaps: pairs must be disjoint qubits below n");
    seen = bits::set(bits::set(seen, hi), lo);
    if (hi < nl_) {
      local_pairs.push_back({lo, hi});
    } else if (lo < nl_) {
      cross.push_back({hi, lo});
    } else {
      global_pairs.push_back({lo, hi});
    }
  }
  if (cross.empty() && global_pairs.empty()) {
    if (local_pairs.empty()) return;
    kernels::apply_qubit_swaps<T>(local(), nl_, local_pairs);
    if (obs::enabled())
      span.arg("pred_s", models::t_state_pass_seconds(nl_, {}, sizeof(value_type)));
    return;
  }

  std::sort(cross.begin(), cross.end(),
            [](const auto& a, const auto& b) { return a[1] < b[1]; });
  const auto k = static_cast<qubit_t>(cross.size());
  if (k > 16) throw std::invalid_argument("apply_qubit_swaps: too many crossing pairs");
  std::vector<qubit_t> low_pos(k);
  for (qubit_t j = 0; j < k; ++j) low_pos[j] = cross[j][1];

  const int rank = comm_->rank();
  // Rank with this rank's global-global bits swapped — every sub-block's
  // source shares this base.
  int gg_rank = rank;
  for (const auto& p : global_pairs) {
    const qubit_t ba = p[0] - nl_, bb = p[1] - nl_;
    if (bits::get(static_cast<index_t>(gg_rank), ba) !=
        bits::get(static_cast<index_t>(gg_rank), bb))
      gg_rank ^= static_cast<int>(bits::bit(ba) | bits::bit(bb));
  }
  const index_t sub = dim(nl_) >> k;  // amplitudes per sub-block
  const index_t blocks = dim(k);
  const kernels::BitExpander expand{low_pos};
  const auto deposit = [&](index_t key) {
    index_t d = 0;
    for (qubit_t j = 0; j < k; ++j)
      if (bits::test(key, j)) d = bits::set(d, low_pos[j]);
    return d;
  };
  const auto source = [&](index_t key) {
    auto r = static_cast<index_t>(gg_rank);
    for (qubit_t j = 0; j < k; ++j) {
      const qubit_t bit = cross[j][0] - nl_;
      r = bits::test(key, j) ? bits::set(r, bit) : bits::clear(r, bit);
    }
    return static_cast<int>(r);
  };
  // This rank's exchanged global bits, as a key: every sub-block it
  // receives sits at that key in its source chunk.
  index_t own_key = 0;
  for (qubit_t j = 0; j < k; ++j)
    if (bits::test(static_cast<index_t>(rank), cross[j][0] - nl_)) own_key = bits::set(own_key, j);
  const index_t src_base = deposit(own_key);

  // Slot `key` (the elements whose exchanged local bits equal key) comes
  // from the rank whose exchanged global bits equal key; the self slot
  // is copied to the same place.
  const std::span<value_type> out = scratch();
  comm_->template expose<value_type>(local());
  comm_->barrier();
  std::uint64_t moved = 0;
  for (index_t key = 0; key < blocks; ++key) {
    const int src_rank = source(key);
    const value_type* src = comm_->template window<value_type>(src_rank).data();
    const index_t dst_base = deposit(key);
#pragma omp parallel for schedule(static) if (worth_parallelizing(sub))
    for (index_t j = 0; j < sub; ++j) {
      const index_t e = expand(j);
      out[e | dst_base] = src[e | src_base];
    }
    if (src_rank != rank) moved += sub * sizeof(value_type);
  }
  comm_->barrier();
  swap_scratch();
  // Disjoint transpositions commute, so the local part runs on the
  // adopted chunk.
  if (!local_pairs.empty()) kernels::apply_qubit_swaps<T>(local(), nl_, local_pairs);
  // Counted only once the pass completed, here and in the span alike: a
  // pass that aborts part-way claims none of its bytes.
  bytes_comm_ += moved;
  if (obs::enabled()) {
    span.arg("bytes", static_cast<double>(moved));
    span.arg("pred_s", models::t_chunk_exchange_seconds(nl_, {}, sizeof(value_type)));
  }
}

template <typename T>
std::vector<double> BasicDistStateVector<T>::register_distribution(qubit_t offset,
                                                                   qubit_t width) const {
  if (offset + width > n_)
    throw std::invalid_argument("register_distribution: bad register");
  std::vector<qubit_t> qubits(width);
  std::iota(qubits.begin(), qubits.end(), offset);
  return register_distribution(std::span<const qubit_t>(qubits));
}

template <typename T>
std::vector<double> BasicDistStateVector<T>::register_distribution(
    std::span<const qubit_t> qubits) const {
  const auto width = static_cast<qubit_t>(qubits.size());
  index_t seen = 0;
  for (const qubit_t q : qubits) {
    if (q >= n_ || bits::test(seen, q))
      throw std::invalid_argument("register_distribution: qubits must be distinct, < n");
    seen = bits::set(seen, q);
  }
  // Split the register into its local bits (vary within the chunk) and
  // its global bits (constant across the chunk: read from the rank id),
  // so the inner loop only gathers the varying part.
  index_t rank_part = 0;
  std::vector<std::array<qubit_t, 2>> local_bits;  // {physical, outcome bit}
  const auto rank = static_cast<index_t>(comm_->rank());
  for (qubit_t j = 0; j < width; ++j) {
    if (qubits[j] < nl_) {
      local_bits.push_back({qubits[j], j});
    } else if (bits::test(rank, qubits[j] - nl_)) {
      rank_part = bits::set(rank_part, j);
    }
  }
  std::vector<double> dist(dim(width), 0.0);
  for (index_t i = 0; i < local_.size(); ++i) {
    index_t outcome = rank_part;
    for (const auto& [phys, bit] : local_bits)
      if (bits::test(i, phys)) outcome = bits::set(outcome, bit);
    const double re = local_[i].real(), im = local_[i].imag();
    dist[outcome] += re * re + im * im;
  }
  std::vector<double> all(dist.size() * static_cast<std::size_t>(comm_->size()));
  comm_->template allgather<double>(dist, all);
  std::fill(dist.begin(), dist.end(), 0.0);
  for (std::size_t r = 0; r < static_cast<std::size_t>(comm_->size()); ++r)
    for (std::size_t v = 0; v < dist.size(); ++v) dist[v] += all[r * dist.size() + v];
  return dist;
}

template <typename T>
void BasicDistStateVector<T>::collapse(qubit_t q, int outcome) {
  if (q >= n_) throw std::invalid_argument("collapse: bad qubit");
  const double p1 = probability_of_one(q);  // collective: identical on all ranks
  const double p = outcome == 1 ? p1 : 1.0 - p1;
  if (p < 1e-300) throw std::runtime_error("collapse: zero-probability outcome");
  const T f = static_cast<T>(1.0 / std::sqrt(p));
  const bool keep_one = outcome == 1;
  if (q < nl_) {
#pragma omp parallel for if (worth_parallelizing(local_.size()))
    for (index_t i = 0; i < local_.size(); ++i) {
      if (bits::test(i, q) == keep_one) {
        local_[i] *= f;
      } else {
        local_[i] = value_type{};
      }
    }
    return;
  }
  // Global qubit: the whole chunk shares the bit value — scale or zero.
  const bool mine_one = bits::test(static_cast<index_t>(comm_->rank()), q - nl_);
  const value_type factor = mine_one == keep_one ? value_type{f} : value_type{};
#pragma omp parallel for if (worth_parallelizing(local_.size()))
  for (index_t i = 0; i < local_.size(); ++i) local_[i] *= factor;
}

template <typename T>
BasicStateVector<T> BasicDistStateVector<T>::gather_all() const {
  BasicStateVector<T> sv(n_);
  comm_->template allgather<value_type>({local_.data(), local_.size()}, sv.amplitudes());
  return sv;
}

template class BasicDistStateVector<float>;
template class BasicDistStateVector<double>;

}  // namespace qc::sim
