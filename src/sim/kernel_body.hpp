// The one body of the vector tiers' microkernels (kernels_dispatch.hpp),
// compiled once per tier.
//
// Every function is a static member of KernelBody<Tier>, and each tier's
// translation unit instantiates it with a tag type of its own, so each
// tier emits its own copy under its own flags. The body calls no inline
// function of another header: the linker picks one definition of such a
// function for the whole program, and a copy compiled with -mavx512f
// could then run on a host without AVX-512. Its vectors are GCC vector
// types of 2^LB interleaved amplitudes, at most Tier::kBytes wide: the
// width follows the tier, and narrows where the targets leave fewer
// than a register's worth of amplitudes between them.
//
// A dense block takes one of two shapes (kernels.cpp picks LB and the
// shape from the targets, and lays out the coefficients):
//  - across runs: no target lies below LB, so the same vector of each of
//    the block's 2^k runs holds one amplitude of 2^LB blocks, and
//      y_r = sum_c ur[r][c] x_c + ui[r][c] (-x_c.im, x_c.re)
//    with the coefficients broadcast;
//  - inside a vector: qubits 0..LB-1 are all targets, so a vector holds
//    2^LB amplitudes of one block, and output vector j is
//      y_j = sum_c CRI[j][c] x_c.re + CIR[j][c] x_c.im
//    with each input amplitude broadcast against columns of u.
// Either way an output vector costs 2^(k+1) FMAs.
#pragma once

#include <cstddef>
#include <utility>

#include "sim/kernels_dispatch.hpp"

namespace qc::sim::kernels::detail {

template <class Tier>
struct KernelBody {
  static constexpr qubit_t log2(std::size_t x) {
    qubit_t b = 0;
    for (; x > 1; x >>= 1) ++b;
    return b;
  }

  /// log2 of the amplitudes one register of the tier holds at T.
  template <typename T>
  static constexpr qubit_t kLaneBits = log2(Tier::kBytes / (2 * sizeof(T)));

  /// 2^LB interleaved amplitudes.
  template <typename T, qubit_t LB>
  struct VecOf {
    typedef T type __attribute__((vector_size(sizeof(T) << (LB + 1))));
  };
  template <typename T, qubit_t LB>
  using Vec = typename VecOf<T, LB>::type;

  template <class V, typename T>
  static V load(const T* p) {
    V v;
    __builtin_memcpy(&v, p, sizeof v);
    return v;
  }
  template <class V, typename T>
  static void store(T* p, const V& v) {
    __builtin_memcpy(p, &v, sizeof v);
  }

  /// (re, im) -> (im, re) in every amplitude.
  template <class V, std::size_t... I>
  static V swap_pairs(V x, std::index_sequence<I...>) {
    return __builtin_shufflevector(x, x, (I ^ 1)...);
  }
  template <typename T, qubit_t LB>
  static Vec<T, LB> swap_pairs(Vec<T, LB> x) {
    return swap_pairs(x, std::make_index_sequence<(std::size_t{2} << LB)>{});
  }

  /// (-1, 1) in every amplitude.
  template <typename T, qubit_t LB>
  static Vec<T, LB> alternating_sign() {
    Vec<T, LB> s{};
    for (std::size_t i = 0; i < (std::size_t{2} << LB); ++i) s[i] = i & 1 ? T{1} : T{-1};
    return s;
  }

  /// The first amplitude of segment s (see BlockWalk).
  static index_t segment_start(const BlockWalk& w, index_t s) {
    for (qubit_t i = 0; i < w.n_high; ++i) {
      const index_t low = s & ((index_t{1} << w.high[i]) - 1);
      s = ((s - low) << 1) | low;
    }
    return s << w.seg_bits;
  }

  /// Accumulators a dense kernel keeps in flight: enough independent FMA
  /// chains to cover the FMA latency.
  static constexpr index_t kChains = 8;

  /// Dense block across runs: every target is at or above LB. Rows are
  /// summed kChains at a time, each in its own accumulator. `planes` is
  /// restrict-qualified: the stores through it cannot change `coef`, so
  /// the coefficients that fit in registers stay there across the runs.
  template <typename T, unsigned K, qubit_t LB>
  static void dense_runs(T* __restrict planes, const BlockWalk& w, const T* coef, index_t s0,
                         index_t s1) {
    using V = Vec<T, LB>;
    constexpr index_t B = index_t{1} << K;
    constexpr index_t G = B < kChains ? B : kChains;
    constexpr index_t kScalars = index_t{2} << LB;
    const T* ur = coef;
    const T* ui = coef + B * B;
    index_t offs[B];
    for (index_t c = 0; c < B; ++c) offs[c] = 2 * w.offs[c];
    const V sign = alternating_sign<T, LB>();
    const index_t seg = index_t{2} << w.seg_bits;
    for (index_t s = s0; s < s1; ++s) {
      T* base = planes + 2 * segment_start(w, s);
      for (index_t v = 0; v < seg; v += kScalars) {
        V x[B], xs[B];
#pragma GCC unroll 32
        for (index_t c = 0; c < B; ++c) {
          x[c] = load<V>(base + offs[c] + v);
          xs[c] = swap_pairs<T, LB>(x[c]) * sign;  // (-im, re)
        }
#pragma GCC unroll 4
        for (index_t r0 = 0; r0 < B; r0 += G) {
          V acc[G];
#pragma GCC unroll 8
          for (index_t g = 0; g < G; ++g)
            acc[g] = ur[(r0 + g) * B] * x[0] + ui[(r0 + g) * B] * xs[0];
#pragma GCC unroll 8
          for (index_t c = 1; c < B; ++c) {
#pragma GCC unroll 8
            for (index_t g = 0; g < G; ++g) {
              acc[g] += ur[(r0 + g) * B + c] * x[c];
              acc[g] += ui[(r0 + g) * B + c] * xs[c];
            }
          }
#pragma GCC unroll 8
          for (index_t g = 0; g < G; ++g) store(base + offs[r0 + g] + v, acc[g]);
        }
      }
    }
  }

  /// Dense block inside vectors: qubits 0..LB-1 are targets. Blocks go
  /// NB at a time, the block at[b] with its runs at at[b] + offs[j], so
  /// each coefficient vector loaded serves NB of them. Each output vector
  /// sums its columns in P partial accumulators, P as many as keep
  /// kChains in flight. The column loop stays rolled: unrolled, the
  /// compiler reloads each coefficient vector for every block.
  template <typename T, unsigned K, qubit_t LB, index_t NB>
  [[gnu::always_inline]] static void lanes_blocks(T* const (&at)[NB], const index_t* offs,
                                                  const T* coef) {
    using V = Vec<T, LB>;
    constexpr index_t B = index_t{1} << K;
    constexpr index_t kLanes = index_t{1} << LB;
    constexpr index_t kScalars = 2 * kLanes;
    constexpr index_t J = B >> LB;  // output vectors, one per run
    constexpr index_t kPer = kChains / NB;
    constexpr index_t P = J >= kPer ? 1 : (kPer / J < B ? kPer / J : B);
    V acc[NB][J][P] = {};
#pragma GCC unroll 1
    for (index_t c0 = 0; c0 < B; c0 += P) {
#pragma GCC unroll 8
      for (index_t p = 0; p < P; ++p) {
        const index_t c = c0 + p;
        T xr[NB], xi[NB];
#pragma GCC unroll 4
        for (index_t b = 0; b < NB; ++b) {
          const T* in = at[b] + offs[c >> LB] + 2 * (c & (kLanes - 1));
          xr[b] = in[0];
          xi[b] = in[1];
        }
#pragma GCC unroll 32
        for (index_t j = 0; j < J; ++j) {
          const T* cj = coef + (j * B + c) * 2 * kScalars;
          const V cri = load<V>(cj), cir = load<V>(cj + kScalars);
#pragma GCC unroll 4
          for (index_t b = 0; b < NB; ++b) {
            acc[b][j][p] += cri * xr[b];
            acc[b][j][p] += cir * xi[b];
          }
        }
      }
    }
#pragma GCC unroll 4
    for (index_t b = 0; b < NB; ++b) {
#pragma GCC unroll 32
      for (index_t j = 0; j < J; ++j) {
#pragma GCC unroll 8
        for (index_t h = P / 2; h > 0; h /= 2)
#pragma GCC unroll 8
          for (index_t p = 0; p < h; ++p) acc[b][j][p] += acc[b][j][p + h];
        store(at[b] + offs[j], acc[b][j][0]);
      }
    }
  }

  /// Blocks of the inside-vector shape taken together (see lanes_blocks).
  static constexpr index_t kBlocks = 4;

  template <typename T, unsigned K, qubit_t LB>
  static void dense_lanes(T* planes, const BlockWalk& w, const T* coef, index_t s0,
                          index_t s1) {
    constexpr index_t kScalars = index_t{2} << LB;
    constexpr index_t J = (index_t{1} << K) >> LB;
    index_t offs[J];
    for (index_t j = 0; j < J; ++j) offs[j] = 2 * w.offs[j];
    const index_t seg = index_t{2} << w.seg_bits;
    T* at[kBlocks];
    index_t held = 0;
    for (index_t s = s0; s < s1; ++s) {
      T* base = planes + 2 * segment_start(w, s);
      for (index_t v = 0; v < seg; v += kScalars) {
        at[held++] = base + v;
        if (held == kBlocks) {
          lanes_blocks<T, K, LB, kBlocks>(at, offs, coef);
          held = 0;
        }
      }
    }
    for (index_t b = 0; b < held; ++b) {
      T* const one[1] = {at[b]};
      lanes_blocks<T, K, LB, 1>(one, offs, coef);
    }
  }

  /// The dense entry for k = K: picks the width and shape `w` names.
  template <typename T, unsigned K, qubit_t LB = kLaneBits<T>>
  static void dense(T* planes, const BlockWalk& w, const T* coef, index_t s0, index_t s1) {
    if (w.lane_bits == LB) {
      if (w.n_high == K) return dense_runs<T, K, LB>(planes, w, coef, s0, s1);
      if constexpr (LB <= K) return dense_lanes<T, K, LB>(planes, w, coef, s0, s1);
      return;
    }
    if constexpr (LB > 1) dense<T, K, LB - 1>(planes, w, coef, s0, s1);
  }

  /// Diagonal block: each run times its factor vector, lane by lane.
  template <typename T, qubit_t LB = kLaneBits<T>>
  static void diagonal(T* planes, const BlockWalk& w, const T* factors, index_t s0, index_t s1) {
    if constexpr (LB > 1) {
      if (w.lane_bits < LB) return diagonal<T, LB - 1>(planes, w, factors, s0, s1);
    }
    using V = Vec<T, LB>;
    constexpr index_t kScalars = index_t{2} << LB;
    const index_t runs = index_t{1} << w.n_high;
    const index_t seg = index_t{2} << w.seg_bits;
    for (index_t s = s0; s < s1; ++s) {
      T* base = planes + 2 * segment_start(w, s);
      for (index_t j = 0; j < runs; ++j) {
        T* run = base + 2 * w.offs[j];
        const V wr = load<V>(factors + 2 * j * kScalars);
        const V wi = load<V>(factors + (2 * j + 1) * kScalars);
        for (index_t v = 0; v < seg; v += kScalars) {
          const V x = load<V>(run + v);
          store(run + v, x * wr + swap_pairs<T, LB>(x) * wi);
        }
      }
    }
  }

  template <typename T>
  static void scale(T* p, index_t count, T dr, T di) {
    constexpr qubit_t LB = kLaneBits<T>;
    using V = Vec<T, LB>;
    constexpr index_t kScalars = index_t{2} << LB;
    const V wr = V{} + dr;
    const V wi = alternating_sign<T, LB>() * di;
    const index_t scalars = 2 * count;
    index_t i = 0;
    for (; i + kScalars <= scalars; i += kScalars) {
      const V x = load<V>(p + i);
      store(p + i, x * wr + swap_pairs<T, LB>(x) * wi);
    }
    for (; i < scalars; i += 2) {
      const T xr = p[i], xi = p[i + 1];
      p[i] = xr * dr - xi * di;
      p[i + 1] = xr * di + xi * dr;
    }
  }

  template <typename T>
  static constexpr Microkernels<T> table() {
    return {kLaneBits<T>,
            {&dense<T, 1>, &dense<T, 2>, &dense<T, 3>, &dense<T, 4>, &dense<T, 5>},
            &diagonal<T>,
            &scale<T>};
  }
};

}  // namespace qc::sim::kernels::detail
