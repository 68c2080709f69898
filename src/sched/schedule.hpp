// Cache-blocked sweep scheduler — the paper's §4 locality argument
// applied one level below the cluster.
//
// The §3.2 bandwidth model says gate-level simulation is memory bound:
// the "fused" backend (global_plan below) still pays one full 2^n DRAM
// pass per fused block, so at 20+ qubits every block streams the whole
// state through the memory bus. qHiPSTER (and our dist_sv) splits
// qubits into local/global so most gates touch only rank-local memory;
// this module applies the same split to the cache: qubits below the
// chunk width L are "local" (all their amplitude pairs live inside one
// 2^L-amplitude, cache-resident chunk), qubits at or above L are
// "global".
//
// schedule() partitions a FusedCircuit into *sweeps* — maximal in-order
// runs of ops whose support lies entirely below L. The executor
// (execute_blocked, sched/cached_simulator.hpp) then walks the state
// vector chunk by chunk, applying EVERY op of the sweep to a chunk while
// it is cache resident: one DRAM pass per sweep instead of one per op,
// with parallelism moved from "inside one op" to "across chunks" (one
// omp region per sweep instead of per op).
//
// Any other op closes the open sweep and executes as an ordinary
// full-vector pass (a Global item) at the qubits it names. No qubit
// ever changes position, so a plan needs no restore pass: a
// transposition pass relocating high qubits into the chunk (the cache
// twin of dist_sv's exchange) costs more than the Global passes it
// would save (README, "Cache-blocked execution").
#pragma once

#include <string>
#include <vector>

#include "circuit/gate.hpp"
#include "fuse/fusion.hpp"

namespace qc::sched {

/// One op of the blocked program: a fused item's qubits and payload.
struct ChunkOp {
  enum class Kind {
    Dense,     ///< k-qubit dense unitary (kernels::apply_multi).
    Diagonal,  ///< k-qubit diagonal (kernels::apply_multi_diagonal).
    Gate,      ///< Passthrough gate (specialized single-gate fast paths).
  };
  Kind kind = Kind::Gate;
  std::vector<qubit_t> qubits;   ///< Dense/Diagonal targets, ascending.
  linalg::Matrix unitary;        ///< Dense payload.
  std::vector<complex_t> diag;   ///< Diagonal payload (2^k entries).
  circuit::Gate gate;            ///< Gate payload.
  std::size_t gate_count = 1;    ///< Source gates folded into this op.
  std::size_t source_index = 0;  ///< Index of the originating FusedItem.
};

/// One element of the blocked plan, in execution order.
struct PlanItem {
  enum class Kind {
    Sweep,   ///< Chunk-local run: executed chunk by chunk, cache resident.
    Global,  ///< Single op executed as an ordinary full-vector pass.
  };
  Kind kind = Kind::Sweep;
  std::vector<ChunkOp> ops;  ///< Sweep payload.
  ChunkOp global;            ///< Global payload.
};

/// The blocked program plus bookkeeping for benches and tests.
struct BlockedPlan {
  qubit_t n = 0;
  qubit_t chunk_width = 0;  ///< L: chunks hold 2^L amplitudes.
  std::vector<PlanItem> items;
  std::size_t source_ops = 0;  ///< FusedItems consumed by the schedule.

  [[nodiscard]] std::size_t sweeps() const;
  [[nodiscard]] std::size_t globals() const;
  /// Ops placed inside sweeps (chunk-local).
  [[nodiscard]] std::size_t chunk_ops() const;
  /// Full state-vector passes the plan performs: one per sweep and one
  /// per global item — the quantity the scheduler minimizes (the fused
  /// path would pay source_ops passes).
  [[nodiscard]] std::size_t passes() const { return items.size(); }

  /// Human-readable plan summary.
  [[nodiscard]] std::string to_string() const;
};

struct ScheduleOptions {
  /// log2 amplitudes per chunk (L). 0 = derive from cache_bytes and the
  /// thread count (choose_chunk_width).
  qubit_t chunk_width = 0;
  /// Cache budget one chunk should fit when chunk_width is auto —
  /// roughly an L2's worth; 2^16 amplitudes = 1 MiB by default.
  std::size_t cache_bytes = std::size_t{1} << 20;
  /// Cap on fused-block width inside the blocked plan. Wide fusion is
  /// justified by saving full memory passes; inside a cache-resident
  /// sweep every op already shares one pass, so blocks past ~3 qubits
  /// only add 2^k mat-vec work per amplitude (measured by
  /// bench_ablation_blocking --fusion-sweep). sched::plan re-fuses at
  /// min(fusion max_width, this cap).
  qubit_t max_block_width = 3;
};

/// The chunk width schedule() will use for an n-qubit state: the
/// explicit opts.chunk_width if set, else the largest L with a
/// 2^L-amplitude chunk inside opts.cache_bytes, shrunk (never below 10,
/// the single-chunk floor) until the cross-chunk loop has at least
/// 4 x max_threads() chunks to balance, and clamped to n.
[[nodiscard]] qubit_t choose_chunk_width(qubit_t n, const ScheduleOptions& opts);

/// Builds the blocked plan for a fused circuit: each op whose qubits all
/// lie below the chunk width joins the open sweep, any other op closes
/// it and becomes a Global item. The plan applies the exact same unitary
/// (to rounding), in the fused op order.
[[nodiscard]] BlockedPlan schedule(const fuse::FusedCircuit& fc,
                                   const ScheduleOptions& opts = {});

/// The unblocked plan of a fused circuit: one Global item per fused op,
/// in order, so executing it pays one full state pass per op (the
/// "fused" backend). chunk_width is choose_chunk_width(fc.n, {}); no
/// op runs chunk by chunk.
[[nodiscard]] BlockedPlan global_plan(const fuse::FusedCircuit& fc);

}  // namespace qc::sched
