// Figure 4: our simulator vs qHiPSTER on the distributed QFT (weak
// scaling). The structural difference reproduced here: our simulator
// applies diagonal gates (the QFT's conditional phase shifts) on global
// qubits without any communication, while the unspecialized simulator
// performs the pairwise chunk exchange for every global-target gate —
// so our advantage grows with the number of distributed qubits. The
// third column runs the distributed plan (rank-local fused +
// cache-blocked sweeps with amortized global<->local exchange passes)
// on the same workload. The three final states must agree: the bench
// exits 1 when they do not.
//
// Usage: fig4_sim_weak [--local-qubits L] [--max-ranks P] [--json FILE]
//                      [--metrics [FILE]] [--full]
//   defaults: L = 20 qubits/rank, P up to 8; --full: L = 22, P up to 16
//   --json: write machine-readable per-point timings + communication
//           volumes
//   --metrics: run a multi-op engine program (the QFT in four gate
//           segments with interleaved ExpectationZ and a final
//           Measure) on the "dist" backend at the largest point with
//           tracing on, print the span summary + model-drift report
//           (predicted vs measured sweep/exchange time), and — given a
//           FILE — write the flat metrics JSON there
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "circuit/builders.hpp"
#include "common/parallel.hpp"
#include "engine/engine.hpp"
#include "obs/report.hpp"
#include "sched/dist_schedule.hpp"
#include "sim/dist_sv.hpp"

namespace {

using namespace qc;

struct Row {
  qubit_t n;
  int ranks;
  double t_ours;
  double t_qhip;
  double t_plan;
  std::uint64_t bytes_ours;
  std::uint64_t bytes_qhip;
  std::uint64_t bytes_plan;
  bool agree;  ///< The three final states match.
};

Row run_point(qubit_t local_qubits, int ranks) {
  const qubit_t n = local_qubits + bits::log2_floor(static_cast<index_t>(ranks));
  Row row{n, ranks, 0, 0, 0, 0, 0, 0, false};
  cluster::Cluster cluster(ranks);
  const circuit::Circuit qft_circuit = circuit::qft(n);
  const sched::DistPlan plan = sched::dist_schedule(qft_circuit, local_qubits, {});
  cluster.run([&](cluster::Comm& comm) {
    sim::DistStateVector ours(comm, n);
    ours.randomize(n);
    ours.run(qft_circuit, sim::CommPolicy::Specialized);  // warm-up
    ours.randomize(n);
    comm.barrier();
    WallTimer t;
    ours.run(qft_circuit, sim::CommPolicy::Specialized);
    const double t_ours = comm.allreduce_max(t.seconds());

    sim::DistStateVector qhip(comm, n);
    qhip.randomize(n);
    comm.barrier();
    t.reset();
    qhip.run(qft_circuit, sim::CommPolicy::Exchange);
    const double t_qhip = comm.allreduce_max(t.seconds());

    sim::DistStateVector planned(comm, n);
    planned.randomize(n);
    comm.barrier();
    t.reset();
    sched::run_dist_plan(planned, plan);
    const double t_plan = comm.allreduce_max(t.seconds());

    // Sanity: identical states.
    const double diff = ours.max_abs_diff(qhip);
    const double diff_plan = ours.max_abs_diff(planned);
    if (comm.rank() == 0) {
      if (diff > 1e-10) std::fprintf(stderr, "ERROR: policies disagree (%g)\n", diff);
      if (diff_plan > 1e-10)
        std::fprintf(stderr, "ERROR: dist plan disagrees (%g)\n", diff_plan);
      row.agree = diff <= 1e-10 && diff_plan <= 1e-10;
      row.t_ours = t_ours;
      row.t_qhip = t_qhip;
      row.t_plan = t_plan;
      row.bytes_ours = ours.bytes_communicated();
      row.bytes_qhip = qhip.bytes_communicated();
      row.bytes_plan = planned.bytes_communicated();
    }
  });
  return row;
}

/// Fig. 4's speedup, eyeballed: ~1x single node growing toward ~2x at
/// 256 nodes.
double paper_speedup(int ranks) { return ranks == 1 ? 1.0 : (ranks >= 8 ? 1.5 : 1.2); }

/// The QFT cut into four gate segments with an ExpectationZ between
/// each and a final measurement: the multi-op program the --metrics
/// trace runs through Engine::run.
engine::Program engine_program(qubit_t n) {
  const circuit::Circuit qc = circuit::qft(n);
  const auto& gates = qc.gates();
  engine::Program p(n);
  const std::size_t seg = (gates.size() + 3) / 4;
  for (std::size_t start = 0; start < gates.size(); start += seg) {
    circuit::Circuit s(n);
    for (std::size_t i = start; i < std::min(gates.size(), start + seg); ++i)
      s.append(gates[i]);
    p.gates(s);
    p.expectation_z(0b11);
  }
  p.measure({0, std::min<qubit_t>(4, n)});
  return p;
}

void write_json(const std::string& path, qubit_t local_qubits, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"fig4_sim_weak\",\n  \"local_qubits\": %u,\n"
               "  \"threads\": %d,\n  \"results\": [\n",
               local_qubits, qc::max_threads());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"qubits\": %u, \"ranks\": %d, \"t_ours\": %.6e,"
                 " \"t_qhip\": %.6e, \"t_plan\": %.6e, \"bytes_ours\": %llu,"
                 " \"bytes_qhip\": %llu, \"bytes_plan\": %llu}%s\n",
                 r.n, r.ranks, r.t_ours, r.t_qhip, r.t_plan,
                 static_cast<unsigned long long>(r.bytes_ours),
                 static_cast<unsigned long long>(r.bytes_qhip),
                 static_cast<unsigned long long>(r.bytes_plan),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const bool full = cli.has("full");
  const long local_qubits = cli.get_int("local-qubits", full ? 22 : 20);
  const long max_ranks = cli.get_int("max-ranks", full ? 16 : 8);
  const std::string json_path = cli.get_string("json", "");

  bench::print_header("fig4_sim_weak",
                      "Fig. 4 — our simulator vs qHiPSTER-like, distributed QFT");
  std::printf("advantage mechanism: diagonal gates on distributed qubits move zero\n"
              "bytes under our policy, a full chunk exchange under the generic one;\n"
              "the dist plan additionally batches rank-local work into fused sweeps\n\n");

  std::vector<Row> rows;
  Table table({"qubits", "ranks", "T_ours [s]", "T_qhip [s]", "T_plan [s]", "speedup",
               "MB_ours", "MB_qhip", "MB_plan", "paper~"});
  for (int p = 1; p <= max_ranks; p *= 2) {
    const Row r = run_point(static_cast<qubit_t>(local_qubits), p);
    rows.push_back(r);
    table.add_row({std::to_string(r.n), std::to_string(r.ranks), sci(r.t_ours),
                   sci(r.t_qhip), sci(r.t_plan), fixed(r.t_qhip / r.t_ours, 2) + "x",
                   fixed(static_cast<double>(r.bytes_ours) / 1e6, 1),
                   fixed(static_cast<double>(r.bytes_qhip) / 1e6, 1),
                   fixed(static_cast<double>(r.bytes_plan) / 1e6, 1),
                   fixed(paper_speedup(p), 1) + "x"});
  }
  table.print("weak scaling, rank-0 communication volume in MB");
  std::printf("\npaper: the advantage grows with required communication, from ~1x\n"
              "on a single node to ~2x at 256 nodes (Fig. 4). Single-node rows\n"
              "differ only by local kernel specialization.\n");

  if (cli.has("metrics")) {
    // One traced engine_program run at the largest point: the per-rank
    // lane breakdown plus the model-validation report (sweep memory time vs
    // models::t_state_pass_seconds, Eq. 6 chunk-exchange time vs
    // models::t_chunk_exchange_seconds).
    const qubit_t n =
        static_cast<qubit_t>(local_qubits) +
        bits::log2_floor(static_cast<index_t>(max_ranks));
    engine::RunOptions opts;
    opts.backend = "dist";
    opts.dist_ranks = static_cast<int>(max_ranks);
    opts.collapse_measurements = false;
    opts.trace = true;
    const engine::Result traced = engine::Engine().run(engine_program(n), opts);
    if (traced.trace_data != nullptr) {
      const obs::TraceData& data = *traced.trace_data;
      obs::summary_table(data).print("traced dist run — span summary");
      obs::model_report_table(obs::model_report(data), data)
          .print("model drift: measured vs predicted (drift > 1: model optimistic)");
      std::printf("load imbalance (max/mean rank exec - 1): %.3f\n",
                  obs::load_imbalance(data));
      const std::string metrics_path = cli.get_string("metrics", "");
      if (!metrics_path.empty()) {
        std::FILE* f = std::fopen(metrics_path.c_str(), "w");
        if (f != nullptr) {
          const std::string json = obs::metrics_json(data);
          std::fwrite(json.data(), 1, json.size(), f);
          std::fclose(f);
          std::printf("wrote %s\n", metrics_path.c_str());
        }
      }
    }
  }

  if (!json_path.empty()) write_json(json_path, static_cast<qubit_t>(local_qubits), rows);
  for (const Row& r : rows)
    if (!r.agree) return 1;
  return 0;
}
