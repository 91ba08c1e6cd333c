// The benchmark's named workloads and how one seed-derived instance of each
// is built and run.
//
// Every workload is closed-loop (the simulator asks for slot t + 1 only
// after slot t is executed) and runs in one single-threaded process:
//   paper_rhc      — the paper's headline instance (N=1, K=30, M=30, w=10)
//                    under RHC. The solver kernels do almost all the work;
//                    the dense O(K) layers do not.
//   catalog_sparse — K=10^4 truncated-Zipf catalogue (2% head), N=16, M=2,
//                    w=4, sparse demand, RHC. The O(K) layers around the
//                    sparse solver dominate.
//   coop_chc       — 2x2 grid of SBSs (inter-SBS bandwidth 5), M=20, K=30,
//                    w=10, CHC(r=5) with cooperative routing and the
//                    request-level event layer on. The committed FHC
//                    planners, the neighbor overlay and the event simulator
//                    run here and nowhere else.
// The process-shard layer, fault injection and checkpoints are left out:
// they are off by default and are not throughput paths.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/primal_dual.hpp"
#include "model/instance.hpp"
#include "online/controller.hpp"
#include "runtime/supervisor.hpp"
#include "sim/simulator.hpp"
#include "workload/predictor.hpp"

namespace perfbench {

namespace core = mdo::core;
namespace linalg = mdo::linalg;
namespace model = mdo::model;
namespace online = mdo::online;
namespace runtime = mdo::runtime;
namespace sim = mdo::sim;
namespace util = mdo::util;
namespace workload = mdo::workload;

struct WorkloadSpec {
  std::string name;
  /// Seed-derived traffic instances every end-to-end run plays (it plays
  /// further ones while time remains); total_cost sums over these. Timings
  /// pooled over several instances stay steady across seeds, where one
  /// instance's solver path would not.
  std::size_t min_instances = 1;
};

/// The named workloads, in the order the benchmark lists them.
const std::vector<WorkloadSpec>& workloads();
/// Throws std::invalid_argument for an unknown name.
const WorkloadSpec& find_workload(std::string_view name);

/// One instance of a workload with everything a run needs. Heap-held and
/// not movable: the simulator and the options point into it.
struct Setup {
  Setup() = default;
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;

  model::ProblemInstance instance;
  std::unique_ptr<workload::Predictor> predictor;
  /// Receives solve failures and deadline expirations of every run.
  runtime::SupervisionLog log;
  sim::SimulatorOptions options;
  std::unique_ptr<sim::Simulator> simulator;
  std::unique_ptr<online::Controller> controller;
  core::PrimalDualOptions solver_options;
  std::size_t window = 1;
  /// Wall time of the scenario build (network and demand trace) alone.
  double build_seconds = 0.0;
};

/// Builds instance `index` of the workload for `seed`: scenario, predictor,
/// simulator and controller. Deterministic in (spec, seed, index).
std::unique_ptr<Setup> make_setup(const WorkloadSpec& spec, std::uint64_t seed,
                                  std::size_t index);

/// One untraced Simulator::run of the setup, with its supervision log
/// cleared first.
sim::SimulationResult run_untraced(Setup& setup);

/// Decisions of a finished run that failed: the decide() calls that logged
/// a solve failure (a fallback SolveStatus) in the setup's supervision log.
std::size_t failed_decisions(const Setup& setup);

}  // namespace perfbench
