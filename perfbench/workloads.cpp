#include "workloads.hpp"

#include <chrono>
#include <set>
#include <stdexcept>

#include "online/chc.hpp"
#include "online/rhc.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"
#include "workload/zipf.hpp"

namespace perfbench {

namespace {

/// splitmix64 finalizer over (seed, instance index, stream): independent,
/// reproducible sub-seeds for the scenario, the predictor and the events.
std::uint64_t derive_seed(std::uint64_t seed, std::size_t index,
                          std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL +
                    static_cast<std::uint64_t>(index) * 0xBF58476D1CE4E5B9ULL +
                    stream * 0x94D049BB133111EBULL + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr double kEta = 0.1;

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {.name = "paper_rhc", .min_instances = 8},
      {.name = "catalog_sparse", .min_instances = 5},
      {.name = "coop_chc", .min_instances = 6},
  };
  return specs;
}

const WorkloadSpec& find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.name == name) return spec;
  }
  throw std::invalid_argument("unknown workload: " + std::string(name));
}

std::unique_ptr<Setup> make_setup(const WorkloadSpec& spec, std::uint64_t seed,
                                  std::size_t index) {
  auto setup = std::make_unique<Setup>();
  // The cell (MU classes, topology) is the workload's fixed network, drawn
  // from the scenario's default seed; the seed argument drives the traffic:
  // the demand trace, the forecast noise and the request-level draws.
  workload::PaperScenario scenario;
  bool sparse = false;
  if (spec.name == "paper_rhc") {
    setup->window = 10;
  } else if (spec.name == "catalog_sparse") {
    scenario.num_sbs = 16;
    scenario.num_contents = 10000;
    scenario.classes_per_sbs = 2;
    // 2% Zipf head: rates below the rank-200 popularity become structural
    // zeros, so the sparse solver scales with the head, not with K.
    scenario.workload.min_rate = workload::zipf_mandelbrot_pmf(
        scenario.num_contents, scenario.workload.zipf_alpha,
        scenario.workload.zipf_q)[200];
    setup->window = 4;
    sparse = true;
  } else if (spec.name == "coop_chc") {
    scenario.num_sbs = 4;
    scenario.classes_per_sbs = 20;
    scenario.neighbor_topology = workload::NeighborTopologyKind::kGrid;
    scenario.grid_cols = 2;
    scenario.inter_sbs_bandwidth = 5.0;
    setup->window = 10;
    setup->options.simulate_events = true;
    setup->options.event_options.seed = derive_seed(seed, index, 3);
  } else {
    throw std::invalid_argument("no setup for workload " + spec.name);
  }

  const auto build_start = std::chrono::steady_clock::now();
  const std::size_t horizon = scenario.horizon;
  scenario.horizon = 1;  // network only; the trace is generated below
  setup->instance = sparse ? scenario.build_sparse() : scenario.build();
  workload::WorkloadOptions traffic = scenario.workload;
  traffic.seed = derive_seed(seed, index, 1);
  if (sparse) {
    setup->instance.sparse_demand = workload::generate_sparse_demand(
        setup->instance.config, horizon, traffic);
  } else {
    setup->instance.demand =
        workload::generate_demand(setup->instance.config, horizon, traffic);
  }
  setup->instance.validate();
  setup->build_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - build_start)
                             .count();
  const std::uint64_t predictor_seed = derive_seed(seed, index, 2);
  if (sparse) {
    setup->predictor = std::make_unique<workload::NoisyPredictor>(
        setup->instance.sparse_demand, kEta, predictor_seed);
  } else {
    setup->predictor = std::make_unique<workload::NoisyPredictor>(
        setup->instance.demand, kEta, predictor_seed);
  }
  setup->options.supervision = &setup->log;
  setup->simulator = std::make_unique<sim::Simulator>(
      setup->instance, *setup->predictor, setup->options);
  if (spec.name == "coop_chc") {
    setup->controller = std::make_unique<online::ChcController>(
        setup->window, /*commit=*/5, setup->solver_options);
  } else {
    setup->controller = std::make_unique<online::RhcController>(
        setup->window, setup->solver_options);
  }
  return setup;
}

sim::SimulationResult run_untraced(Setup& setup) {
  setup.log.clear();
  return setup.simulator->run(*setup.controller);
}

std::size_t failed_decisions(const Setup& setup) {
  std::set<std::size_t> slots;
  for (const runtime::SupervisionEvent& event : setup.log.events) {
    if (event.kind == runtime::SupervisionEventKind::kSolveFailure) {
      slots.insert(event.slot);
    }
  }
  return slots.size();
}

}  // namespace perfbench
