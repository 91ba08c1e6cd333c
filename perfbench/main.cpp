// Repository benchmark: the program run.py launches.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--commit ID]
//
// --trace 0 measures the end-to-end metrics of one workload with tracing
// off: it sets up and plays one seed-derived traffic instance after another
// (untraced Simulator::run) for S seconds, at least the workload's
// min_instances of them. --trace 1 alternates an untraced and a traced run
// of the first instance for S seconds (at least once each), checks the
// results, and runs the layer probes. The last line of standard output is
// one JSON object: correct, attempted, failed and the metrics of the
// selected mode. The exit code is 0 only when every correctness check
// passed.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "probes.hpp"
#include "report.hpp"
#include "tracing.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

// Every workload runs on one thread. On a shared 4-vCPU host, 4-thread runs
// of catalog_sparse spread about 2.5 times as much from run to run in
// decision_p90_ms as 1-thread runs (a statically partitioned parallel_for
// waits for the slowest vCPU), more than the benchmark's bounds allow. The
// traced run still drives the pool at kPoolThreads: the thread-invariance
// check and util.parallel_for_us.
constexpr std::size_t kThreads = 1;
constexpr std::size_t kPoolThreads = 4;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --flag value pairs, got " + flag);
    }
    values[flag.substr(2)] = argv[i + 1];
  }
  Args args;
  for (const auto& [flag, value] : values) {
    if (flag == "workload") {
      args.workload = value;
    } else if (flag == "seed") {
      args.seed = std::stoull(value);
    } else if (flag == "seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace must be 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "commit") {
      args.commit = value;
    } else {
      throw std::invalid_argument("unknown flag: --" + flag);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload missing");
  if (!(args.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be > 0");
  }
  return args;
}

void check(bool ok, const std::string& what, Result& result) {
  if (ok) return;
  std::cout << "CHECK FAILED: " << what << "\n";
  result.correct = false;
}

/// End-to-end metrics, tracing off.
Result run_end_to_end(const WorkloadSpec& spec, const Args& args) {
  Result result;
  // One set-up and one untraced run per instance, instance i built from
  // (seed, i), for the run time (and at least min_instances instances).
  // Set-up times are sampled across the whole run, like the run times.
  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::vector<double> decision_ms;
  double total_cost = 0.0;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < spec.min_instances || since(start) < args.seconds;
       ++i) {
    const auto setup_start = Clock::now();
    const std::unique_ptr<Setup> setup = make_setup(spec, args.seed, i);
    setup_s.push_back(since(setup_start));
    const auto run_start = Clock::now();
    const sim::SimulationResult sim = run_untraced(*setup);
    run_s.push_back(since(run_start));
    for (const sim::SlotRecord& slot : sim.slots) {
      decision_ms.push_back(slot.decision_seconds * 1e3);
    }
    result.attempted += sim.slots.size();
    result.failed += failed_decisions(*setup);
    if (i < spec.min_instances) total_cost += sim.total_cost();
  }
  check(result.failed == 0, "decisions failed", result);

  result.add("decision_p50_ms", percentile(decision_ms, 50.0), "ms");
  result.add("decision_p90_ms", percentile(decision_ms, 90.0), "ms");
  result.add("run_s", median(run_s), "s");
  result.add("setup_s", median(setup_s), "s");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  result.add("total_cost", total_cost, "cost");
  std::cout << "samples: decisions=" << decision_ms.size()
            << " runs=" << run_s.size() << " setups=" << setup_s.size()
            << " cost_instances=" << spec.min_instances << "\n";
  std::cout << "decision_ms deciles:";
  for (int p = 10; p <= 100; p += 10) {
    std::cout << " " << percentile(decision_ms, p);
  }
  std::cout << "\nrun_s per run:";
  for (const double s : run_s) std::cout << " " << s;
  std::cout << "\ndecisions_failed: "
            << static_cast<double>(result.failed) /
                   static_cast<double>(result.attempted)
            << " fraction (" << result.failed << " of " << result.attempted
            << ")\n";
  return result;
}

/// Per-layer metrics from traced runs, the correctness checks and probes.
Result run_per_layer(const WorkloadSpec& spec, const Args& args) {
  Result result;
  std::vector<double> build_s;
  std::unique_ptr<Setup> setup;
  for (int rep = 0; rep < 3; ++rep) {
    setup.reset();
    setup = make_setup(spec, args.seed, 0);
    build_s.push_back(setup->build_seconds);
  }
  const std::size_t horizon = setup->instance.horizon();
  // The probes re-solve four windows spread over the horizon.
  const std::size_t stride = std::max<std::size_t>(1, horizon / 4);

  // Alternate untraced and traced runs; layer figures are means per pass.
  TraceResult sum;
  TraceResult last;
  std::vector<double> overhead_s;
  double untraced_cost = 0.0;
  std::size_t passes = 0;
  const auto start = Clock::now();
  while (passes == 0 || since(start) < args.seconds) {
    const auto run_start = Clock::now();
    const double cost = run_untraced(*setup).total_cost();
    const double untraced_s = since(run_start);
    check(passes == 0 || same_bits(cost, untraced_cost),
          "total_cost changed between repeated untraced runs", result);
    untraced_cost = cost;
    last = traced_run(*setup, stride);
    overhead_s.push_back(last.wall_s - untraced_s);
    ++passes;
    check(same_bits(last.total_cost, untraced_cost),
          "traced total_cost differs from the untraced run", result);
    check(last.infeasible_slots == 0,
          "check_feasibility failed on an executed decision", result);
    result.attempted += last.decisions;
    result.failed += last.failed;
    sum.wall_s += last.wall_s;
    sum.predict_s += last.predict_s;
    sum.decide_self_s += last.decide_self_s;
    sum.observe_s += last.observe_s;
    sum.enforce_s += last.enforce_s;
    sum.overlay_s += last.overlay_s;
    sum.cost_s += last.cost_s;
    sum.events_s += last.events_s;
    sum.decide_allocations += last.decide_allocations;
    sum.decisions += last.decisions;
  }
  check(result.failed == 0, "decisions failed", result);
  if (setup->instance.config.has_neighbor_tier()) {
    check(last.neigh_served > 0.0,
          "no traffic served out of neighbor caches (collab tier idle)",
          result);
  }

  // Thread invariance: the same instance on the thread pool.
  util::ThreadPool::set_global_threads(kPoolThreads);
  const double pool_cost = run_untraced(*setup).total_cost();
  const double parallel_for_us =
      probe_parallel_for_us(setup->instance.config.num_sbs());
  util::ThreadPool::set_global_threads(kThreads);
  check(same_bits(pool_cost, untraced_cost),
        "total_cost differs between " + std::to_string(kThreads) + " and " +
            std::to_string(kPoolThreads) + " threads",
        result);

  const CoreProbe core_probe =
      probe_core(*setup, last.captured, /*useful_windows=*/2);
  const KernelProbe kernels =
      probe_kernels(*setup, last.captured[last.captured.size() / 2]);

  const auto per_pass = [&](double value) {
    return value / static_cast<double>(passes);
  };
  result.add("workload.predict_s", per_pass(sum.predict_s), "s");
  result.add("workload.predict_calls", static_cast<double>(last.predict_calls),
             "count");
  result.add("workload.predicted_nnz", static_cast<double>(last.predicted_nnz),
             "count");
  result.add("workload.build_s", median(build_s), "s");
  result.add("online.decide_s", per_pass(sum.predict_s + sum.decide_self_s),
             "s");
  result.add("online.decide_self_s", per_pass(sum.decide_self_s), "s");
  result.add("online.observe_s", per_pass(sum.observe_s), "s");
  result.add("online.allocs_per_decision",
             static_cast<double>(sum.decide_allocations) /
                 static_cast<double>(sum.decisions),
             "count");
  result.add("core.solve_s", core_probe.solve_s, "s");
  result.add("core.dual_iterations", core_probe.dual_iterations, "count");
  result.add("core.gap_mean", core_probe.gap_mean, "ratio");
  result.add("core.active_coords", core_probe.active_coords, "count");
  result.add("core.useful_iteration_ratio", core_probe.useful_iteration_ratio,
             "ratio");
  result.add("core.overlay_s", per_pass(sum.overlay_s), "s");
  result.add("core.neigh_served", last.neigh_served, "items");
  result.add("solver.p2_solve_us", kernels.p2_solve_us, "us");
  result.add("solver.p2_steady_allocs", kernels.p2_steady_allocs, "count");
  result.add("solver.p1_flow_us", kernels.p1_flow_us, "us");
  result.add("model.enforce_s", per_pass(sum.enforce_s), "s");
  result.add("model.cost_s", per_pass(sum.cost_s), "s");
  result.add("model.decision_bytes", static_cast<double>(last.decision_bytes),
             "bytes");
  result.add("sim.events_s", per_pass(sum.events_s), "s");
  result.add("sim.requests", static_cast<double>(last.requests), "count");
  result.add("util.parallel_for_us", parallel_for_us, "us");
  result.add("runtime.solve_failures", static_cast<double>(last.solve_failures),
             "count");
  result.add("runtime.deadline_expirations",
             static_cast<double>(last.deadline_expirations), "count");
  result.add("trace.wall_s", per_pass(sum.wall_s), "s");
  result.add("trace.unexplained_s", per_pass(sum.unexplained_s()), "s");
  result.add("trace.overhead_s", median(overhead_s), "s");
  std::cout << "samples: traced_passes=" << passes
            << " probe_windows=" << core_probe.windows
            << " total_cost=" << last.total_cost << "\n";
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const WorkloadSpec& spec = find_workload(args.workload);
    util::ThreadPool::set_global_threads(kThreads);

    RunContext context{.workload = spec.name,
                       .seed = args.seed,
                       .threads = kThreads,
                       .commit = args.commit};
    std::cout << "context: " << context.json() << "\n";
    const Result result =
        args.trace ? run_per_layer(spec, args) : run_end_to_end(spec, args);
    for (const Metric& m : result.metrics) {
      std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
    }
    const std::string line = result.json();
    std::cout << line << std::endl;
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
