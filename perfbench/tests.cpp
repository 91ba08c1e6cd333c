// Tests of the benchmark's own helpers. Exit code 0 when every check
// passes; each failing check prints one line.
#include <bit>
#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>

#include "online/chc.hpp"
#include "online/rhc.hpp"
#include "report.hpp"
#include "tracing.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++g_failures;
  std::cout << "FAILED: " << what << "\n";
}

template <class F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

void test_percentile() {
  const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  expect(percentile(ten, 50.0) == 5.0, "p50 of 1..10 is 5 (nearest rank)");
  expect(percentile(ten, 90.0) == 9.0, "p90 of 1..10 is 9");
  expect(percentile(ten, 91.0) == 10.0, "p91 of 1..10 is 10");
  expect(percentile(ten, 100.0) == 10.0, "p100 is the maximum");
  expect(percentile(ten, 0.1) == 1.0, "a tiny rank is the minimum");
  expect(percentile({42.0}, 50.0) == 42.0, "p50 of one sample");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  expect(percentile(hundred, 90.0) == 90.0, "p90 of 1..100 is 90");
  expect(percentile(hundred, 99.0) == 99.0, "p99 of 1..100 is 99");
  expect(median({3, 1, 2}) == 2.0, "median of an odd sample");
  expect(median({4, 1, 3, 2}) == 2.5, "median of an even sample");
  expect(throws([] { percentile({}, 50.0); }), "empty sample throws");
  expect(throws([] { percentile({1.0}, 0.0); }), "rank 0 throws");
  expect(throws([] { percentile({1.0}, 101.0); }), "rank > 100 throws");
}

void test_metric_names() {
  for (const char* ok : {"run_s", "core.solve_s", "p2-us", "a", "9lives",
                         "workload.predicted_nnz"}) {
    expect(valid_metric_name(ok), std::string("valid name ") + ok);
  }
  for (const char* bad : {"", "_lead", ".lead", "has space", "slash/name",
                          "quote\"", "uni\xc3\xa9"}) {
    expect(!valid_metric_name(bad), std::string("invalid name ") + bad);
  }
  expect(!valid_metric_name(std::string(65, 'a')), "65 characters rejected");
  expect(valid_metric_name(std::string(64, 'a')), "64 characters accepted");

  Result result;
  result.add("bad name", 1.0, "s");
  expect(throws([&] { result.json(); }), "json() rejects an invalid name");
  Result twice;
  twice.add("x", 1.0, "s");
  twice.add("x", 2.0, "s");
  expect(throws([&] { twice.json(); }), "json() rejects a duplicate name");
  Result good;
  good.attempted = 3;
  good.add("run_s", 0.125, "s");
  expect(good.json() ==
             "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
             "\"metrics\": {\"run_s\": {\"value\": 0.125, \"unit\": \"s\"}}}",
         "json() layout");
}

/// A plain Simulator::run and one through both decorators give the same
/// total cost, bit for bit; so does the benchmark's own traced slot loop.
void test_decorator_transparency(bool chc, bool neighbors) {
  workload::PaperScenario scenario;
  scenario.num_sbs = neighbors ? 4 : 2;
  scenario.num_contents = 8;
  scenario.classes_per_sbs = 4;
  scenario.cache_capacity = 2;
  scenario.bandwidth = 3.0;
  scenario.horizon = 12;
  scenario.seed = 11;
  if (neighbors) {
    scenario.neighbor_topology = workload::NeighborTopologyKind::kGrid;
    scenario.grid_cols = 2;
    scenario.inter_sbs_bandwidth = 2.0;
  }
  Setup setup;
  setup.instance = scenario.build();
  setup.window = 3;
  setup.predictor = std::make_unique<workload::NoisyPredictor>(
      setup.instance.demand, 0.1, 5);
  setup.options.simulate_events = neighbors;
  setup.options.supervision = &setup.log;
  setup.simulator = std::make_unique<sim::Simulator>(
      setup.instance, *setup.predictor, setup.options);
  if (chc) {
    setup.controller = std::make_unique<online::ChcController>(3, 2);
  } else {
    setup.controller = std::make_unique<online::RhcController>(3);
  }
  const std::string label = std::string(chc ? "CHC" : "RHC") +
                            (neighbors ? " with neighbors" : "");

  const double plain = run_untraced(setup).total_cost();
  TracingPredictor predictor(*setup.predictor);
  TracingController controller(*setup.controller, predictor, 4);
  const sim::Simulator decorated(setup.instance, predictor, setup.options);
  const double through = decorated.run(controller).total_cost();
  expect(std::bit_cast<std::uint64_t>(plain) ==
             std::bit_cast<std::uint64_t>(through),
         label + ": decorators change total_cost");
  expect(controller.decisions() == scenario.horizon,
         label + ": one decide() per slot");
  expect(predictor.calls() > 0, label + ": predictor calls counted");
  expect(controller.captured().size() == 3, label + ": slots 0, 4, 8 captured");

  const TraceResult traced = traced_run(setup, 4);
  expect(std::bit_cast<std::uint64_t>(plain) ==
             std::bit_cast<std::uint64_t>(traced.total_cost),
         label + ": traced slot loop changes total_cost");
  expect(traced.infeasible_slots == 0, label + ": infeasible decision");
  expect(traced.unexplained_s() >= 0.0, label + ": spans exceed the wall");
  expect(!neighbors || traced.requests > 0, label + ": no event requests");
}

}  // namespace

int main() {
  test_percentile();
  test_metric_names();
  test_decorator_transparency(/*chc=*/false, /*neighbors=*/false);
  test_decorator_transparency(/*chc=*/true, /*neighbors=*/true);
  if (g_failures > 0) {
    std::cout << g_failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "all perfbench helper checks passed\n";
  return 0;
}
