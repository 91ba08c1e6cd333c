// Result reporting for the benchmark: sample statistics, metric
// naming rules, the run-context record and the one-line JSON result.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of an unsorted sample, p in (0, 100]: the
/// smallest value with at least p% of the sample at or below it.
/// Throws std::invalid_argument on an empty sample or p outside (0, 100].
double percentile(std::vector<double> sample, double p);

/// Middle value of an unsorted sample (mean of the two middle values for an
/// even count). Throws std::invalid_argument on an empty sample.
double median(std::vector<double> sample);

/// True when `name` is 1..64 characters of [A-Za-z0-9_.-] and starts with a
/// letter or digit.
bool valid_metric_name(std::string_view name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's final line: correctness verdict, decisions attempted and
/// failed, and the metrics of the selected mode.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit);
  /// One JSON object; throws std::invalid_argument on an invalid metric
  /// name, a duplicate name or a non-finite value.
  std::string json() const;
};

/// Where and how a result was produced, printed next to every result.
struct RunContext {
  std::string workload;
  std::uint64_t seed = 0;
  std::size_t threads = 1;
  std::string commit;  // source identity passed in by the launcher

  std::string json() const;
};

/// Logical CPUs available to this process (sched_getaffinity, else
/// hardware concurrency; always >= 1).
std::size_t available_cpus();

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

}  // namespace perfbench
