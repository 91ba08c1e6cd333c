#include "report.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

std::string number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string quoted(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

double percentile(std::vector<double> sample, double p) {
  if (sample.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(p > 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile rank must be in (0, 100]");
  }
  std::sort(sample.begin(), sample.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sample.size())));
  return sample[std::clamp<std::size_t>(rank, 1, sample.size()) - 1];
}

double median(std::vector<double> sample) {
  if (sample.empty()) throw std::invalid_argument("median of no samples");
  std::sort(sample.begin(), sample.end());
  const std::size_t mid = sample.size() / 2;
  return sample.size() % 2 == 1 ? sample[mid]
                                : 0.5 * (sample[mid - 1] + sample[mid]);
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void Result::add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

std::string Result::json() const {
  std::set<std::string> seen;
  std::string body;
  for (const Metric& m : metrics) {
    if (!valid_metric_name(m.name)) {
      throw std::invalid_argument("invalid metric name: " + m.name);
    }
    if (!seen.insert(m.name).second) {
      throw std::invalid_argument("duplicate metric name: " + m.name);
    }
    if (!std::isfinite(m.value)) {
      throw std::invalid_argument("non-finite value for metric " + m.name);
    }
    if (!body.empty()) body += ", ";
    body += quoted(m.name) + ": {\"value\": " + number(m.value) +
            ", \"unit\": " + quoted(m.unit) + "}";
  }
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" + body +
         "}}";
}

std::string RunContext::json() const {
  return "{\"workload\": " + quoted(workload) +
         ", \"seed\": " + std::to_string(seed) +
         ", \"threads\": " + std::to_string(threads) +
         ", \"nproc\": " + std::to_string(available_cpus()) +
         ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE) +
         ", \"compiler\": " + quoted(PERFBENCH_COMPILER) +
         ", \"commit\": " + quoted(commit) + "}";
}

std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<std::size_t>(count);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
