// Shared helpers of the incdb benchmark: clocks, order statistics,
// the named-metric record every workload fills, and fatal-error exit.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Set-up failures are not measurements: the benchmark prints why and exits
/// non-zero without a result line.
[[noreturn]] inline void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: FATAL: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Must(incdb::Result<T> result, const std::string& what) {
  if (!result.ok()) Fatal(what + ": " + result.status().ToString());
  return std::move(result).value();
}
inline void Must(const incdb::Status& status, const std::string& what) {
  if (!status.ok()) Fatal(what + ": " + status.ToString());
}

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(q * static_cast<double>(values.size()));
  return values[std::min(rank, values.size() - 1)];
}
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
inline double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What one workload run hands back to main(). `e2e` holds the metrics
/// of an untraced run, `layers` those of a traced one; `ungated` holds the
/// wall-clock figures the report prints but no bound applies to, and
/// `info` everything else worth printing (sample counts, checks).
struct RunOutput {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  std::vector<Metric> ungated;
  std::vector<std::pair<std::string, std::string>> info;
  std::vector<std::string> errors;

  void Fail(std::string why) {
    correct = false;
    if (errors.size() < 20) errors.push_back(std::move(why));
  }
  void Info(std::string key, std::string value) {
    info.emplace_back(std::move(key), std::move(value));
  }
  void Info(std::string key, double value) {
    info.emplace_back(std::move(key), std::to_string(value));
  }
};

/// Command line of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
