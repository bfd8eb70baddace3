#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nearest-rank q-quantile of `sorted` (ascending), q in (0, 1]: the value at
/// rank ceil(q * n). Returns 0 for an empty span.
double NearestRank(std::span<const double> sorted, double q);

/// Percentiles of one operation class, with the number of samples they were
/// taken from (a pXX needs ten samples beyond it: p90 >= 100, p99 >= 1000).
struct Latency {
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  std::size_t samples = 0;
};

/// Sorts `samples` in place and summarizes them.
Latency Summarize(std::vector<double>& samples);

/// Median by nearest rank (the lower middle value for an even count).
double Median(std::vector<double> values);

/// True when `name` is 1 to 64 characters of letters, digits, '_', '.' and
/// '-', starting with a letter or digit: the vocabulary BENCHMARK.json
/// accepts for workload and metric names.
bool IsValidName(std::string_view name);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
