#include "stats.h"

#include <algorithm>
#include <cctype>
#include <cmath>

namespace perfbench {

double NearestRank(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

Latency Summarize(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  return Latency{NearestRank(samples, 0.50), NearestRank(samples, 0.90),
                 NearestRank(samples, 0.99), samples.size()};
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return NearestRank(values, 0.5);
}

bool IsValidName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name.front()))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' || c == '-';
  });
}

}  // namespace perfbench
