#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  const double lower = *std::max_element(samples.begin(), samples.begin() + mid);
  return 0.5 * (lower + upper);
}

std::optional<double> supported_percentile(std::vector<double> samples,
                                           double q) {
  if (samples.empty() || q <= 0.0 || q >= 1.0) return std::nullopt;
  const std::size_t n = samples.size();
  // Nearest rank: the smallest sample with at least q * n samples at or
  // below it (the slack keeps 0.99 * 1000 from rounding up to 991).
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(n) - 1e-9)));
  const std::size_t index = rank - 1;
  if (n - 1 - index < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

std::optional<std::pair<double, double>> highest_supported_percentile(
    const std::vector<double>& samples) {
  for (const double q : {0.999, 0.99, 0.95, 0.9, 0.75}) {
    if (const auto value = supported_percentile(samples, q)) {
      return std::make_pair(q, *value);
    }
  }
  return std::nullopt;
}

}  // namespace perfbench
