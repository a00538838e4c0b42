// Summary statistics for timing samples.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Minimum number of samples that must lie strictly beyond a reported
/// percentile; below it the percentile is noise from a handful of points.
constexpr std::size_t kMinSamplesBeyond = 10;

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> samples);

/// Nearest-rank q-quantile (q in (0, 1)), reported only when at least
/// kMinSamplesBeyond samples lie strictly above its rank.
std::optional<double> supported_percentile(std::vector<double> samples,
                                           double q);

/// The highest of p99.9, p99, p95, p90 and p75 that supported_percentile()
/// reports, as {q, value}; nullopt when none is supported.
std::optional<std::pair<double, double>> highest_supported_percentile(
    const std::vector<double>& samples);

}  // namespace perfbench
