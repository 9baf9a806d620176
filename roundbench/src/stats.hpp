#pragma once
// The order statistics per-round figures are reported as.  (Spreads
// across runs are computed by spread.py with Python's
// statistics.quantiles, the same function BENCHMARK.json's bounds are
// checked with.)

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

namespace roundbench {

/// The p-quantile of `values` (0 <= p <= 1), interpolating linearly
/// between the two nearest order statistics.  Throws
/// std::invalid_argument on an empty input.
inline double quantile(std::vector<double> values, double p) {
    if (values.empty()) throw std::invalid_argument("quantile of no values");
    std::sort(values.begin(), values.end());
    const double position = p * static_cast<double>(values.size() - 1);
    const auto below = static_cast<std::size_t>(std::floor(position));
    const std::size_t above = std::min(below + 1, values.size() - 1);
    const double weight = position - static_cast<double>(below);
    return values[below] + weight * (values[above] - values[below]);
}

/// Median of `values` (mean of the two middle values for an even count).
inline double median(std::vector<double> values) {
    return quantile(std::move(values), 0.5);
}

}  // namespace roundbench
