#include "cluster/distance.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "support/parallel.hpp"
#include "support/simd.hpp"
#include "support/vecmath.hpp"

namespace fairbfl::cluster {

double distance(Metric metric, std::span<const float> a,
                std::span<const float> b) noexcept {
    switch (metric) {
        case Metric::kCosine:
            return support::cosine_distance(a, b);
        case Metric::kEuclidean:
            return std::sqrt(support::squared_distance(a, b));
    }
    return 0.0;
}

DistanceMatrix::DistanceMatrix(Metric metric,
                               std::span<const std::vector<float>> points,
                               support::ThreadPool& pool)
    : metric_(metric),
      n_(points.size()),
      values_(points.size() * points.size(), 0.0) {
    if (n_ < 2) return;
    if (metric_ == Metric::kCosine) norms_ = support::norms_of(points, pool);

    constexpr std::size_t kRows = support::simd::kTileRows;
    constexpr std::size_t kCols = support::simd::kTileCols;
    const std::size_t dim = points[0].size();
    const support::simd::KernelTable& kernels = support::simd::active();
    const auto tile_kernel = metric_ == Metric::kCosine
                                 ? kernels.dot_tile
                                 : kernels.squared_distance_blocked_tile;
    // Upper triangle by tile rows: task b owns rows [b*kRows, b*kRows +
    // kRows) and, for each of its rows i, every pair (i, j > i) and its
    // mirror slot, so writes never overlap.  The tiles on the diagonal
    // compute a few pairs with j <= i and drop them.
    support::parallel_for(
        0, (n_ - 1 + kRows - 1) / kRows,
        [&](std::size_t block) {
            const std::size_t i0 = block * kRows;
            const std::size_t rows = std::min(kRows, n_ - 1 - i0);
            const float* xs[kRows];
            for (std::size_t r = 0; r < rows; ++r) {
                assert(points[i0 + r].size() == dim);
                xs[r] = points[i0 + r].data();
            }
            for (std::size_t j0 = i0 + 1; j0 < n_; j0 += kCols) {
                const std::size_t cols = std::min(kCols, n_ - j0);
                const float* ys[kCols];
                for (std::size_t c = 0; c < cols; ++c)
                    ys[c] = points[j0 + c].data();
                double tile[kRows * kCols];
                tile_kernel(xs, rows, ys, cols, dim, tile);
                for (std::size_t r = 0; r < rows; ++r) {
                    const std::size_t i = i0 + r;
                    for (std::size_t c = 0; c < cols; ++c) {
                        const std::size_t j = j0 + c;
                        if (j <= i) continue;
                        const double t = tile[r * cols + c];
                        const double d =
                            metric_ == Metric::kCosine
                                ? support::cosine_distance_from_dot(
                                      t, norms_[i], norms_[j])
                                : std::sqrt(t);
                        values_[i * n_ + j] = d;
                        values_[j * n_ + i] = d;
                    }
                }
            }
        },
        pool);
}

}  // namespace fairbfl::cluster
