#pragma once
// Distance metrics and the pairwise-distance matrix used by the clustering
// algorithms of Algorithm 2.
//
// The matrix is the round hot path: Algorithm 2 clusters all n client
// updates plus the provisional global, an O(n^2 d) job.  It is therefore a
// first-class, reusable artifact -- built once per round (in parallel,
// with per-point norm caching under the cosine metric) and shared by the
// eps heuristic, DBSCAN, k-means++ seeding, the theta scores, and the
// nearest-cluster fallback, instead of each stage recomputing it.

#include <cstdint>
#include <span>
#include <vector>

#include "support/parallel.hpp"

namespace fairbfl::cluster {

enum class Metric : std::uint8_t {
    kCosine = 0,     ///< 1 - cos(x, y); the paper's default (theta_i)
    kEuclidean = 1,  ///< L2 distance
};

/// Distance between two vectors under the metric (exact, left-to-right
/// accumulation -- bit-identical to the theta arithmetic).
[[nodiscard]] double distance(Metric metric, std::span<const float> a,
                              std::span<const float> b) noexcept;

/// Symmetric n x n pairwise distance matrix (row-major, zero diagonal).
///
/// Construction fans tile rows out over the thread pool: each task takes
/// kTileRows points and runs the kernel table's pair tiles across the
/// rest of its triangle, so a point's row is streamed once per tile, not
/// once per pair.  Every tile entry has the bits of the per-pair kernel
/// and is written exactly once, so the values are identical under any
/// thread count and any tile shape.  Under the cosine metric the per-point
/// L2 norms are computed once and cached (one dot per pair instead of
/// three), bit-identical to pairwise cosine_distance.  Under the Euclidean
/// metric the blocked kernel is used: entries may differ from the exact
/// kernel in the last ulps, which is safe because every consumer compares
/// distances (eps thresholds, nearest-neighbour argmins) rather than
/// feeding them into reward or training arithmetic.
class DistanceMatrix {
public:
    /// Empty matrix (size() == 0).
    DistanceMatrix() = default;

    /// `pool` carries the row fan-out; the default shares the process
    /// pool.  Values are identical for any pool size (the test seam for
    /// the parallel-vs-serial determinism check).
    DistanceMatrix(Metric metric, std::span<const std::vector<float>> points,
                   support::ThreadPool& pool = support::ThreadPool::global());

    [[nodiscard]] double at(std::size_t i, std::size_t j) const noexcept {
        return values_[i * n_ + j];
    }
    /// Row i as a contiguous span of n distances.
    [[nodiscard]] std::span<const double> row(std::size_t i) const noexcept {
        return {values_.data() + i * n_, n_};
    }
    [[nodiscard]] std::size_t size() const noexcept { return n_; }
    [[nodiscard]] Metric metric() const noexcept { return metric_; }

    /// Cached per-point L2 norms; empty unless the metric is cosine.
    [[nodiscard]] std::span<const double> norms() const noexcept {
        return norms_;
    }

private:
    Metric metric_ = Metric::kCosine;
    std::size_t n_ = 0;
    std::vector<double> values_;
    std::vector<double> norms_;
};

}  // namespace fairbfl::cluster
