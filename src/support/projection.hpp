#pragma once
// Random-projection kernels: the dimensionality-reduction step behind the
// approximate gradient-neighborhood indexes (cluster::RandomProjectionIndex).
//
// A seeded Gaussian matrix P (out_dim x in_dim, entries N(0, 1/out_dim))
// maps d-dim gradients to k-dim sketches in O(n d k); by the
// Johnson-Lindenstrauss lemma, Euclidean distances (and, for mean-free
// gradient deltas, cosine geometry) are preserved up to
// O(sqrt(log n / k)) relative distortion -- enough for the comparison-only
// consumers (eps thresholds, nearest-neighbour argmins) that clustering
// runs on.  Never feed projected values into reward or training
// arithmetic.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "support/parallel.hpp"

namespace fairbfl::support {

/// A dense row-major out_dim x in_dim projection matrix.
struct ProjectionMatrix {
    std::size_t in_dim = 0;
    std::size_t out_dim = 0;
    std::vector<float> rows;  ///< out_dim x in_dim, row-major

    [[nodiscard]] bool empty() const noexcept { return rows.empty(); }
};

/// Seeded Gaussian projection: entries ~ N(0, 1) scaled by 1/sqrt(out_dim),
/// so projected squared Euclidean norms are unbiased estimates of the
/// originals.  Deterministic in (in_dim, out_dim, seed) -- the entries are
/// drawn from one serial stream, independent of any thread count.
[[nodiscard]] ProjectionMatrix gaussian_projection(std::size_t in_dim,
                                                   std::size_t out_dim,
                                                   std::uint64_t seed);

/// gaussian_projection(in_dim, out_dim, seed), generated once per process
/// per key and then shared: the matrix depends on nothing else, and at
/// d=7850, k=48 a generation costs ~11 ms.  Thread-safe.
[[nodiscard]] std::shared_ptr<const ProjectionMatrix> shared_gaussian_projection(
    std::size_t in_dim, std::size_t out_dim, std::uint64_t seed);

/// out[i] = P * points[i] for every row, fanned out over `pool` (points are
/// independent).  Each output coordinate is a strict left-to-right `dot`
/// chain (support::gemv), so results are identical under any thread count.
/// Rows shorter than P.in_dim are rejected with std::invalid_argument.
[[nodiscard]] std::vector<std::vector<float>> project_rows(
    const ProjectionMatrix& projection,
    std::span<const std::vector<float>> points,
    ThreadPool& pool = ThreadPool::global());

}  // namespace fairbfl::support
