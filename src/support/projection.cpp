#include "support/projection.hpp"

#include <cmath>
#include <map>
#include <stdexcept>
#include <tuple>

#include "support/rng.hpp"
#include "support/sync.hpp"
#include "support/vecmath.hpp"

namespace fairbfl::support {

namespace {

using ProjectionKey = std::tuple<std::size_t, std::size_t, std::uint64_t>;
constexpr std::size_t kMaxSharedProjections = 8;

Mutex g_projection_mutex;
std::map<ProjectionKey, std::shared_ptr<const ProjectionMatrix>>
    g_projections GUARDED_BY(g_projection_mutex);

}  // namespace

ProjectionMatrix gaussian_projection(std::size_t in_dim, std::size_t out_dim,
                                     std::uint64_t seed) {
    ProjectionMatrix projection;
    projection.in_dim = in_dim;
    projection.out_dim = out_dim;
    projection.rows.resize(in_dim * out_dim);
    // One serial stream keeps the matrix independent of how the later
    // projection is scheduled.  Its k*d normal draws cost milliseconds
    // (~11 ms at d=7850, k=48), so repeated builds go through
    // shared_gaussian_projection.
    auto rng = Rng::fork(seed, /*stream=*/0x9807EC);
    const float scale =
        out_dim > 0 ? 1.0F / std::sqrt(static_cast<float>(out_dim)) : 0.0F;
    for (auto& entry : projection.rows)
        entry = scale * static_cast<float>(rng.normal());
    return projection;
}

std::shared_ptr<const ProjectionMatrix> shared_gaussian_projection(
    std::size_t in_dim, std::size_t out_dim, std::uint64_t seed) {
    const ProjectionKey key{in_dim, out_dim, seed};
    // Generated under the lock, so concurrent builds of one key (parallel
    // shard passes) wait for a single generation.
    MutexLock lock(g_projection_mutex);
    const auto found = g_projections.find(key);
    if (found != g_projections.end()) return found->second;
    // Few keys exist in practice (one per index configuration); the bound
    // only keeps a pathological caller from growing the memo.
    if (g_projections.size() >= kMaxSharedProjections) g_projections.clear();
    auto matrix = std::make_shared<const ProjectionMatrix>(
        gaussian_projection(in_dim, out_dim, seed));
    g_projections.emplace(key, matrix);
    return matrix;
}

std::vector<std::vector<float>> project_rows(
    const ProjectionMatrix& projection,
    std::span<const std::vector<float>> points, ThreadPool& pool) {
    for (const auto& point : points) {
        if (point.size() < projection.in_dim)
            throw std::invalid_argument(
                "project_rows: point narrower than the projection");
    }
    std::vector<std::vector<float>> projected(points.size());
    parallel_for(
        0, points.size(),
        [&](std::size_t i) {
            projected[i].resize(projection.out_dim);
            gemv(projection.rows, projection.out_dim, projection.in_dim,
                 std::span<const float>(points[i])
                     .first(projection.in_dim),
                 /*bias=*/{}, projected[i]);
        },
        pool);
    return projected;
}

}  // namespace fairbfl::support
