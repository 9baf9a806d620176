// GradientIndex: exact-backend equivalence with the dense matrix, the
// string-keyed registry, approximate-backend quality (recall, attack
// detection within 2% of exact), and the small-n break-even fallbacks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "cluster/dbscan.hpp"
#include "cluster/index.hpp"
#include "cluster/kmeans.hpp"
#include "core/experiment.hpp"
#include "core/fairbfl.hpp"
#include "incentive/contribution.hpp"
#include "support/projection.hpp"
#include "support/rng.hpp"

namespace {

namespace cl = fairbfl::cluster;
namespace core = fairbfl::core;
using fairbfl::support::Rng;

/// `groups` tight gradient clusters in `dim` dims: shared random direction
/// per group (near-orthogonal across groups in high dim) plus small noise.
/// The honest-vs-forged structure Algorithm 2 sees: every point's true
/// nearest neighbours are its co-group members.
std::vector<std::vector<float>> grouped_gradients(std::size_t groups,
                                                  std::size_t per_group,
                                                  std::size_t dim,
                                                  std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::vector<float>> points;
    for (std::size_t g = 0; g < groups; ++g) {
        std::vector<float> direction(dim);
        for (auto& v : direction) v = static_cast<float>(rng.normal());
        for (std::size_t i = 0; i < per_group; ++i) {
            std::vector<float> p(dim);
            for (std::size_t d = 0; d < dim; ++d)
                p[d] = direction[d] +
                       static_cast<float>(0.05 * rng.normal());
            points.push_back(std::move(p));
        }
    }
    return points;
}

TEST(ExactIndex, MatchesDistanceMatrixBitForBit) {
    const auto points = grouped_gradients(3, 5, 24, 1);
    const cl::DistanceMatrix matrix(cl::Metric::kEuclidean, points);
    const cl::ExactIndex index(cl::Metric::kEuclidean, points);

    ASSERT_EQ(index.size(), matrix.size());
    EXPECT_EQ(index.metric(), matrix.metric());
    EXPECT_TRUE(index.exact());
    EXPECT_EQ(index.name(), "exact");
    for (std::size_t i = 0; i < matrix.size(); ++i)
        for (std::size_t j = 0; j < matrix.size(); ++j)
            EXPECT_EQ(index.distance(i, j), matrix.at(i, j)) << i << "," << j;

    std::vector<double> row(matrix.size());
    index.distances_from(2, row);
    for (std::size_t j = 0; j < matrix.size(); ++j)
        EXPECT_EQ(row[j], matrix.at(2, j));
}

TEST(ExactIndex, NeighborsWithinMatchesRowScan) {
    const auto points = grouped_gradients(2, 6, 16, 2);
    const cl::ExactIndex index(cl::Metric::kEuclidean, points);
    const double eps = 1.0;
    for (std::size_t i = 0; i < index.size(); ++i) {
        const auto neighbors = index.neighbors_within(i, eps);
        // Ascending, self included, exactly the <= eps set.
        EXPECT_TRUE(std::is_sorted(neighbors.begin(), neighbors.end()));
        EXPECT_TRUE(std::binary_search(neighbors.begin(), neighbors.end(), i));
        std::size_t count = 0;
        for (std::size_t j = 0; j < index.size(); ++j)
            if (index.distance(i, j) <= eps) ++count;
        EXPECT_EQ(neighbors.size(), count);
    }
}

TEST(ExactIndex, NearestOfPicksArgminFirstTieWins) {
    // Collinear points: distances from index 0 are 1, 2, 2 -- the first
    // of the tied candidates must win (the fallback's determinism).
    const std::vector<std::vector<float>> points{
        {0.0F}, {1.0F}, {-2.0F}, {2.0F}};
    const cl::ExactIndex index(cl::Metric::kEuclidean, points);
    const std::vector<std::size_t> all{1, 2, 3};
    EXPECT_EQ(index.nearest_of(0, all), 1U);
    const std::vector<std::size_t> tied{2, 3};
    EXPECT_EQ(index.nearest_of(0, tied), 2U);
}

TEST(LazyIndex, ComputesExactMetricWithZeroBuild) {
    const auto points = grouped_gradients(2, 5, 24, 11);
    for (const auto metric : {cl::Metric::kEuclidean, cl::Metric::kCosine}) {
        const cl::LazyIndex index(metric, points);
        EXPECT_TRUE(index.exact());
        EXPECT_EQ(index.name(), "lazy");
        ASSERT_EQ(index.size(), points.size());
        for (std::size_t i = 0; i < points.size(); ++i) {
            EXPECT_EQ(index.distance(i, i), 0.0);
            for (std::size_t j = 0; j < points.size(); ++j) {
                if (i == j) continue;
                // Per-query evaluation of the exact pairwise kernel.
                EXPECT_EQ(index.distance(i, j),
                          cl::distance(metric, points[i], points[j]));
            }
        }
    }
}

TEST(LazyIndex, KMeansSeedingBitIdenticalToPointsPathUnderEuclidean) {
    // Under "auto", k-means resolves to the lazy backend; with the
    // Euclidean metric the seed distances are the same kernel calls on
    // the same vectors as the points path, so the labels must be equal.
    const auto points = grouped_gradients(3, 8, 64, 12);
    const fairbfl::cluster::KMeans kmeans({.k = 3,
                                           .max_iterations = 50,
                                           .metric = cl::Metric::kEuclidean,
                                           .seed = 5});
    const cl::LazyIndex lazy(cl::Metric::kEuclidean, points);
    EXPECT_EQ(kmeans.cluster_with(lazy, points).labels,
              kmeans.cluster(points).labels);
}

TEST(AutoIndex, ResolvesPerClusteringAlgorithm) {
    // "auto" (the config default) picks the backend matching the
    // algorithm's access pattern: exact for dbscan's dense scan, lazy for
    // kmeans' seed-only touches.
    namespace inc = fairbfl::incentive;
    std::vector<fairbfl::fl::GradientUpdate> updates(6);
    Rng rng(13);
    for (std::size_t i = 0; i < updates.size(); ++i) {
        updates[i].client = static_cast<fairbfl::fl::NodeId>(i);
        updates[i].weights.resize(16);
        for (auto& w : updates[i].weights)
            w = static_cast<float>(rng.normal());
    }
    const auto provisional = fairbfl::fl::simple_average(updates);

    inc::ContributionConfig config;
    ASSERT_EQ(config.index, "auto");
    EXPECT_EQ(inc::identify_contributions(updates, provisional, config)
                  .index_backend,
              "exact");
    config.clustering = "kmeans";
    config.kmeans.k = 2;
    EXPECT_EQ(inc::identify_contributions(updates, provisional, config)
                  .index_backend,
              "lazy");
}

TEST(IndexRegistry, BuiltinsRegisteredUnknownThrows) {
    auto& registry = cl::IndexRegistry::global();
    EXPECT_TRUE(registry.contains("exact"));
    EXPECT_TRUE(registry.contains("lazy"));
    EXPECT_TRUE(registry.contains("random_projection"));
    EXPECT_TRUE(registry.contains("sampled"));
    EXPECT_FALSE(registry.contains("flat_l2"));

    const auto points = grouped_gradients(2, 4, 8, 3);
    cl::IndexParams params;
    params.metric = cl::Metric::kEuclidean;
    for (const auto& name : registry.names()) {
        const auto index = registry.build(name, points, params);
        ASSERT_NE(index, nullptr);
        EXPECT_EQ(index->size(), points.size());
        EXPECT_EQ(index->metric(), cl::Metric::kEuclidean);
    }
    EXPECT_THROW((void)registry.build("flat_l2", points, params),
                 std::out_of_range);
    EXPECT_THROW(registry.add("exact", nullptr), std::invalid_argument);
}

// Recall of the sketch-space nearest neighbours against the exact ones,
// averaged over all queries.  k_nn = per_group - 1, so the true NN set of
// every point is exactly its co-group members.
double recall_at(const cl::GradientIndex& approx, const cl::ExactIndex& exact,
                 std::size_t k_nn) {
    const std::size_t n = exact.size();
    auto knn = [&](const cl::GradientIndex& index, std::size_t i) {
        std::vector<std::size_t> order;
        for (std::size_t j = 0; j < n; ++j)
            if (j != i) order.push_back(j);
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return index.distance(i, a) < index.distance(i, b);
                  });
        order.resize(k_nn);
        std::sort(order.begin(), order.end());
        return order;
    };
    double hits = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const auto truth = knn(exact, i);
        const auto found = knn(approx, i);
        std::vector<std::size_t> common;
        std::set_intersection(truth.begin(), truth.end(), found.begin(),
                              found.end(), std::back_inserter(common));
        hits += static_cast<double>(common.size());
    }
    return hits / static_cast<double>(n * k_nn);
}

TEST(RandomProjectionIndex, RecallAtLeastPoint9OnGradientGroups) {
    // 10 groups x 8 gradients in 512 dims; projection_dims = 16 keeps the
    // sketch genuinely engaged (n = 80 > 2k = 32).
    const auto points = grouped_gradients(10, 8, 512, 4);
    cl::IndexParams params;
    params.metric = cl::Metric::kEuclidean;
    params.projection_dims = 16;
    const cl::RandomProjectionIndex approx(points, params);
    ASSERT_EQ(approx.sketch_dims(), 16U);
    const cl::ExactIndex exact(cl::Metric::kEuclidean, points);
    EXPECT_GE(recall_at(approx, exact, 7), 0.9);
}

TEST(RandomProjectionIndex, SharedProjectionIsBuiltOnceWithTheSameBits) {
    const auto first = fairbfl::support::shared_gaussian_projection(512, 16, 9);
    const auto again = fairbfl::support::shared_gaussian_projection(512, 16, 9);
    EXPECT_EQ(first, again);  // one matrix per (d, k, seed)
    EXPECT_NE(first, fairbfl::support::shared_gaussian_projection(512, 16, 10));
    const auto fresh = fairbfl::support::gaussian_projection(512, 16, 9);
    EXPECT_EQ(first->rows, fresh.rows);
    EXPECT_EQ(first->in_dim, 512U);
    EXPECT_EQ(first->out_dim, 16U);
}

TEST(SampledIndex, RecallAtLeastPoint9OnGradientGroups) {
    const auto points = grouped_gradients(10, 8, 512, 5);
    cl::IndexParams params;
    params.metric = cl::Metric::kEuclidean;
    params.pivots = 16;  // engaged: n = 80 > m = 16
    const cl::SampledIndex approx(points, params);
    ASSERT_EQ(approx.pivot_count(), 16U);
    const cl::ExactIndex exact(cl::Metric::kEuclidean, points);
    EXPECT_GE(recall_at(approx, exact, 7), 0.9);
}

TEST(SampledIndex, MemoryCappedAtPivotTable) {
    const auto points = grouped_gradients(10, 10, 64, 6);  // n = 100
    cl::IndexParams params;
    params.metric = cl::Metric::kEuclidean;
    params.pivots = 16;
    const cl::SampledIndex index(points, params);
    EXPECT_EQ(index.pivot_count(), 16U);
    // O(n m) doubles, far under the n^2 the dense matrix would need.
    EXPECT_EQ(index.storage_bytes(), 100U * 16U * sizeof(double));
    // Still a dissimilarity: symmetric with a zero diagonal.
    for (std::size_t i = 0; i < 20; ++i) {
        EXPECT_EQ(index.distance(i, i), 0.0);
        for (std::size_t j = 0; j < 20; ++j)
            EXPECT_EQ(index.distance(i, j), index.distance(j, i));
    }
}

TEST(ApproximateIndexes, SmallRoundsFallBackToExactGeometry) {
    // Below the cost break-even (n <= 2k / n <= m) approximating is pure
    // loss, so both backends must answer with the exact metric -- Table-2
    // sized rounds decide identically to the "exact" backend.
    const auto points = grouped_gradients(2, 5, 32, 7);  // n = 10
    const cl::ExactIndex exact(cl::Metric::kEuclidean, points);
    cl::IndexParams params;
    params.metric = cl::Metric::kEuclidean;  // defaults: k = 48, m = 32
    const cl::RandomProjectionIndex projected(points, params);
    const cl::SampledIndex sampled(points, params);
    EXPECT_EQ(sampled.pivot_count(), 0U);
    for (std::size_t i = 0; i < points.size(); ++i) {
        for (std::size_t j = 0; j < points.size(); ++j) {
            EXPECT_EQ(projected.distance(i, j), exact.distance(i, j));
            EXPECT_EQ(sampled.distance(i, j), exact.distance(i, j));
        }
    }
}

TEST(ApproximateIndexes, DbscanLabelsMatchExactOnSeparatedGroups) {
    // End-to-end through the scan: adaptive eps from each index's own
    // geometry must recover the same well-separated partition.
    const auto points = grouped_gradients(4, 10, 256, 8);
    const cl::ExactIndex exact(cl::Metric::kEuclidean, points);
    cl::IndexParams params;
    params.metric = cl::Metric::kEuclidean;
    params.projection_dims = 12;
    params.pivots = 12;
    const cl::RandomProjectionIndex projected(points, params);
    const cl::SampledIndex sampled(points, params);

    auto scan = [&](const cl::GradientIndex& index) {
        const double eps = 2.0 * cl::suggest_eps(index, 3);
        const cl::Dbscan dbscan(
            {.eps = eps, .min_pts = 3, .metric = cl::Metric::kEuclidean});
        return dbscan.cluster_with(index, points);
    };
    const auto truth = scan(exact);
    ASSERT_EQ(truth.num_clusters, 4);
    EXPECT_EQ(scan(projected).labels, truth.labels);
    EXPECT_EQ(scan(sampled).labels, truth.labels);
}

// The acceptance gate: attack-detection rate under either approximate
// backend stays within 2% of exact, with the approximation *engaged* at
// its default tuning (n = 120 clients > 2k = 96 and > m = 32).  Table-2
// scale (10 clients) is covered by the break-even fallback instead, and
// pinned by the identical bench_table2_attacks output per backend.
TEST(ApproximateIndexes, AttackDetectionWithin2PercentOfExact) {
    core::EnvironmentConfig env_config;
    env_config.data.samples = 1200;
    env_config.data.seed = 9;
    env_config.partition.scheme = fairbfl::ml::PartitionScheme::kLabelShards;
    env_config.partition.num_clients = 120;
    env_config.partition.seed = 9;
    const core::Environment env = core::build_environment(env_config);

    auto detection = [&](const std::string& index) {
        core::FairBflConfig config;
        config.fl.client_ratio = 1.0;
        config.fl.rounds = 10;
        config.fl.seed = 9;
        config.attack.kind = core::AttackKind::kSignFlip;
        config.attack.magnitude = 3.0;
        config.attack.min_attackers = 2;
        config.attack.max_attackers = 6;
        config.incentive.index = index;
        core::FairBfl system(*env.model, env.make_clients(), env.test,
                             config);
        double rate = 0.0;
        for (std::size_t r = 0; r < config.fl.rounds; ++r)
            rate += system.run_round().detection_rate;
        return rate / static_cast<double>(config.fl.rounds);
    };

    const double exact = detection("exact");
    EXPECT_GT(exact, 0.5);  // the defense itself must be working
    EXPECT_NEAR(detection("random_projection"), exact, 0.02);
    EXPECT_NEAR(detection("sampled"), exact, 0.02);
}

}  // namespace
