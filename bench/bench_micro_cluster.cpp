// Engineering micro-benchmarks: DBSCAN / k-means over gradient-like point
// sets (this is the T_gl cost of Procedure IV).

#include <benchmark/benchmark.h>

#include "cluster/dbscan.hpp"
#include "cluster/distance.hpp"
#include "cluster/kmeans.hpp"
#include "core/strategies.hpp"
#include "incentive/contribution.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace {

using namespace fairbfl;

std::vector<std::vector<float>> gradient_like_points(std::size_t n,
                                                     std::size_t dim) {
    support::Rng rng(7);
    std::vector<float> base(dim);
    for (auto& v : base) v = static_cast<float>(rng.normal());
    std::vector<std::vector<float>> points(n);
    for (auto& p : points) {
        p = base;
        for (auto& v : p) v += static_cast<float>(0.05 * rng.normal());
    }
    // 10% outliers.
    for (std::size_t i = 0; i < n / 10; ++i) {
        for (auto& v : points[i]) v = -v * 3.0F;
    }
    return points;
}

/// Algorithm 2's dense distance build at the paper's model shape: n
/// gradients of d = 7850 (the 784-feature logistic model), on one thread
/// so the row reports kernel throughput, not the host's core count.
/// range(0) = n, range(1) = metric (0 cosine, 1 Euclidean).
void BM_DistanceMatrix(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto metric = static_cast<cluster::Metric>(state.range(1));
    const auto points = gradient_like_points(n, 7850);
    support::ThreadPool one(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(cluster::DistanceMatrix(metric, points, one));
    state.SetLabel(metric == cluster::Metric::kCosine ? "cosine"
                                                      : "euclidean");
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n * (n - 1) / 2));
}
BENCHMARK(BM_DistanceMatrix)
    ->Args({64, 0})->Args({64, 1})->Args({256, 0})->Args({256, 1})
    ->Unit(benchmark::kMillisecond);

void BM_Dbscan(benchmark::State& state) {
    const auto points =
        gradient_like_points(static_cast<std::size_t>(state.range(0)), 650);
    const cluster::Dbscan dbscan({.eps = 0.05, .min_pts = 3});
    for (auto _ : state) benchmark::DoNotOptimize(dbscan.cluster(points));
}
BENCHMARK(BM_Dbscan)->Arg(10)->Arg(50)->Arg(100)->Unit(benchmark::kMillisecond);

void BM_KMeans(benchmark::State& state) {
    const auto points =
        gradient_like_points(static_cast<std::size_t>(state.range(0)), 650);
    const cluster::KMeans kmeans({.k = 2});
    for (auto _ : state) benchmark::DoNotOptimize(kmeans.cluster(points));
}
BENCHMARK(BM_KMeans)->Arg(10)->Arg(50)->Arg(100)->Unit(benchmark::kMillisecond);

void BM_SuggestEps(benchmark::State& state) {
    const auto points =
        gradient_like_points(static_cast<std::size_t>(state.range(0)), 650);
    for (auto _ : state)
        benchmark::DoNotOptimize(cluster::suggest_eps(points, 3));
}
BENCHMARK(BM_SuggestEps)->Arg(50)->Arg(100)->Unit(benchmark::kMillisecond);

/// GradientIndex build cost per backend (the dominant term of the round's
/// cluster stage).  Arg is the point count; dim matches the logistic
/// model on 64 features.
template <typename Backend>
void BM_IndexBuild(benchmark::State& state) {
    const auto points =
        gradient_like_points(static_cast<std::size_t>(state.range(0)), 650);
    cluster::IndexParams params;
    params.metric = cluster::Metric::kEuclidean;
    for (auto _ : state)
        benchmark::DoNotOptimize(Backend(points, params));
}
template <>
void BM_IndexBuild<cluster::ExactIndex>(benchmark::State& state) {
    const auto points =
        gradient_like_points(static_cast<std::size_t>(state.range(0)), 650);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            cluster::ExactIndex(cluster::Metric::kEuclidean, points));
}
BENCHMARK(BM_IndexBuild<cluster::ExactIndex>)
    ->Arg(100)
    ->Arg(250)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IndexBuild<cluster::RandomProjectionIndex>)
    ->Arg(100)
    ->Arg(250)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IndexBuild<cluster::SampledIndex>)
    ->Arg(100)
    ->Arg(250)
    ->Unit(benchmark::kMillisecond);

void BM_Algorithm2EndToEnd(benchmark::State& state) {
    // Full contribution identification on a round's update set.
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto points = gradient_like_points(n, 650);
    std::vector<fl::GradientUpdate> updates(n);
    for (std::size_t i = 0; i < n; ++i) {
        updates[i].client = static_cast<fl::NodeId>(i);
        updates[i].weights = points[i];
    }
    const auto provisional = fl::simple_average(updates);
    const incentive::ContributionConfig config;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            incentive::identify_contributions(updates, provisional, config));
    }
}
BENCHMARK(BM_Algorithm2EndToEnd)
    ->Arg(10)
    ->Arg(50)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

/// Same workload through the ContributionPolicy strategy interface; the
/// delta vs BM_Algorithm2EndToEnd is the cost of the virtual dispatch the
/// pluggable API adds (it should be noise).
void BM_ContributionPolicy(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto points = gradient_like_points(n, 650);
    std::vector<fl::GradientUpdate> updates(n);
    for (std::size_t i = 0; i < n; ++i) {
        updates[i].client = static_cast<fl::NodeId>(i);
        updates[i].weights = points[i];
    }
    const auto provisional = fl::simple_average(updates);
    const auto policy =
        core::make_contribution_policy(incentive::ContributionConfig{});
    for (auto _ : state) {
        benchmark::DoNotOptimize(policy->identify(updates, provisional, {}));
    }
}
BENCHMARK(BM_ContributionPolicy)
    ->Arg(10)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

}  // namespace
