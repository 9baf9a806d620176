// Kernel-dispatch parity harness (support/simd.hpp).
//
// The scalar table is *bit-pinned*: its loops must match the strict
// reference accumulation orders that produced every committed fixed-seed
// series, so the first test re-states those loops locally and demands
// exact equality.  The AVX2+FMA table is *tolerance-pinned*: FMA skips
// intermediate roundings and the wide accumulators reassociate the chain,
// so the harness bounds its element-wise divergence from scalar instead
// -- with the analytic error model (double accumulation over float
// products) setting the bound, not a hand-tuned epsilon.  End-to-end, a
// Table-2 attack scenario must produce detection within 2% of the scalar
// run when the simd table serves every kernel.  The tile entries are
// pinned bit for bit against their own table's per-pair and per-sample
// kernels, in every table and in both the wide and the looping
// implementation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <span>
#include <vector>

#include "core/experiment.hpp"
#include "core/fairbfl.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "support/vecmath.hpp"

namespace {

namespace simd = fairbfl::support::simd;
using fairbfl::support::Rng;

/// Restores the pinned scalar table on scope exit: dispatch is process
/// state, and every other test in the suite assumes the scalar default.
struct ScopedKernelMode {
    explicit ScopedKernelMode(simd::Mode mode) { simd::set_mode(mode); }
    ~ScopedKernelMode() { simd::set_mode(simd::Mode::kScalar); }
};

std::vector<float> random_vector(std::size_t n, Rng& rng) {
    std::vector<float> v(n);
    for (auto& x : v) x = static_cast<float>(rng.normal());
    return v;
}

/// Strict left-to-right double chain -- the pinned reference for dot.
double reference_dot(const std::vector<float>& x,
                     const std::vector<float>& y) {
    double acc = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
        acc += static_cast<double>(x[i]) * static_cast<double>(y[i]);
    return acc;
}

double reference_squared_distance(const std::vector<float>& x,
                                  const std::vector<float>& y) {
    double acc = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double d = static_cast<double>(x[i]) - static_cast<double>(y[i]);
        acc += d * d;
    }
    return acc;
}

/// Analytic divergence bound for a reassociated double-accumulator
/// reduction over float products: a few n * eps_double of the magnitude
/// sum, padded well clear of the constant factors.
double reduction_tolerance(double magnitude_sum, std::size_t n) {
    return 1e-13 * magnitude_sum * static_cast<double>(n + 16) + 1e-14;
}

const std::size_t kSizes[] = {1, 2, 3, 7, 8, 15, 16, 17, 64, 100, 1000};

TEST(ScalarTable, MatchesPinnedReferenceLoopsBitForBit) {
    const simd::KernelTable& table = simd::detail::scalar_table();
    EXPECT_STREQ(table.name, "scalar");
    Rng rng(21);
    for (const std::size_t n : kSizes) {
        const auto x = random_vector(n, rng);
        const auto y = random_vector(n, rng);
        EXPECT_EQ(table.dot(x.data(), y.data(), n), reference_dot(x, y));
        EXPECT_EQ(table.squared_distance(x.data(), y.data(), n),
                  reference_squared_distance(x, y));
        // axpy is elementwise: any unroll must stay bit-identical.
        std::vector<float> got = y;
        table.axpy(0.37F, x.data(), got.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(got[i], y[i] + 0.37F * x[i]);
        // The fused kernel must equal two separate strict chains.
        double d = 0.0;
        double norm2 = 0.0;
        table.dot_and_norm(x.data(), y.data(), n, &d, &norm2);
        EXPECT_EQ(d, reference_dot(x, y));
        EXPECT_EQ(norm2, reference_dot(x, x));
    }
    // Every gemv row is contractually bit-identical to a lone dot.
    const std::size_t rows = 7;
    const std::size_t cols = 33;
    const auto a = random_vector(rows * cols, rng);
    const auto x = random_vector(cols, rng);
    std::vector<float> out(rows);
    table.gemv(a.data(), rows, cols, x.data(), nullptr, out.data());
    for (std::size_t r = 0; r < rows; ++r) {
        const std::vector<float> row(a.begin() + r * cols,
                                     a.begin() + (r + 1) * cols);
        EXPECT_EQ(out[r], static_cast<float>(reference_dot(row, x))) << r;
    }
}

TEST(Dispatch, ScalarIsTheDefaultAndUnknownNamesAreRejected) {
    simd::set_mode(simd::Mode::kScalar);
    EXPECT_STREQ(simd::active_name(), "scalar");
    EXPECT_FALSE(simd::set_mode_name("avx512"));
    EXPECT_FALSE(simd::set_mode_name(nullptr));
    EXPECT_STREQ(simd::active_name(), "scalar");  // unchanged on rejection
    EXPECT_TRUE(simd::set_mode_name("auto"));
    if (!simd::cpu_supports_avx2_fma() ||
        simd::detail::avx2_table() == nullptr) {
        EXPECT_STREQ(simd::active_name(), "scalar");  // graceful fallback
    }
    simd::set_mode(simd::Mode::kScalar);
}

TEST(KernelParity, Avx2WithinAnalyticToleranceOfScalar) {
    const simd::KernelTable* avx2 = simd::detail::avx2_table();
    if (avx2 == nullptr || !simd::cpu_supports_avx2_fma())
        GTEST_SKIP() << "AVX2+FMA unavailable on this build/CPU";
    const simd::KernelTable& scalar = simd::detail::scalar_table();
    Rng rng(22);
    for (const std::size_t n : kSizes) {
        const auto x = random_vector(n, rng);
        const auto y = random_vector(n, rng);
        std::vector<float> ax(n);
        std::vector<float> ay(n);
        for (std::size_t i = 0; i < n; ++i) {
            ax[i] = std::fabs(x[i]);
            ay[i] = std::fabs(y[i]);
        }
        const double dot_scale = scalar.dot(ax.data(), ay.data(), n);
        EXPECT_NEAR(avx2->dot(x.data(), y.data(), n),
                    scalar.dot(x.data(), y.data(), n),
                    reduction_tolerance(dot_scale, n))
            << "n=" << n;
        EXPECT_NEAR(avx2->squared_distance(x.data(), y.data(), n),
                    scalar.squared_distance(x.data(), y.data(), n),
                    reduction_tolerance(
                        scalar.squared_distance(x.data(), y.data(), n) * 4.0 +
                            1.0,
                        n))
            << "n=" << n;
        // Element-wise: one fused rounding vs two float roundings differ
        // by an ulp of the *operands* -- the result can cancel toward
        // zero, so the bound scales with |y| + |a x|, not with it.
        std::vector<float> got = y;
        std::vector<float> want = y;
        avx2->axpy(1.7F, x.data(), got.data(), n);
        scalar.axpy(1.7F, x.data(), want.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
            const double operand_mag = std::fabs(static_cast<double>(y[i])) +
                                       std::fabs(1.7 * x[i]);
            EXPECT_NEAR(got[i], want[i], 2.4e-7 * operand_mag + 1e-9)
                << "n=" << n << " i=" << i;
        }
        double avx2_dot = 0.0;
        double avx2_norm = 0.0;
        double scalar_dot = 0.0;
        double scalar_norm = 0.0;
        avx2->dot_and_norm(x.data(), y.data(), n, &avx2_dot, &avx2_norm);
        scalar.dot_and_norm(x.data(), y.data(), n, &scalar_dot, &scalar_norm);
        EXPECT_NEAR(avx2_dot, scalar_dot, reduction_tolerance(dot_scale, n));
        EXPECT_NEAR(avx2_norm, scalar_norm,
                    reduction_tolerance(scalar_norm, n));
    }
    // gemv: per-row divergence bounded like a lone dot.
    const std::size_t rows = 9;
    const std::size_t cols = 129;
    const auto a = random_vector(rows * cols, rng);
    const auto x = random_vector(cols, rng);
    const auto bias = random_vector(rows, rng);
    std::vector<float> got(rows);
    std::vector<float> want(rows);
    avx2->gemv(a.data(), rows, cols, x.data(), bias.data(), got.data());
    scalar.gemv(a.data(), rows, cols, x.data(), bias.data(), want.data());
    for (std::size_t r = 0; r < rows; ++r)
        EXPECT_NEAR(got[r], want[r],
                    1e-4 * std::fabs(static_cast<double>(want[r])) + 1e-5)
            << r;
    // Accumulate kernels: element-wise float FMA against the scalar loop.
    std::vector<float> gt(cols, 0.25F);
    std::vector<float> wt(cols, 0.25F);
    const auto d = random_vector(rows, rng);
    avx2->gemv_transpose_accumulate(a.data(), rows, cols, d.data(), gt.data());
    scalar.gemv_transpose_accumulate(a.data(), rows, cols, d.data(),
                                     wt.data());
    for (std::size_t j = 0; j < cols; ++j)
        EXPECT_NEAR(gt[j], wt[j],
                    1e-5 * std::fabs(static_cast<double>(wt[j])) + 1e-6)
            << j;
    std::vector<float> go(rows * cols, 0.5F);
    std::vector<float> wo(rows * cols, 0.5F);
    avx2->outer_accumulate(d.data(), x.data(), rows, cols, go.data());
    scalar.outer_accumulate(d.data(), x.data(), rows, cols, wo.data());
    for (std::size_t i = 0; i < rows * cols; ++i)
        EXPECT_NEAR(go[i], wo[i],
                    1e-5 * std::fabs(static_cast<double>(wo[i])) + 1e-6)
            << i;
}

// --- Tiles: every entry is its table's per-pair (or per-sample) kernel -----

/// Every table a process can dispatch to, with the implementation its
/// tiles use: the scalar table's fallback loops, the pinned table the
/// scalar mode serves (the AVX2 exact tiles where available), and the
/// avx2 table.
std::vector<const simd::KernelTable*> tables_under_test() {
    std::vector<const simd::KernelTable*> tables = {
        &simd::detail::scalar_table(), &simd::detail::pinned_table()};
    if (simd::detail::avx2_table() != nullptr &&
        simd::cpu_supports_avx2_fma())
        tables.push_back(simd::detail::avx2_table());
    return tables;
}

bool same_bits(double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// n points of dimension d; every third one is all zeros.
std::vector<std::vector<float>> tile_points(std::size_t n, std::size_t d,
                                            Rng& rng) {
    std::vector<std::vector<float>> points;
    for (std::size_t i = 0; i < n; ++i)
        points.push_back(i % 3 == 1 ? std::vector<float>(d, 0.0F)
                                    : random_vector(d, rng));
    return points;
}

TEST(Tiles, PinnedTableServesTheScalarModeWithScalarBits) {
    const simd::KernelTable& pinned = simd::detail::pinned_table();
    const simd::KernelTable& scalar = simd::detail::scalar_table();
    EXPECT_STREQ(pinned.name, "scalar");
    EXPECT_EQ(pinned.dot, scalar.dot);
    EXPECT_EQ(pinned.squared_distance_blocked, scalar.squared_distance_blocked);
    EXPECT_EQ(pinned.gemv, scalar.gemv);
    const bool wide = simd::detail::cpu_supports_avx2();
    simd::KernelTable probe = scalar;
    if (wide && simd::detail::install_exact_avx2_tiles(probe)) {
        EXPECT_EQ(pinned.dot_tile, probe.dot_tile);
    } else {
        EXPECT_EQ(pinned.dot_tile, scalar.dot_tile);
    }
    simd::set_mode(simd::Mode::kScalar);
    EXPECT_EQ(&simd::active(), &pinned);
}

TEST(Tiles, PairTilesMatchPerPairKernelsBitForBit) {
    Rng rng(23);
    for (const std::size_t d : {1, 3, 4, 7, 7850}) {
        for (const std::size_t n : {0, 1, 2, 3, 5, 257}) {
            const auto points = tile_points(n, d, rng);
            for (const simd::KernelTable* table : tables_under_test()) {
                // The triangle in tiles, as DistanceMatrix sweeps it, plus
                // the diagonal tiles' lower pairs.
                std::size_t mismatches = 0;
                for (std::size_t i0 = 0; i0 < n; i0 += simd::kTileRows) {
                    const std::size_t nx = std::min(simd::kTileRows, n - i0);
                    const float* xs[simd::kTileRows];
                    for (std::size_t r = 0; r < nx; ++r)
                        xs[r] = points[i0 + r].data();
                    for (std::size_t j0 = i0; j0 < n; j0 += simd::kTileCols) {
                        const std::size_t ny =
                            std::min(simd::kTileCols, n - j0);
                        const float* ys[simd::kTileCols];
                        for (std::size_t c = 0; c < ny; ++c)
                            ys[c] = points[j0 + c].data();
                        double dots[simd::kTileRows * simd::kTileCols];
                        double dists[simd::kTileRows * simd::kTileCols];
                        table->dot_tile(xs, nx, ys, ny, d, dots);
                        table->squared_distance_blocked_tile(xs, nx, ys, ny,
                                                             d, dists);
                        for (std::size_t r = 0; r < nx; ++r) {
                            for (std::size_t c = 0; c < ny; ++c) {
                                mismatches += !same_bits(
                                    dots[r * ny + c],
                                    table->dot(xs[r], ys[c], d));
                                mismatches += !same_bits(
                                    dists[r * ny + c],
                                    table->squared_distance_blocked(
                                        xs[r], ys[c], d));
                            }
                        }
                    }
                }
                EXPECT_EQ(mismatches, 0U) << table->name << " n=" << n
                                          << " d=" << d;
            }
        }
    }
}

TEST(Tiles, EveryTileShapeMatchesPerPairKernels) {
    Rng rng(24);
    const auto points = tile_points(8, 37, rng);
    const float* rows[4] = {points[0].data(), points[1].data(),
                            points[2].data(), points[3].data()};
    const float* cols[4] = {points[4].data(), points[5].data(),
                            points[6].data(), points[7].data()};
    for (const simd::KernelTable* table : tables_under_test()) {
        for (std::size_t nx = 0; nx <= simd::kTileRows; ++nx) {
            for (std::size_t ny = 0; ny <= simd::kTileCols; ++ny) {
                double dots[16];
                double dists[16];
                table->dot_tile(rows, nx, cols, ny, 37, dots);
                table->squared_distance_blocked_tile(rows, nx, cols, ny, 37,
                                                     dists);
                for (std::size_t r = 0; r < nx; ++r) {
                    for (std::size_t c = 0; c < ny; ++c) {
                        EXPECT_TRUE(same_bits(dots[r * ny + c],
                                              table->dot(rows[r], cols[c], 37)))
                            << table->name << " " << nx << "x" << ny;
                        EXPECT_TRUE(same_bits(
                            dists[r * ny + c],
                            table->squared_distance_blocked(rows[r], cols[c],
                                                            37)))
                            << table->name << " " << nx << "x" << ny;
                    }
                }
            }
        }
    }
}

/// Matrix rows whose dot chains cancel: by column j % 4 the entries are
/// +big, small, -big, small, with big = 1e17 (so big + small rounds to
/// big in double).  Against features constant over each group of four
/// columns the big products cancel exactly, so the small sum left after
/// the float cast depends on the order of every add -- which random
/// data rarely shows through the cast.
std::vector<float> cancelling_rows(std::size_t rows, std::size_t cols) {
    std::vector<float> a(rows * cols);
    for (std::size_t r = 0; r < rows; ++r) {
        const float big = 1e17F * static_cast<float>(1 + r % 3);
        const float small = 1.0F + static_cast<float>(r);
        for (std::size_t j = 0; j < cols; ++j)
            a[r * cols + j] = j % 4 == 0   ? big
                              : j % 4 == 2 ? -big
                                           : small;
    }
    return a;
}

TEST(Tiles, BatchForwardMatchesPerSampleGemvBitForBit) {
    Rng rng(25);
    struct Shape {
        std::size_t rows;
        std::size_t cols;
        bool cancelling;
    };
    for (const Shape shape : {Shape{10, 784, false}, Shape{7, 33, false},
                              Shape{1, 5, false}, Shape{10, 784, true}}) {
        const auto a = shape.cancelling
                           ? cancelling_rows(shape.rows, shape.cols)
                           : random_vector(shape.rows * shape.cols, rng);
        const auto bias = random_vector(shape.rows, rng);
        auto samples = tile_points(10, shape.cols, rng);
        if (shape.cancelling) {
            for (std::size_t s = 0; s < samples.size(); ++s)
                for (std::size_t j = 0; j < shape.cols; ++j)
                    samples[s][j] = 1.0F + static_cast<float>((s + j / 4) % 3);
        }
        for (const simd::KernelTable* table : tables_under_test()) {
            for (const float* b : {bias.data(), static_cast<const float*>(
                                                    nullptr)}) {
                std::vector<float> want(samples.size() * shape.rows);
                for (std::size_t s = 0; s < samples.size(); ++s)
                    table->gemv(a.data(), shape.rows, shape.cols,
                                samples[s].data(), b,
                                want.data() + s * shape.rows);
                for (std::size_t nx = 1; nx <= simd::kTileCols; ++nx) {
                    const float* xs[simd::kTileCols];
                    for (std::size_t s = 0; s < nx; ++s)
                        xs[s] = samples[s].data();
                    std::vector<float> got(nx * shape.rows);
                    table->gemv_batch(a.data(), shape.rows, shape.cols, xs,
                                      nx, b, got.data());
                    for (std::size_t k = 0; k < got.size(); ++k)
                        EXPECT_TRUE(same_bits(got[k], want[k]))
                            << table->name << " rows=" << shape.rows
                            << " nx=" << nx << " k=" << k;
                }
            }
        }
        // The vecmath entry point, batch sizes 1-10, on each mode.
        for (const simd::Mode mode : {simd::Mode::kScalar, simd::Mode::kSimd}) {
            const ScopedKernelMode scoped(mode);
            for (std::size_t batch = 1; batch <= samples.size(); ++batch) {
                std::vector<const float*> xs;
                std::vector<float> want(batch * shape.rows);
                for (std::size_t s = 0; s < batch; ++s) {
                    xs.push_back(samples[s].data());
                    fairbfl::support::gemv(
                        a, shape.rows, shape.cols, samples[s], bias,
                        std::span<float>(want).subspan(s * shape.rows,
                                                       shape.rows));
                }
                std::vector<float> got(batch * shape.rows);
                fairbfl::support::gemv_batch(a, shape.rows, shape.cols, xs,
                                             bias, got);
                EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                                         got.size() * sizeof(float)))
                    << simd::active_name() << " batch=" << batch;
            }
        }
    }
}

// The end-to-end gate: a Table-2 attack scenario served entirely by the
// simd table must detect within 2% of the pinned scalar run.  (The
// incremental index cache is active in both runs -- the contribution
// policy installs it -- so this also covers "simd kernels + incremental
// index enabled" from the acceptance criteria.)
TEST(KernelParity, DetectionWithin2PercentOfScalarOnAttackScenario) {
    if (simd::detail::avx2_table() == nullptr ||
        !simd::cpu_supports_avx2_fma())
        GTEST_SKIP() << "AVX2+FMA unavailable on this build/CPU";

    fairbfl::core::EnvironmentConfig env_config;
    env_config.data.samples = 800;
    env_config.data.seed = 17;
    env_config.partition.scheme =
        fairbfl::ml::PartitionScheme::kLabelShards;
    env_config.partition.num_clients = 40;
    env_config.partition.seed = 17;
    const fairbfl::core::Environment env =
        fairbfl::core::build_environment(env_config);

    auto detection = [&](simd::Mode mode) {
        const ScopedKernelMode scoped(mode);
        fairbfl::core::FairBflConfig config;
        config.fl.client_ratio = 1.0;
        config.fl.rounds = 6;
        config.fl.seed = 17;
        config.attack.kind = fairbfl::core::AttackKind::kSignFlip;
        config.attack.magnitude = 3.0;
        config.attack.min_attackers = 2;
        config.attack.max_attackers = 4;
        // Sketch engaged (41 points > 2k = 32) and maintained across
        // rounds by the policy-installed IndexCache, so the simd leg runs
        // the full "simd kernels + incremental index" configuration.
        config.incentive.index = "random_projection";
        config.incentive.index_params.projection_dims = 16;
        fairbfl::core::FairBfl system(*env.model, env.make_clients(),
                                      env.test, config);
        double rate = 0.0;
        for (std::size_t r = 0; r < config.fl.rounds; ++r)
            rate += system.run_round().detection_rate;
        return rate / static_cast<double>(config.fl.rounds);
    };

    const double scalar_rate = detection(simd::Mode::kScalar);
    EXPECT_GT(scalar_rate, 0.5);  // the defense itself must be working
    EXPECT_NEAR(detection(simd::Mode::kSimd), scalar_rate, 0.02);
}

}  // namespace
