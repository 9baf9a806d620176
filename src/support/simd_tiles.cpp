// Exact register-blocked tiles for the pinned scalar table -- compiled with
// -mavx2 and without -mfma (CMake sets the flags on exactly this file), so
// the compiler has no fused multiply-add to reach for even if contraction
// were enabled.
//
// Rounding contract: bit-identical to the scalar kernels in simd.cpp.  A
// 4-lane double vector holds four of the scalar kernels' accumulators, and
// each lane receives the same widened operands, the same separately
// rounded multiply and the same add, in the same order, as its scalar
// accumulator:
//
//   * squared_distance_blocked: one vector per pair holds the kernel's four
//     partial sums a0..a3 (lane k takes elements i == k mod 4); the lanes
//     are combined as (a0 + a1) + (a2 + a3) and the tail is added in order.
//   * dot and gemv: one lane per pair, each a strict left-to-right chain.
//     Four columns (or samples) are transposed into the lanes, and each
//     row element is widened once and broadcast from memory, so a row is
//     streamed once per tile instead of once per pair.
//
// tests/test_kernel_parity.cpp pins every entry against the per-pair
// kernels bit for bit.  When the build cannot enable AVX2, the guard below
// compiles this TU down to a no-op installer and the tiles loop over the
// per-pair kernels.

#include "support/simd.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace fairbfl::support::simd {

namespace {

/// Widen 4 floats at p to a 4-lane double vector.
inline __m256d load4d(const float* p) noexcept {
    return _mm256_cvtps_pd(_mm_loadu_ps(p));
}

/// Pads a list of at most 4 row pointers to exactly 4 by repeating the
/// first; the extra lanes are computed and discarded.
inline void pad4(const float* const* in, std::size_t count,
                 const float* out[4]) noexcept {
    for (std::size_t k = 0; k < 4; ++k) out[k] = in[k < count ? k : 0];
}

/// Strict dot chains of R rows against 4 lane rows: lane c of row r's
/// accumulator is dot(rows[r], lanes[c]), written to out[r][c].
template <std::size_t R>
void dot_rows_by_lanes(const float* const* rows, const float* const* lanes,
                       std::size_t n, double (*out)[4]) noexcept {
    __m256d acc[R];
    for (std::size_t r = 0; r < R; ++r) acc[r] = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m128 l0 = _mm_loadu_ps(lanes[0] + i);
        __m128 l1 = _mm_loadu_ps(lanes[1] + i);
        __m128 l2 = _mm_loadu_ps(lanes[2] + i);
        __m128 l3 = _mm_loadu_ps(lanes[3] + i);
        _MM_TRANSPOSE4_PS(l0, l1, l2, l3);  // l_t = element i + t per lane
        const __m256d y0 = _mm256_cvtps_pd(l0);
        const __m256d y1 = _mm256_cvtps_pd(l1);
        const __m256d y2 = _mm256_cvtps_pd(l2);
        const __m256d y3 = _mm256_cvtps_pd(l3);
        for (std::size_t r = 0; r < R; ++r) {
            alignas(32) double x[4];
            _mm256_store_pd(x, load4d(rows[r] + i));
            acc[r] = _mm256_add_pd(
                acc[r], _mm256_mul_pd(_mm256_broadcast_sd(x + 0), y0));
            acc[r] = _mm256_add_pd(
                acc[r], _mm256_mul_pd(_mm256_broadcast_sd(x + 1), y1));
            acc[r] = _mm256_add_pd(
                acc[r], _mm256_mul_pd(_mm256_broadcast_sd(x + 2), y2));
            acc[r] = _mm256_add_pd(
                acc[r], _mm256_mul_pd(_mm256_broadcast_sd(x + 3), y3));
        }
    }
    for (std::size_t r = 0; r < R; ++r) {
        _mm256_storeu_pd(out[r], acc[r]);
        for (std::size_t k = i; k < n; ++k) {
            const double x = static_cast<double>(rows[r][k]);
            for (std::size_t c = 0; c < 4; ++c)
                out[r][c] += x * static_cast<double>(lanes[c][k]);
        }
    }
}

/// Blocked squared distances of 2 rows against 4 columns: one vector of
/// partial sums per pair, written to out[r][c].
void squared_distance_2x4(const float* const* xs, const float* const* ys,
                          std::size_t n, double (*out)[4]) noexcept {
    __m256d acc[2][4];
    for (auto& row : acc)
        for (auto& a : row) a = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d x0 = load4d(xs[0] + i);
        const __m256d x1 = load4d(xs[1] + i);
        for (std::size_t c = 0; c < 4; ++c) {
            const __m256d y = load4d(ys[c] + i);
            const __m256d d0 = _mm256_sub_pd(x0, y);
            const __m256d d1 = _mm256_sub_pd(x1, y);
            acc[0][c] = _mm256_add_pd(acc[0][c], _mm256_mul_pd(d0, d0));
            acc[1][c] = _mm256_add_pd(acc[1][c], _mm256_mul_pd(d1, d1));
        }
    }
    for (std::size_t r = 0; r < 2; ++r) {
        for (std::size_t c = 0; c < 4; ++c) {
            double a[4];
            _mm256_storeu_pd(a, acc[r][c]);
            double s = (a[0] + a[1]) + (a[2] + a[3]);
            for (std::size_t k = i; k < n; ++k) {
                const double d = static_cast<double>(xs[r][k]) -
                                 static_cast<double>(ys[c][k]);
                s += d * d;
            }
            out[r][c] = s;
        }
    }
}

void exact_dot_tile(const float* const* xs, std::size_t nx,
                    const float* const* ys, std::size_t ny, std::size_t n,
                    double* out) {
    if (nx == 0 || ny == 0) return;
    const float* rows[4];
    const float* lanes[4];
    pad4(xs, nx, rows);
    pad4(ys, ny, lanes);
    double tile[4][4];
    dot_rows_by_lanes<4>(rows, lanes, n, tile);
    for (std::size_t r = 0; r < nx; ++r)
        for (std::size_t c = 0; c < ny; ++c) out[r * ny + c] = tile[r][c];
}

void exact_squared_distance_blocked_tile(const float* const* xs,
                                         std::size_t nx,
                                         const float* const* ys,
                                         std::size_t ny, std::size_t n,
                                         double* out) {
    if (nx == 0 || ny == 0) return;
    const float* rows[4];
    const float* cols[4];
    pad4(xs, nx, rows);
    pad4(ys, ny, cols);
    double tile[4][4];
    // Two rows at a time: 8 accumulators plus 6 operands fill the 16 ymm
    // registers without spilling.
    for (std::size_t r = 0; r < nx; r += 2)
        squared_distance_2x4(rows + r, cols, n, tile + r);
    for (std::size_t r = 0; r < nx; ++r)
        for (std::size_t c = 0; c < ny; ++c) out[r * ny + c] = tile[r][c];
}

void exact_gemv_batch(const float* a, std::size_t rows, std::size_t cols,
                      const float* const* xs, std::size_t nx,
                      const float* bias, float* out) {
    if (nx == 0) return;
    // Five matrix rows per block: the 10 classes of the paper's model are
    // two full blocks, and 5 accumulators plus 4 lane operands stay in
    // registers.  A short last block repeats its first row.
    constexpr std::size_t kBlock = 5;
    const float* samples[4];
    pad4(xs, nx, samples);
    for (std::size_t r0 = 0; r0 < rows; r0 += kBlock) {
        const std::size_t count = rows - r0 < kBlock ? rows - r0 : kBlock;
        const float* block[kBlock];
        for (std::size_t k = 0; k < kBlock; ++k)
            block[k] = a + (r0 + (k < count ? k : 0)) * cols;
        double sums[kBlock][4];
        dot_rows_by_lanes<kBlock>(block, samples, cols, sums);
        for (std::size_t s = 0; s < nx; ++s) {
            float* row_out = out + s * rows + r0;
            for (std::size_t k = 0; k < count; ++k) {
                const float v = static_cast<float>(sums[k][s]);
                row_out[k] = bias == nullptr ? v : bias[r0 + k] + v;
            }
        }
    }
}

}  // namespace

namespace detail {
bool install_exact_avx2_tiles(KernelTable& table) noexcept {
    table.dot_tile = exact_dot_tile;
    table.squared_distance_blocked_tile = exact_squared_distance_blocked_tile;
    table.gemv_batch = exact_gemv_batch;
    return true;
}
}  // namespace detail

}  // namespace fairbfl::support::simd

#else  // !__AVX2__

namespace fairbfl::support::simd::detail {
bool install_exact_avx2_tiles(KernelTable&) noexcept { return false; }
}  // namespace fairbfl::support::simd::detail

#endif
