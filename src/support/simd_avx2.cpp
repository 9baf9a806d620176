// The AVX2+FMA kernel table -- the only TU in the tree compiled with
// -mavx2 -mfma (CMake sets the flags on exactly this file) and the only
// one allowed to include <immintrin.h> (the simd-isolation project lint
// enforces that).
//
// Rounding contract: these kernels are *tolerance-pinned*, not bit-pinned.
// Reductions still widen every float to double before accumulating -- the
// same precision discipline as the scalar chains -- but run four-lane FMA
// chains (multiple independent accumulators), so results differ from the
// pinned scalar series in the last ulps.  Elementwise float kernels (axpy,
// the transpose accumulate) fuse the multiply-add per lane, which rounds
// once instead of twice per element.  tests/test_kernel_parity.cpp bounds
// the divergence; nothing dispatched here may feed a bit-pin assertion.
//
// When the build cannot enable AVX2+FMA (non-x86 target, flags rejected),
// the guard below compiles this TU down to a null table and the dispatcher
// stays on scalar.

#include "support/simd.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace fairbfl::support::simd {

namespace {

/// Horizontal sum of a 4-lane double accumulator.
inline double hsum(__m256d v) noexcept {
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    const __m128d sum2 = _mm_add_pd(lo, hi);
    const __m128d swapped = _mm_unpackhi_pd(sum2, sum2);
    return _mm_cvtsd_f64(_mm_add_sd(sum2, swapped));
}

/// Widen 4 floats at p to a 4-lane double vector.
inline __m256d load4d(const float* p) noexcept {
    return _mm256_cvtps_pd(_mm_loadu_ps(p));
}

double avx2_dot(const float* x, const float* y, std::size_t n) {
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        a0 = _mm256_fmadd_pd(load4d(x + i), load4d(y + i), a0);
        a1 = _mm256_fmadd_pd(load4d(x + i + 4), load4d(y + i + 4), a1);
        a2 = _mm256_fmadd_pd(load4d(x + i + 8), load4d(y + i + 8), a2);
        a3 = _mm256_fmadd_pd(load4d(x + i + 12), load4d(y + i + 12), a3);
    }
    for (; i + 4 <= n; i += 4)
        a0 = _mm256_fmadd_pd(load4d(x + i), load4d(y + i), a0);
    double acc =
        hsum(_mm256_add_pd(_mm256_add_pd(a0, a1), _mm256_add_pd(a2, a3)));
    for (; i < n; ++i)
        acc += static_cast<double>(x[i]) * static_cast<double>(y[i]);
    return acc;
}

double avx2_squared_distance(const float* x, const float* y, std::size_t n) {
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256d d0 = _mm256_sub_pd(load4d(x + i), load4d(y + i));
        const __m256d d1 =
            _mm256_sub_pd(load4d(x + i + 4), load4d(y + i + 4));
        a0 = _mm256_fmadd_pd(d0, d0, a0);
        a1 = _mm256_fmadd_pd(d1, d1, a1);
    }
    for (; i + 4 <= n; i += 4) {
        const __m256d d = _mm256_sub_pd(load4d(x + i), load4d(y + i));
        a0 = _mm256_fmadd_pd(d, d, a0);
    }
    double acc = hsum(_mm256_add_pd(a0, a1));
    for (; i < n; ++i) {
        const double d = static_cast<double>(x[i]) - static_cast<double>(y[i]);
        acc += d * d;
    }
    return acc;
}

void avx2_axpy(float alpha, const float* x, float* y, std::size_t n) {
    const __m256 va = _mm256_set1_ps(alpha);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 vy = _mm256_loadu_ps(y + i);
        _mm256_storeu_ps(y + i,
                         _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), vy));
    }
    for (; i < n; ++i) y[i] += alpha * x[i];
}

void avx2_gemv(const float* a, std::size_t rows, std::size_t cols,
               const float* x, const float* bias, float* out) {
    std::size_t r = 0;
    // Two rows at a time, two 4-lane double chains each: the row pair
    // shares every load of x, and four independent FMA chains keep the
    // port busy despite the 4-cycle latency.
    for (; r + 2 <= rows; r += 2) {
        const float* a0 = a + r * cols;
        const float* a1 = a0 + cols;
        __m256d s00 = _mm256_setzero_pd();
        __m256d s01 = _mm256_setzero_pd();
        __m256d s10 = _mm256_setzero_pd();
        __m256d s11 = _mm256_setzero_pd();
        std::size_t j = 0;
        for (; j + 8 <= cols; j += 8) {
            const __m256d x0 = load4d(x + j);
            const __m256d x1 = load4d(x + j + 4);
            s00 = _mm256_fmadd_pd(load4d(a0 + j), x0, s00);
            s01 = _mm256_fmadd_pd(load4d(a0 + j + 4), x1, s01);
            s10 = _mm256_fmadd_pd(load4d(a1 + j), x0, s10);
            s11 = _mm256_fmadd_pd(load4d(a1 + j + 4), x1, s11);
        }
        double sum0 = hsum(_mm256_add_pd(s00, s01));
        double sum1 = hsum(_mm256_add_pd(s10, s11));
        for (; j < cols; ++j) {
            const double xj = static_cast<double>(x[j]);
            sum0 += static_cast<double>(a0[j]) * xj;
            sum1 += static_cast<double>(a1[j]) * xj;
        }
        if (bias == nullptr) {
            out[r] = static_cast<float>(sum0);
            out[r + 1] = static_cast<float>(sum1);
        } else {
            out[r] = bias[r] + static_cast<float>(sum0);
            out[r + 1] = bias[r + 1] + static_cast<float>(sum1);
        }
    }
    if (r < rows) {
        const double s = avx2_dot(a + r * cols, x, cols);
        out[r] = bias == nullptr ? static_cast<float>(s)
                                 : bias[r] + static_cast<float>(s);
    }
}

void avx2_gemv_transpose_accumulate(const float* a, std::size_t rows,
                                    std::size_t cols, const float* d,
                                    float* out) {
    for (std::size_t r = 0; r < rows; ++r)
        avx2_axpy(d[r], a + r * cols, out, cols);
}

void avx2_outer_accumulate(const float* d, const float* x, std::size_t rows,
                           std::size_t cols, float* y) {
    for (std::size_t r = 0; r < rows; ++r)
        avx2_axpy(d[r], x, y + r * cols, cols);
}

void avx2_dot_and_norm(const float* x, const float* y, std::size_t n,
                       double* dot_out, double* x_norm2_out) {
    // One traversal of x feeds both reductions -- the win over the scalar
    // table's two passes on the batched cosine path.
    __m256d dot0 = _mm256_setzero_pd();
    __m256d dot1 = _mm256_setzero_pd();
    __m256d nrm0 = _mm256_setzero_pd();
    __m256d nrm1 = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256d x0 = load4d(x + i);
        const __m256d x1 = load4d(x + i + 4);
        dot0 = _mm256_fmadd_pd(x0, load4d(y + i), dot0);
        dot1 = _mm256_fmadd_pd(x1, load4d(y + i + 4), dot1);
        nrm0 = _mm256_fmadd_pd(x0, x0, nrm0);
        nrm1 = _mm256_fmadd_pd(x1, x1, nrm1);
    }
    double dot = hsum(_mm256_add_pd(dot0, dot1));
    double nrm = hsum(_mm256_add_pd(nrm0, nrm1));
    for (; i < n; ++i) {
        const double xi = static_cast<double>(x[i]);
        dot += xi * static_cast<double>(y[i]);
        nrm += xi * xi;
    }
    *dot_out = dot;
    *x_norm2_out = nrm;
}

constexpr KernelTable kAvx2Table = {
    avx2_dot,
    avx2_dot,  // blocked == plain in a reassociated table
    avx2_squared_distance,
    avx2_squared_distance,
    avx2_axpy,
    avx2_gemv,
    avx2_gemv_transpose_accumulate,
    avx2_outer_accumulate,
    avx2_dot_and_norm,
    // The tiles loop over this table's own kernels, so every pair keeps
    // the tolerance-pinned per-pair bits.
    detail::pairwise_tile<avx2_dot>,
    detail::pairwise_tile<avx2_squared_distance>,
    detail::gemv_per_sample<avx2_gemv>,
    "avx2",
};

}  // namespace

namespace detail {
const KernelTable* avx2_table() noexcept { return &kAvx2Table; }
}  // namespace detail

}  // namespace fairbfl::support::simd

#else  // !(__AVX2__ && __FMA__)

namespace fairbfl::support::simd::detail {
const KernelTable* avx2_table() noexcept { return nullptr; }
}  // namespace fairbfl::support::simd::detail

#endif
