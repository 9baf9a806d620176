#pragma once
// Runtime-dispatched kernel table behind the vecmath/gemv/projection entry
// points.
//
// The scalar kernels in vecmath.cpp are bit-pinned: fixed-seed series,
// the batched==reference training equivalence, and the reward hex pins
// all depend on their exact accumulation order.  A SIMD+FMA variant
// necessarily rounds differently (fused multiply-adds skip the
// intermediate rounding; wide accumulators reassociate the chain), so the
// fast path cannot hide behind the bit-pin convention.  Instead the two
// live side by side in a function-pointer table:
//
//   * "scalar" -- the pinned reference kernels, byte-for-byte the results
//     of the loops that produced every committed fixed-seed series.  The default: a
//     process that never opts in behaves exactly like the pre-dispatch
//     build on every ISA.
//     "Pinned" constrains rounding, not vector width: any implementation
//     that performs each pair's or row's additions in the reference order,
//     with separately rounded multiplies and adds (no FMA, no
//     reassociation), reproduces these bits.  The tile entries below use
//     that freedom: on a CPU with AVX2 the scalar table's tiles are the
//     4-lane double kernels of src/support/simd_tiles.cpp (packed mul then
//     add), elsewhere they loop over the per-pair kernels.  Both give every
//     pair the per-pair kernel's bits.
//   * "avx2"   -- AVX2+FMA variants (src/support/simd_avx2.cpp, compiled
//     with -mavx2 -mfma in its own TU).  Reduction kernels keep double
//     accumulation (floats widened before the FMA) but run four doubles
//     per chain; elementwise float kernels run eight lanes.  Covered by
//     the tolerance-based parity harness (tests/test_kernel_parity.cpp),
//     never by bit pins.
//
// Selection: FAIRBFL_KERNELS=scalar|simd|auto in the environment, or
// set_mode()/set_mode_name() from a CLI flag (--kernels= on fairbfl_sim /
// bench_perf_round).  "simd" and "auto" both probe CPUID at runtime and
// fall back to scalar when AVX2+FMA is absent -- the only difference is
// intent ("simd" is an explicit request benches use; "auto" is the
// deploy-anywhere spelling).  The resolved decision is emitted once as
// the "kernels.dispatch" telemetry counter (0 = scalar, 1 = avx2) so
// perf artifacts can attribute a fast run to the table that served it.
//
// docs/ARCHITECTURE.md ("Kernel dispatch & the tolerance-pin convention")
// carries the how-to for adding another variant.

#include <cstddef>

namespace fairbfl::support::simd {

/// Tile shape bound: the pair tiles take at most kTileRows x kTileCols
/// pairs and the batch forward at most kTileCols samples per call.
inline constexpr std::size_t kTileRows = 4;
inline constexpr std::size_t kTileCols = 4;

/// Requested dispatch policy (what the user asked for, not necessarily
/// what the CPU can serve -- see active()).
enum class Mode {
    kScalar = 0,  ///< pinned reference kernels, bit-identical everywhere
    kSimd = 1,    ///< widest supported table (scalar when CPU lacks AVX2+FMA)
    kAuto = 2,    ///< same probe as kSimd; the deploy-anywhere default knob
};

/// One resolved kernel set.  Raw pointers + sizes (not spans) so the
/// `-march`-gated TU needs nothing from the rest of the tree and the
/// indirect call stays a plain function pointer.
struct KernelTable {
    /// Strict left-to-right double-chain dot (training/theta discipline).
    /// The avx2 variant reassociates -- callers opted out of bit pins.
    double (*dot)(const float* x, const float* y, std::size_t n);
    /// Blocked dot: reassociated in every table (comparison-only).
    double (*dot_blocked)(const float* x, const float* y, std::size_t n);
    /// Strict squared Euclidean distance.
    double (*squared_distance)(const float* x, const float* y,
                               std::size_t n);
    /// Blocked squared distance (comparison-only consumers).
    double (*squared_distance_blocked)(const float* x, const float* y,
                                       std::size_t n);
    /// y += alpha * x (elementwise; exact in every table).
    void (*axpy)(float alpha, const float* x, float* y, std::size_t n);
    /// Row-major rows x cols matrix-vector product; bias may be null.
    void (*gemv)(const float* a, std::size_t rows, std::size_t cols,
                 const float* x, const float* bias, float* out);
    /// out[j] += sum_r d[r] * a[r * cols + j], r applied in order.
    void (*gemv_transpose_accumulate)(const float* a, std::size_t rows,
                                      std::size_t cols, const float* d,
                                      float* out);
    /// Row r of y += d[r] * x.
    void (*outer_accumulate)(const float* d, const float* x,
                             std::size_t rows, std::size_t cols, float* y);
    /// Fused pass for the batched cosine kernel: *dot_out = dot(x, y) and
    /// *x_norm2_out = dot(x, x) in one traversal of x.
    void (*dot_and_norm)(const float* x, const float* y, std::size_t n,
                         double* dot_out, double* x_norm2_out);
    /// Pair tile of the strict dot: out[r * ny + c] = dot(xs[r], ys[c], n)
    /// for r < nx <= kTileRows, c < ny <= kTileCols, every entry the bits
    /// of this table's `dot`.  Rows are streamed once per tile instead of
    /// once per pair.
    void (*dot_tile)(const float* const* xs, std::size_t nx,
                     const float* const* ys, std::size_t ny, std::size_t n,
                     double* out);
    /// Pair tile of the blocked squared distance, same layout and the bits
    /// of this table's `squared_distance_blocked` for every pair.
    void (*squared_distance_blocked_tile)(const float* const* xs,
                                          std::size_t nx,
                                          const float* const* ys,
                                          std::size_t ny, std::size_t n,
                                          double* out);
    /// Batch forward: for each of nx <= kTileCols samples, out + s * rows
    /// receives exactly this table's gemv(a, rows, cols, xs[s], bias).
    void (*gemv_batch)(const float* a, std::size_t rows, std::size_t cols,
                       const float* const* xs, std::size_t nx,
                       const float* bias, float* out);
    /// Diagnostic name ("scalar", "avx2") -- perf JSON `kernels` key.
    const char* name;
};

/// True when this CPU can run the AVX2+FMA table (always false off x86).
[[nodiscard]] bool cpu_supports_avx2_fma() noexcept;

/// Selects the table for `mode` (probing the CPU for kSimd/kAuto) and
/// makes it the active one.  Thread-safe; emits the dispatch telemetry
/// counter on every change of the resolved table.
void set_mode(Mode mode) noexcept;

/// set_mode from a CLI/environment spelling ("scalar" | "simd" | "auto").
/// Returns false (and changes nothing) for an unknown name.
bool set_mode_name(const char* name) noexcept;

/// The active kernel table.  First use resolves FAIRBFL_KERNELS from the
/// environment (unset or unrecognized -> scalar, the pinned default);
/// set_mode()/set_mode_name() override it for the rest of the process.
[[nodiscard]] const KernelTable& active() noexcept;

/// Name of the active table ("scalar" / "avx2") for headers and logs.
[[nodiscard]] const char* active_name() noexcept;

/// Notified with the table name whenever dispatch publishes a different
/// kernel table.  Must be noexcept: it can fire from whichever thread
/// first touches the dispatch state.
using DispatchObserver = void (*)(const char* table_name) noexcept;

/// Installs the dispatch observer (nullptr clears it) and, when a table
/// is already published, replays the current name so a late registration
/// still sees it.  Upward-dependency firewall: support must not include
/// telemetry (layer-deps), so the telemetry breadcrumb for kernel
/// dispatch registers itself through this hook instead (telemetry.cpp).
void set_dispatch_observer(DispatchObserver observer) noexcept;

namespace detail {
/// The AVX2+FMA table, or nullptr when this binary was built without the
/// -mavx2 -mfma TU (non-x86 targets, compilers without the flags).  Lives
/// in simd_avx2.cpp so only that TU needs the wide-ISA flags.
[[nodiscard]] const KernelTable* avx2_table() noexcept;
/// The pinned scalar table with tiles that loop over the per-pair
/// kernels (always available; the reference the parity harness measures
/// divergence against).
[[nodiscard]] const KernelTable& scalar_table() noexcept;
/// The pinned table "scalar" dispatch serves: scalar_table() with the
/// AVX2 exact tiles installed when this binary and CPU can run them, else
/// scalar_table() itself.  Every entry has scalar_table()'s bits.
[[nodiscard]] const KernelTable& pinned_table() noexcept;
/// Overwrites `table`'s three tile entries with the AVX2 kernels that
/// reproduce the scalar per-pair and gemv bits; returns false and leaves
/// `table` alone when this binary was built without simd_tiles.cpp's
/// AVX2 flags.  The caller checks the CPU.
bool install_exact_avx2_tiles(KernelTable& table) noexcept;
/// True when this CPU can run simd_tiles.cpp (always false off x86).
[[nodiscard]] bool cpu_supports_avx2() noexcept;

/// Tile entry that loops over a per-pair kernel: the fallback tiles of
/// every table, and the reference the exact tiles are pinned against.
template <double (*Pair)(const float*, const float*, std::size_t)>
void pairwise_tile(const float* const* xs, std::size_t nx,
                   const float* const* ys, std::size_t ny, std::size_t n,
                   double* out) {
    for (std::size_t r = 0; r < nx; ++r)
        for (std::size_t c = 0; c < ny; ++c)
            out[r * ny + c] = Pair(xs[r], ys[c], n);
}

/// Batch forward entry that calls a gemv kernel once per sample.
template <void (*Gemv)(const float*, std::size_t, std::size_t, const float*,
                       const float*, float*)>
void gemv_per_sample(const float* a, std::size_t rows, std::size_t cols,
                     const float* const* xs, std::size_t nx,
                     const float* bias, float* out) {
    for (std::size_t s = 0; s < nx; ++s)
        Gemv(a, rows, cols, xs[s], bias, out + s * rows);
}
}  // namespace detail

}  // namespace fairbfl::support::simd
